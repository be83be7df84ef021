open Nkcore
module Types = Tcpstack.Types

type world = {
  tb : Testbed.t;
  server_host : Host.t;
  client_host : Host.t;
  server_vm : Vm.t;
  client_vm : Vm.t;
  nsms : Nsm.t list;
}

let server_ip = 10

let client_ip = 20

let client_ips = List.init 8 (fun i -> client_ip + i)

let make_client host =
  Vm.create_baseline host ~name:"client" ~vcpus:16 ~ips:client_ips
    ~profile:Sim.Cost_profile.ideal ()

module Config = struct
  type t = {
    tb : Testbed.Config.t;
    vcpus : int;
    nsm_cores : int;
    nsm_kind : [ `Kernel | `Mtcp ];
    n_nsms : int;
    ce_cores : int;
  }

  let default =
    {
      tb = Testbed.Config.default;
      vcpus = 1;
      nsm_cores = 1;
      nsm_kind = `Kernel;
      n_nsms = 1;
      ce_cores = 1;
    }

  let with_seed seed t = { t with tb = { t.tb with Testbed.Config.seed } }

  let with_costs costs t = { t with tb = { t.tb with Testbed.Config.costs } }

  let with_span_every span_every t = { t with tb = { t.tb with Testbed.Config.span_every } }
end

let baseline ?(config = Config.default) () =
  let tb = Testbed.create ~config:config.Config.tb () in
  let server_host = Testbed.add_host tb ~name:"hostA" in
  let client_host = Testbed.add_host tb ~name:"hostB" in
  let server_vm =
    Vm.create_baseline server_host ~name:"vm" ~vcpus:config.Config.vcpus ~ips:[ server_ip ] ()
  in
  let client_vm = make_client client_host in
  { tb; server_host; client_host; server_vm; client_vm; nsms = [] }

let netkernel ?(config = Config.default) () =
  let { Config.tb = tb_cfg; vcpus; nsm_cores; nsm_kind; n_nsms; ce_cores } = config in
  let tb = Testbed.create ~config:tb_cfg () in
  let server_host = Testbed.add_host tb ~name:"hostA" in
  let client_host = Testbed.add_host tb ~name:"hostB" in
  (* First enabler wins the shard count (NSM/VM creation enables it
     idempotently with the default single core). *)
  Host.enable_netkernel ~ce_cores server_host;
  let nsms =
    List.init n_nsms (fun i ->
        let name = Printf.sprintf "nsm%d" i in
        match nsm_kind with
        | `Kernel -> Nsm.create_kernel server_host ~name ~vcpus:nsm_cores ()
        | `Mtcp -> Nsm.create_mtcp server_host ~name ~vcpus:nsm_cores ())
  in
  let server_vm = Vm.create_nk server_host ~name:"vm" ~vcpus ~ips:[ server_ip ] ~nsms () in
  let client_vm = make_client client_host in
  { tb; server_host; client_host; server_vm; client_vm; nsms }

(* ---- drivers ------------------------------------------------------------- *)

let get_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Types.err_to_string e))

let measure_send_throughput w ?(streams = 8) ?(msg_size = 8192) ?(duration = 1.0) () =
  let engine = w.tb.Testbed.engine in
  let sink_addr = Addr.make client_ip 5001 in
  let sink =
    get_exn "sink" (Nkapps.Stream.sink ~engine ~api:(Vm.api w.client_vm) ~addr:sink_addr)
  in
  ignore
    (Sim.Engine.schedule engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Stream.senders ~engine ~api:(Vm.api w.server_vm) ~dst:sink_addr ~streams
              ~msg_size
              ~stop:(Sim.Engine.now engine +. duration)
              ())));
  Testbed.run w.tb ~until:(duration +. 0.1);
  Nkapps.Stream.sink_throughput_gbps sink

let measure_recv_throughput w ?(streams = 8) ?(msg_size = 8192) ?(duration = 1.0) () =
  let engine = w.tb.Testbed.engine in
  let sink_addr = Addr.make server_ip 5001 in
  let sink =
    get_exn "sink" (Nkapps.Stream.sink ~engine ~api:(Vm.api w.server_vm) ~addr:sink_addr)
  in
  (* The paper's traffic source is the other testbed server running a real
     kernel stack, so per-message send costs shape the small-message end of
     the receive curves. A 16-core sender with no cross-core contention
     never limits the aggregate. *)
  let sender_vm =
    Vm.create_baseline w.client_host ~name:"bulk-sender" ~vcpus:16
      ~ips:(List.init 4 (fun i -> client_ip + 100 + i))
      ~profile:
        { Sim.Cost_profile.linux_kernel with
          Sim.Cost_profile.tx_contention = 0.0; rx_contention = 0.0; rps_contention = 0.0 }
      ()
  in
  ignore
    (Sim.Engine.schedule engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Stream.senders ~engine ~api:(Vm.api sender_vm) ~dst:sink_addr ~streams
              ~msg_size
              ~stop:(Sim.Engine.now engine +. duration)
              ())));
  Testbed.run w.tb ~until:(duration +. 0.1);
  Nkapps.Stream.sink_throughput_gbps sink

type rps_result = {
  rps : float;
  errors : int;
  latency : Nkutil.Histogram.t;
  vm_cycles : float;
  nsm_cycles : float;
  ce_cycles : float;
}

let serve (tb : Testbed.t) vm cfg =
  get_exn "epoll server" (Nkapps.Epoll_server.start ~engine:tb.engine ~api:(Vm.api vm) cfg)

let load (tb : Testbed.t) ~delay vm cfg =
  let lg = ref None in
  ignore
    (Sim.Engine.schedule tb.engine ~delay (fun () ->
         lg := Some (Nkapps.Loadgen.start ~engine:tb.engine ~api:(Vm.api vm) cfg)));
  lg

let served lgs =
  List.fold_left
    (fun (c, e) lg ->
      match !lg with
      | None -> (c, e)
      | Some lg ->
          let r = Nkapps.Loadgen.results lg in
          (c + r.Nkapps.Loadgen.completed, e + r.Nkapps.Loadgen.errors))
    (0, 0) lgs

let nsm_cycles w = List.fold_left (fun acc nsm -> acc +. Nsm.busy_cycles nsm) 0.0 w.nsms

let ce_cycles w =
  if Host.netkernel_enabled w.server_host then
    Array.fold_left
      (fun acc c -> acc +. Sim.Cpu.busy_cycles c)
      0.0
      (Host.ce_cores w.server_host)
  else 0.0

let measure_rps w ?(concurrency = 100) ?(total = 50_000) ?(msg_size = 64)
    ?(app_cycles = 0.0) ?(backlog = 8192) ?proto () =
  let proto =
    match proto with
    | Some p -> p
    | None -> Nkapps.Proto.Fixed { request = msg_size; response = msg_size; keepalive = false }
  in
  let addr = Addr.make server_ip 80 in
  let _server =
    serve w.tb w.server_vm
      (Nkapps.Epoll_server.config ~backlog ~proto ~app_cycles
         ~app_cores:(Vm.cores w.server_vm) addr)
  in
  let vm0 = Vm.busy_cycles w.server_vm in
  let nsm0 = nsm_cycles w in
  let ce0 = ce_cycles w in
  let lg =
    load w.tb ~delay:1e-3 w.client_vm
      {
        Nkapps.Loadgen.server = addr;
        proto;
        mode = Nkapps.Loadgen.Closed { concurrency; total = Some total; duration = None };
        warmup = 0.0;
      }
  in
  Testbed.run w.tb ~until:120.0;
  match !lg with
  | None -> failwith "loadgen never started"
  | Some lg ->
      let r = Nkapps.Loadgen.results lg in
      {
        rps = r.Nkapps.Loadgen.rps;
        errors = r.Nkapps.Loadgen.errors;
        latency = r.Nkapps.Loadgen.latency;
        vm_cycles = Vm.busy_cycles w.server_vm -. vm0;
        nsm_cycles = nsm_cycles w -. nsm0;
        ce_cycles = ce_cycles w -. ce0;
      }
