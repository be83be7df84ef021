(* Table 4: NetKernel scalability across NSMs — a 1-vCPU VM served by 1..4
   kernel-stack NSMs of 2 vCPUs each. Servers in different NSMs listen on
   different ports (CoreEngine assigns sockets round-robin across NSMs).

   Paper: send 85.1/94.0/94.1/94.2 Gb/s; receive 33.6/61.2/91.0/91.0 Gb/s;
   131.6K/260.4K/399.1K/520.1K rps. *)

open Nkcore

let base_port = 5000

(* Bulk throughput through n listeners (one per NSM, distinct ports). *)
let throughput w ~n_nsms ~direction ~duration =
  let engine = w.Worlds.tb.Testbed.engine in
  let sink_api, sender_api, sink_ip =
    match direction with
    | `Send -> (Vm.api w.Worlds.client_vm, Vm.api w.Worlds.server_vm, Worlds.client_ip)
    | `Recv -> (Vm.api w.Worlds.server_vm, Vm.api w.Worlds.client_vm, Worlds.server_ip)
  in
  let sinks =
    List.init n_nsms (fun i ->
        match
          Nkapps.Stream.sink ~engine ~api:sink_api ~addr:(Addr.make sink_ip (base_port + i))
        with
        | Ok s -> s
        | Error e -> failwith (Tcpstack.Types.err_to_string e))
  in
  ignore
    (Sim.Engine.schedule engine ~delay:1e-3 (fun () ->
         List.iteri
           (fun i _ ->
             ignore
               (Nkapps.Stream.senders ~engine ~api:sender_api
                  ~dst:(Addr.make sink_ip (base_port + i))
                  ~streams:8 ~msg_size:8192
                  ~stop:(Sim.Engine.now engine +. duration)
                  ()))
           sinks));
  Testbed.run w.Worlds.tb ~until:(duration +. 0.1);
  List.fold_left (fun acc s -> acc +. Nkapps.Stream.sink_throughput_gbps s) 0.0 sinks

let rps w ~n_nsms ~total =
  let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false } in
  let lgs =
    List.init n_nsms (fun i ->
        let addr = Addr.make Worlds.server_ip (80 + i) in
        let _server =
          Worlds.serve w.Worlds.tb w.Worlds.server_vm
            (Nkapps.Epoll_server.config ~proto addr)
        in
        Worlds.load w.Worlds.tb ~delay:1e-3 w.Worlds.client_vm
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Closed
                { concurrency = 250; total = Some (total / n_nsms); duration = None };
            warmup = 0.0;
          })
  in
  Testbed.run w.Worlds.tb ~until:120.0;
  List.fold_left
    (fun acc lg ->
      match !lg with
      | None -> acc
      | Some lg -> acc +. (Nkapps.Loadgen.results lg).Nkapps.Loadgen.rps)
    0.0 lgs

let run ?(quick = false) () =
  let duration = if quick then 0.3 else 1.0 in
  let total = if quick then 8_000 else 40_000 in
  let rows =
    List.map
      (fun n_nsms ->
        let send =
          throughput
            (Worlds.netkernel ~config:{ Worlds.Config.default with nsm_cores = 2; n_nsms } ())
            ~n_nsms ~direction:`Send ~duration
        in
        let recv =
          throughput
            (Worlds.netkernel ~config:{ Worlds.Config.default with nsm_cores = 2; n_nsms } ())
            ~n_nsms ~direction:`Recv ~duration
        in
        let krps = rps (Worlds.netkernel ~config:{ Worlds.Config.default with nsm_cores = 2; n_nsms } ()) ~n_nsms ~total in
        [
          string_of_int n_nsms;
          Report.cell_gbps send;
          Report.cell_gbps recv;
          Report.cell_krps krps;
        ])
      [ 1; 2; 3; 4 ]
  in
  Report.make ~id:"table4"
    ~title:"Scaling with multiple 2-vCPU kernel-stack NSMs serving one 1-vCPU VM"
    ~headers:[ "# NSMs"; "send Gb/s"; "recv Gb/s"; "RPS" ]
    ~notes:
      [
        "paper: send 85.1/94.0/94.1/94.2; recv 33.6/61.2/91.0/91.0; rps \
         131.6K/260.4K/399.1K/520.1K";
        "shape: send saturates line rate early; receive and RPS scale near-linearly";
      ]
    rows
