(* The four benchmark worlds.

   Every world is built only through the library's public constructors
   (Testbed, Host, Nsm, Vm, Nkfabric, Epoll_server, Loadgen, Stream); the
   benchmark seed goes into [Testbed.Config.seed] and also draws the
   workload's inputs (client start instants, which workers send long
   requests, the migration instant), so the same seed gives the same run.

   Outputs are observed through taps on the clients' socket APIs. A tap
   passes every call through unchanged and runs the caller's continuation
   in the same event, so the simulated run is the one the bare API gives;
   it timestamps requests exactly (the load generators' own histograms are
   bucketed) and checks what the applications receive. *)

open Nkcore
module Api = Tcpstack.Socket_api
module Types = Tcpstack.Types
module Lg = Nkapps.Loadgen
module Rng = Nkutil.Rng

(* Which layer a simulated core belongs to. *)
type owner = Vm | Nsm | Ce | Client

type outcome = {
  ops : float;  (** completed ops (bulk-stream: delivered 16 KB messages) *)
  attempted : int;
  completed : int;
  payload_bytes : float;  (** application bytes delivered, both directions *)
  t_first : float;
  t_last : float;  (** the clients' issuing window, virtual time *)
  latency : float array;  (** exact per-op virtual latencies (s), sorted *)
  problems : string list;  (** failed output checks *)
}

type world = {
  tb : Testbed.t;
  spans : Nkspan.t list;  (** span recorders (one per cluster node) *)
  mons : Nkmon.t list;  (** registries holding the layers' counters *)
  cores : unit -> (owner * Sim.Cpu.t) list;
      (** re-read on demand: a migration adds an NSM mid-run *)
  server_vms : Vm.t list;
  nsms : unit -> Nsm.t list;
  nk_hosts : Host.t list;  (** hosts running a CoreEngine *)
  outcome : unit -> outcome;
}

type params = { seed : int; span_every : int; duration : float }

(* ---- exact latency samples ------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort Float.compare a;
    a
end

(* ---- request tap: connect .. last response byte ------------------------ *)

module Request_tap = struct
  type expect = Fixed_response of int | Http_body of int

  type conn = {
    t0 : float;
    mutable got : int;
    parser : Nkapps.Http.Parser.t option;
    mutable answered : bool;
  }

  type t = {
    engine : Sim.Engine.t;
    expect : expect;
    latency : Samples.t;
    mutable response_bytes : int;
    mutable bad : int;  (** wrong body length, or a body of synthetic bytes *)
  }

  let create engine expect =
    { engine; expect; latency = Samples.create (); response_bytes = 0; bad = 0 }

  let http_head body =
    String.length (Nkapps.Http.response_header ~content_length:body ~keepalive:false ())

  let answered t c =
    c.answered <- true;
    Samples.add t.latency (Sim.Engine.now t.engine -. c.t0)

  let observe t c payload =
    let n = Types.payload_len payload in
    c.got <- c.got + n;
    t.response_bytes <- t.response_bytes + n;
    match (t.expect, c.parser) with
    | Fixed_response size, _ -> if (not c.answered) && c.got >= size then answered t c
    | Http_body body, Some p -> (
        (match payload with Types.Zeros _ -> t.bad <- t.bad + 1 | Types.Data _ -> ());
        match Nkapps.Http.Parser.feed p payload with
        | [] -> ()
        | msgs ->
            if
              c.answered
              || List.exists (fun m -> m.Nkapps.Http.Parser.content_length <> body) msgs
            then t.bad <- t.bad + 1;
            if not c.answered then answered t c
        | exception Failure _ -> t.bad <- t.bad + 1)
    | Http_body _, None -> ()

  (* Each wrapped API gets its own descriptor table (descriptors are
     per-API); the counters are shared. *)
  let wrap t (api : Api.t) =
    let conns : (Api.sock, conn) Hashtbl.t = Hashtbl.create 64 in
    let socket () =
      let r = api.Api.socket () in
      (match r with
      | Ok fd ->
          let parser =
            match t.expect with
            | Http_body _ -> Some (Nkapps.Http.Parser.create ())
            | Fixed_response _ -> None
          in
          Hashtbl.replace conns fd
            { t0 = Sim.Engine.now t.engine; got = 0; parser; answered = false }
      | Error _ -> ());
      r
    in
    let recv fd ~max ~mode ~k =
      api.Api.recv fd ~max ~mode ~k:(fun r ->
          (match r with
          | Ok payload when Types.payload_len payload > 0 -> (
              match Hashtbl.find_opt conns fd with Some c -> observe t c payload | None -> ())
          | Ok _ | Error _ -> ());
          k r)
    in
    let close fd =
      (match Hashtbl.find_opt conns fd with
      | Some c -> (
          Hashtbl.remove conns fd;
          match t.expect with
          | Http_body body when c.answered && c.got <> http_head body + body ->
              t.bad <- t.bad + 1
          | Http_body _ | Fixed_response _ -> ())
      | None -> ());
      api.Api.close fd
    in
    { api with Api.socket; recv; close }
end

(* ---- stream tap: message accepted by send .. its last byte at the sink -- *)

module Stream_tap = struct
  type flow = {
    pending : (int * float) Queue.t;  (** (end offset, accept time) per message *)
    mutable sent : int;
    mutable rcvd : int;
  }

  (* GuestLib does not learn a connected socket's local port, so flows
     are paired by order instead: the k-th connect to complete at the
     sender is the k-th connection the sink accepts (one FIFO path, one
     accept queue). The per-flow byte check after the drain catches any
     mispairing. *)
  type t = {
    engine : Sim.Engine.t;
    mutable flows : flow list;  (** in connect order *)
    mutable connected : int;
    mutable accepted : int;
    latency : Samples.t;
  }

  let create engine = { engine; flows = []; connected = 0; accepted = 0; latency = Samples.create () }

  let nth t k =
    while List.length t.flows <= k do
      t.flows <- t.flows @ [ { pending = Queue.create (); sent = 0; rcvd = 0 } ]
    done;
    List.nth t.flows k

  let sender t (api : Api.t) =
    let by_fd : (Api.sock, flow) Hashtbl.t = Hashtbl.create 16 in
    let connect fd dst ~k =
      api.Api.connect fd dst ~k:(fun r ->
          (match r with
          | Ok () ->
              Hashtbl.replace by_fd fd (nth t t.connected);
              t.connected <- t.connected + 1
          | Error _ -> ());
          k r)
    in
    let send fd payload ~k =
      api.Api.send fd payload ~k:(fun r ->
          (match (r, Hashtbl.find_opt by_fd fd) with
          | Ok n, Some f when n > 0 ->
              f.sent <- f.sent + n;
              Queue.add (f.sent, Sim.Engine.now t.engine) f.pending
          | _ -> ());
          k r)
    in
    { api with Api.connect; send }

  let sink t (api : Api.t) =
    let by_fd : (Api.sock, flow) Hashtbl.t = Hashtbl.create 16 in
    let accept ls ~k =
      api.Api.accept ls ~k:(fun r ->
          (match r with
          | Ok (fd, _) ->
              Hashtbl.replace by_fd fd (nth t t.accepted);
              t.accepted <- t.accepted + 1
          | Error _ -> ());
          k r)
    in
    let recv fd ~max ~mode ~k =
      api.Api.recv fd ~max ~mode ~k:(fun r ->
          (match (r, Hashtbl.find_opt by_fd fd) with
          | Ok payload, Some f ->
              f.rcvd <- f.rcvd + Types.payload_len payload;
              let now = Sim.Engine.now t.engine in
              while (not (Queue.is_empty f.pending)) && fst (Queue.peek f.pending) <= f.rcvd do
                Samples.add t.latency (now -. snd (Queue.pop f.pending))
              done
          | _ -> ());
          k r)
    in
    { api with Api.accept; recv }

  let mismatched t = List.length (List.filter (fun f -> f.sent <> f.rcvd) t.flows)
end

(* ---- shared building blocks ------------------------------------------- *)

let testbed p =
  Testbed.create
    ~config:{ Testbed.Config.default with Testbed.Config.seed = p.seed; span_every = p.span_every }
    ()

(* Benchmark-side inputs come from their own stream, so the testbed's RNG
   (TCP initial sequence numbers) is drawn exactly as in any other world. *)
let inputs p = Rng.create ~seed:((p.seed * 7919) + 17)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Types.err_to_string e))

let serve tb vm ~proto addr =
  ignore
    (ok "server"
       (Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto addr)))

(* A remote baseline host whose VM runs the load generators: it charges
   the client side, never the NetKernel path under test. *)
let remote_client tb =
  let host = Testbed.add_host tb ~name:"clients" in
  Vm.create_baseline host ~name:"client" ~vcpus:16
    ~ips:(List.init 8 (fun i -> 100 + i))
    ~profile:Sim.Cost_profile.ideal ()

(* One closed-loop load generator with [per] requests in flight, started
   at a seeded instant in the first 2 ms and issuing for [duration]. *)
let closed_loop tb rng ~api ~addr ~proto ~per ~duration =
  let lg = ref None in
  let engine = tb.Testbed.engine in
  ignore
    (Sim.Engine.schedule engine ~delay:(Rng.float rng *. 2e-3) (fun () ->
         lg :=
           Some
             (Lg.start ~engine ~api
                {
                  Lg.server = addr;
                  proto;
                  mode = Lg.Closed { concurrency = per; total = None; duration = Some duration };
                  warmup = 0.0;
                })));
  lg

let request_bytes proto = Types.payload_len (Nkapps.Proto.request_payload proto)

(* [groups]: (load generators, tap, request bytes). Each load generator
   issues for [duration] from its start. *)
let loadgen_outcome ~duration groups =
  let completed = ref 0 and errors = ref 0 and unfinished = ref 0 and missing = ref 0 in
  let tapped = ref 0 and bad = ref 0 and bytes = ref 0.0 in
  let t_first = ref infinity and t_last = ref neg_infinity in
  let latency = Samples.create () in
  List.iter
    (fun (lgs, (tap : Request_tap.t), req) ->
      List.iter
        (fun lg ->
          match !lg with
          | None -> incr missing
          | Some lg ->
              let r = Lg.results lg in
              completed := !completed + r.Lg.completed;
              errors := !errors + r.Lg.errors;
              unfinished := !unfinished + Lg.in_flight lg;
              bytes := !bytes +. float_of_int (r.Lg.completed * req);
              t_first := Float.min !t_first r.Lg.started;
              t_last := Float.max !t_last (r.Lg.started +. duration))
        lgs;
      bytes := !bytes +. float_of_int tap.Request_tap.response_bytes;
      bad := !bad + tap.Request_tap.bad;
      let s = tap.Request_tap.latency in
      tapped := !tapped + s.Samples.n;
      for i = 0 to s.Samples.n - 1 do
        Samples.add latency s.Samples.a.(i)
      done)
    groups;
  let problems =
    List.filter_map
      (fun (failed, msg) -> if failed then Some msg else None)
      [
        (!missing > 0, Printf.sprintf "%d load generators never started" !missing);
        (!errors > 0, Printf.sprintf "%d requests failed" !errors);
        (!unfinished > 0, Printf.sprintf "%d requests unfinished after the drain" !unfinished);
        (!bad > 0, Printf.sprintf "%d responses with a wrong body" !bad);
        ( !tapped <> !completed,
          Printf.sprintf "tap saw %d answers, load generators %d" !tapped !completed );
        (!completed = 0, "no request completed");
      ]
  in
  {
    ops = float_of_int !completed;
    attempted = !completed + !errors + !unfinished;
    completed = !completed;
    payload_bytes = !bytes;
    t_first = !t_first;
    t_last = !t_last;
    latency = Samples.sorted latency;
    problems;
  }

let vm_cores vm = Array.to_list (Sim.Cpu.Set.cores (Vm.cores vm))

let nsm_cores nsm = Array.to_list (Sim.Cpu.Set.cores (Nsm.cores nsm))

let tag owner cores = List.map (fun c -> (owner, c)) cores

(* One NetKernel host: a 1-vCPU VM, one 1-vCPU kernel NSM and one
   CoreEngine shard. *)
let server_ip = 10

let netkernel_host tb =
  let host = Testbed.add_host tb ~name:"hostA" in
  Host.enable_netkernel host;
  let nsm = Nsm.create_kernel host ~name:"nsm0" ~vcpus:1 () in
  let vm = Vm.create_nk host ~name:"vm" ~vcpus:1 ~ips:[ server_ip ] ~nsms:[ nsm ] () in
  (host, nsm, vm)

let single_host_cores host nsm vm client () =
  tag Vm (vm_cores vm)
  @ tag Nsm (nsm_cores nsm)
  @ tag Ce (Array.to_list (Host.ce_cores host))
  @ tag Client (vm_cores client)

(* ---- rpc-churn ---------------------------------------------------------- *)

let rpc_churn p =
  let tb = testbed p and rng = inputs p in
  let host, nsm, vm = netkernel_host tb in
  let client = remote_client tb in
  let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false } in
  let addr = Addr.make server_ip 80 in
  serve tb vm ~proto addr;
  let tap = Request_tap.create tb.Testbed.engine (Request_tap.Fixed_response 64) in
  let api = Request_tap.wrap tap (Vm.api client) in
  let lgs =
    List.init 32 (fun _ -> closed_loop tb rng ~api ~addr ~proto ~per:1 ~duration:p.duration)
  in
  {
    tb;
    spans = [ tb.Testbed.spans ];
    mons = [ tb.Testbed.mon ];
    cores = single_host_cores host nsm vm client;
    server_vms = [ vm ];
    nsms = (fun () -> [ nsm ]);
    nk_hosts = [ host ];
    outcome = (fun () -> loadgen_outcome ~duration:p.duration [ (lgs, tap, request_bytes proto) ]);
  }

(* ---- bulk-stream -------------------------------------------------------- *)

let message = 16384

let bulk_stream p =
  let tb = testbed p and rng = inputs p in
  let engine = tb.Testbed.engine in
  let host, nsm, vm = netkernel_host tb in
  let client = remote_client tb in
  let tap = Stream_tap.create engine in
  let sink_addr = Addr.make 100 5001 in
  let sink =
    ok "sink" (Nkapps.Stream.sink ~engine ~api:(Stream_tap.sink tap (Vm.api client)) ~addr:sink_addr)
  in
  let api = Stream_tap.sender tap (Vm.api vm) in
  let starts = List.init 8 (fun _ -> Rng.float rng *. 2e-3) in
  let senders =
    List.map
      (fun start ->
        Nkapps.Stream.senders ~engine ~api ~dst:sink_addr ~streams:1 ~msg_size:message ~start
          ~stop:(start +. p.duration) ())
      starts
  in
  let outcome () =
    let st = Nkapps.Stream.sink_stats sink in
    let sent, failed, open_ =
      List.fold_left
        (fun (s, f, a) c ->
          let cs = Nkapps.Stream.sender_stats c in
          (s + cs.Nkapps.Stream.sent, f + cs.Nkapps.Stream.failed, a + cs.Nkapps.Stream.active_streams))
        (0, 0, 0) senders
    in
    let msgs bytes = (bytes + message - 1) / message in
    let problems =
      List.filter_map
        (fun (failed, msg) -> if failed then Some msg else None)
        [
          ( st.Nkapps.Stream.bytes <> sent,
            Printf.sprintf "sink received %d bytes, senders had accepted %d"
              st.Nkapps.Stream.bytes sent );
          (failed > 0, Printf.sprintf "%d streams failed" failed);
          (open_ > 0, Printf.sprintf "%d streams still open after the drain" open_);
          (st.Nkapps.Stream.conns <> 8, Printf.sprintf "sink accepted %d streams" st.Nkapps.Stream.conns);
          ( Stream_tap.mismatched tap > 0,
            Printf.sprintf "%d streams delivered a byte count their sender did not send"
              (Stream_tap.mismatched tap) );
          (sent = 0, "nothing sent");
        ]
    in
    {
      ops = float_of_int st.Nkapps.Stream.bytes /. float_of_int message;
      attempted = Int.max 1 (msgs sent);
      completed = msgs st.Nkapps.Stream.bytes;
      payload_bytes = float_of_int st.Nkapps.Stream.bytes;
      t_first = List.fold_left Float.min infinity starts;
      t_last = List.fold_left Float.max neg_infinity starts +. p.duration;
      latency = Samples.sorted tap.Stream_tap.latency;
      problems;
    }
  in
  {
    tb;
    spans = [ tb.Testbed.spans ];
    mons = [ tb.Testbed.mon ];
    cores = single_host_cores host nsm vm client;
    server_vms = [ vm ];
    nsms = (fun () -> [ nsm ]);
    nk_hosts = [ host ];
    outcome;
  }

(* ---- cluster-http ------------------------------------------------------- *)

let cluster_http p =
  let tb = testbed p and rng = inputs p in
  let cluster = Nkfabric.create ~policy:Nkfabric.Spread tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let nsma = Nsm.create_kernel (Nkfabric.node_host nodea) ~name:"nsmA" ~vcpus:1 () in
  let nsmb = Nsm.create_kernel (Nkfabric.node_host nodeb) ~name:"nsmB" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsma;
  Nkfabric.add_nsm cluster nodeb nsmb;
  let vms =
    List.init 4 (fun i ->
        Nkfabric.place_vm cluster ~name:(Printf.sprintf "srv%d" i) ~vcpus:1 ~ips:[ 10 + i ] ())
  in
  let client = remote_client tb in
  let proto = Nkapps.Proto.Http { path = "/"; response = 1024; keepalive = false } in
  let tap = Request_tap.create tb.Testbed.engine (Request_tap.Http_body 1024) in
  let api = Request_tap.wrap tap (Vm.api client) in
  let lgs =
    List.mapi
      (fun i vm ->
        let addr = Addr.make (10 + i) 80 in
        serve tb vm ~proto addr;
        closed_loop tb rng ~api ~addr ~proto ~per:8 ~duration:p.duration)
      vms
  in
  (* Every client of the two migrating VMs reconnects during the 20 ms
     quiesce and stalls in the 1 s SYN retransmit, so the cut comes early
     enough that the relay serves them for a good part of the run. *)
  let cut = (p.duration /. 10.0) +. (Rng.float rng *. 1e-3) in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:cut (fun () ->
         ignore (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ())));
  let nodes = [ nodea; nodeb ] in
  (* The migration's destination NSM joins nodeB's pool; the retired
     source keeps the cycles it burned before the cut. *)
  let nsms () =
    List.fold_left
      (fun acc n ->
        List.fold_left (fun acc s -> if List.memq s acc then acc else acc @ [ s ]) acc
          (Nkfabric.node_nsms n))
      [ nsma; nsmb ] nodes
  in
  let cores () =
    List.concat_map (fun vm -> tag Vm (vm_cores vm)) vms
    @ List.concat_map (fun s -> tag Nsm (nsm_cores s)) (nsms ())
    @ List.concat_map
        (fun n -> tag Ce (Array.to_list (Host.ce_cores (Nkfabric.node_host n))))
        nodes
    @ tag Client (vm_cores client)
  in
  {
    tb;
    spans = List.map Nkfabric.node_spans nodes;
    mons = tb.Testbed.mon :: List.map Nkfabric.node_mon nodes;
    cores;
    server_vms = vms;
    nsms;
    nk_hosts = List.map Nkfabric.node_host nodes;
    outcome = (fun () -> loadgen_outcome ~duration:p.duration [ (lgs, tap, request_bytes proto) ]);
  }

(* ---- homa-fanin --------------------------------------------------------- *)

let homa_fanin p =
  let tb = testbed p and rng = inputs p in
  let host = Testbed.add_host tb ~name:"hostA" in
  Host.enable_netkernel host;
  let nsm = Nsm.create_homa host ~name:"nsm-homa" ~vcpus:2 () in
  let agg = Vm.create_nk host ~name:"agg" ~vcpus:2 ~ips:[ server_ip ] ~nsms:[ nsm ] () in
  let workers =
    List.init 24 (fun i ->
        Vm.create_nk host ~name:(Printf.sprintf "worker%d" i) ~vcpus:1 ~ips:[ 20 + i ]
          ~nsms:[ nsm ] ())
  in
  let short = Nkapps.Proto.Fixed { request = 256; response = 256; keepalive = false } in
  let long = Nkapps.Proto.Fixed { request = 65536; response = 256; keepalive = false } in
  let short_addr = Addr.make server_ip 80 and long_addr = Addr.make server_ip 81 in
  serve tb agg ~proto:short short_addr;
  serve tb agg ~proto:long long_addr;
  (* Four seeded workers send the long requests. *)
  let order = Array.init 24 Fun.id in
  Rng.shuffle rng order;
  let is_long i = Array.exists (fun j -> j = i) (Array.sub order 0 4) in
  let groups =
    List.mapi
      (fun i vm ->
        let proto, addr = if is_long i then (long, long_addr) else (short, short_addr) in
        let tap = Request_tap.create tb.Testbed.engine (Request_tap.Fixed_response 256) in
        let api = Request_tap.wrap tap (Vm.api vm) in
        ([ closed_loop tb rng ~api ~addr ~proto ~per:1 ~duration:p.duration ], tap, request_bytes proto))
      workers
  in
  let cores () =
    tag Vm (vm_cores agg)
    @ tag Nsm (nsm_cores nsm)
    @ tag Ce (Array.to_list (Host.ce_cores host))
    @ List.concat_map (fun vm -> tag Client (vm_cores vm)) workers
  in
  {
    tb;
    spans = [ tb.Testbed.spans ];
    mons = [ tb.Testbed.mon ];
    cores;
    server_vms = [ agg ];
    nsms = (fun () -> [ nsm ]);
    nk_hosts = [ host ];
    outcome = (fun () -> loadgen_outcome ~duration:p.duration groups);
  }

(* ---- registry --------------------------------------------------------- *)

(* [vs_per_run_s]: virtual seconds per second of [--seconds]. A paced run
   spends about a third of its host time simulating on the reference
   machine and spins for the rest (README.md, "Host noise"); cluster-http
   needs a longer virtual run for its relay phase. The run length is a
   pure function of [--seconds], which keeps every simulated metric
   deterministic. *)
type spec = { name : string; build : params -> world; vs_per_run_s : float }

let all =
  [
    { name = "rpc-churn"; build = rpc_churn; vs_per_run_s = 0.054 };
    { name = "bulk-stream"; build = bulk_stream; vs_per_run_s = 0.066 };
    { name = "cluster-http"; build = cluster_http; vs_per_run_s = 0.068 };
    { name = "homa-fanin"; build = homa_fanin; vs_per_run_s = 0.0255 };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
