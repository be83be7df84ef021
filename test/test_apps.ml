(* Application-layer tests over the baseline stack: server/loadgen contracts,
   HTTP end-to-end, pacing and open-loop rates. *)

open Tcpstack
module E = Sim.Engine

let ip_server = 1
let ip_client = 2

let world () = World.create ()

let server_endpoint w = World.add_endpoint w ~name:"server" ~ip:ip_server

let client_endpoint w =
  World.add_endpoint w ~name:"client" ~ip:ip_client ~profile:Sim.Cost_profile.ideal
    ~cores:4

let fixed n = Nkapps.Proto.Fixed { request = n; response = n; keepalive = false }

let run_loadgen w (server : World.endpoint) (client : World.endpoint) ~proto ~total
    ~concurrency =
  (match
     Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
       (Nkapps.Epoll_server.config ~proto (Addr.make ip_server 80))
   with
  | Ok s -> ignore s
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg = ref None in
  ignore
    (E.schedule w.World.engine ~delay:1e-3 (fun () ->
         lg :=
           Some
             (Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
                {
                  Nkapps.Loadgen.server = Addr.make ip_server 80;
                  proto;
                  mode = Nkapps.Loadgen.Closed { concurrency; total = Some total; duration = None };
                  warmup = 0.0;
                })));
  World.run w ~until:60.0;
  Nkapps.Loadgen.results (Option.get !lg)

let loadgen_completes_exactly () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let r = run_loadgen w server client ~proto:(fixed 64) ~total:1500 ~concurrency:32 in
  Alcotest.(check int) "completed" 1500 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "errors" 0 r.Nkapps.Loadgen.errors;
  Alcotest.(check int) "latency samples" 1500 (Nkutil.Histogram.count r.Nkapps.Loadgen.latency)

let server_counts_match () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let srv =
    match
      Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
        (Nkapps.Epoll_server.config ~proto:(fixed 128) (Addr.make ip_server 81))
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e)
  in
  let lg = ref None in
  ignore
    (E.schedule w.World.engine ~delay:1e-3 (fun () ->
         lg :=
           Some
             (Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
                {
                  Nkapps.Loadgen.server = Addr.make ip_server 81;
                  proto = fixed 128;
                  mode = Nkapps.Loadgen.Closed { concurrency = 8; total = Some 400; duration = None };
                  warmup = 0.0;
                })));
  World.run w ~until:30.0;
  let r = Nkapps.Loadgen.results (Option.get !lg) in
  let s = Nkapps.Epoll_server.stats srv in
  Alcotest.(check int) "client completed" 400 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "server served" 400 s.Nkapps.Epoll_server.requests;
  Alcotest.(check int) "server accepted" 400 s.Nkapps.Epoll_server.accepted;
  Alcotest.(check int) "request bytes" (400 * 128) s.Nkapps.Epoll_server.bytes_in

let http_end_to_end () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let proto = Nkapps.Proto.Http { path = "/x.html"; response = 512; keepalive = false } in
  let r = run_loadgen w server client ~proto ~total:500 ~concurrency:16 in
  Alcotest.(check int) "completed" 500 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "errors" 0 r.Nkapps.Loadgen.errors

let open_loop_rate () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  (match
     Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
       (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode = Nkapps.Loadgen.Open { rate_at = (fun _ -> 5000.0); duration = 1.0 };
        warmup = 0.0;
      }
  in
  World.run w ~until:2.0;
  let r = Nkapps.Loadgen.results lg in
  let c = r.Nkapps.Loadgen.completed in
  if c < 4500 || c > 5500 then Alcotest.failf "open loop rate off: %d completions" c

let paced_stream () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  let sink =
    match
      Nkapps.Stream.sink ~engine:w.World.engine ~api:server.World.api
        ~addr:(Addr.make ip_server 5001)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "sink: %s" (Types.err_to_string e)
  in
  ignore
    (E.schedule w.World.engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Stream.senders ~engine:w.World.engine ~api:client.World.api
              ~dst:(Addr.make ip_server 5001) ~streams:2 ~msg_size:16384 ~pace_gbps:2.0
              ~stop:1.0 ())));
  World.run w ~until:1.2;
  let gbps = Nkapps.Stream.sink_throughput_gbps sink in
  if gbps < 1.6 || gbps > 2.2 then Alcotest.failf "pacing off: %.2f Gbps" gbps

let kvstore_baseline () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  (match
     Nkapps.Kvstore.start ~engine:w.World.engine ~api:server.World.api
       ~addr:(Addr.make ip_server 6379)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv: %s" (Types.err_to_string e));
  let got = ref None in
  Nkapps.Kvstore.Client.connect ~engine:w.World.engine ~api:client.World.api
    (Addr.make ip_server 6379) ~k:(fun r ->
      match r with
      | Error e -> Alcotest.failf "connect: %s" (Types.err_to_string e)
      | Ok conn ->
          Nkapps.Kvstore.Client.set conn ~key:"a b" ~value:"with spaces too" ~k:(fun _ ->
              Nkapps.Kvstore.Client.get conn ~key:"a" ~k:(fun r1 ->
                  (match r1 with
                  | Ok None -> () (* "a b" was parsed as key "a"? no: SET a b -> key "a" value "b ..." *)
                  | Ok (Some _) -> ()
                  | Error e -> Alcotest.failf "get: %s" e);
                  Nkapps.Kvstore.Client.get conn ~key:"a b" ~k:(fun _ ->
                      Nkapps.Kvstore.Client.set conn ~key:"k" ~value:"v" ~k:(fun _ ->
                          Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                              (match r with
                              | Ok v -> got := v
                              | Error e -> Alcotest.failf "get k: %s" e);
                              Nkapps.Kvstore.Client.close conn))))));
  World.run w ~until:5.0;
  Alcotest.(check (option string)) "kv roundtrip" (Some "v") !got

(* Connection churn must not grow the engine's pending set: every
   handshake arms a 1 s initial RTO at both ends and cancels it one round
   trip later, so if cancelled events stayed queued until their expiry,
   32 non-keep-alive clients would pile up tens of thousands of them in
   0.3 virtual s. Live state is the TIME_WAIT timers and in-flight
   requests, a few thousand events. *)
let churn_pending_bounded () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  (match
     Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
       (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode = Nkapps.Loadgen.Closed { concurrency = 32; total = None; duration = Some 0.3 };
        warmup = 0.0;
      }
  in
  let peak = ref 0 in
  for i = 1 to 300 do
    World.run w ~until:(float_of_int i *. 1e-3);
    peak := Int.max !peak (E.pending w.World.engine)
  done;
  let r = Nkapps.Loadgen.results lg in
  if r.Nkapps.Loadgen.completed < 10_000 then
    Alcotest.failf "only %d requests completed" r.Nkapps.Loadgen.completed;
  if !peak > 10_000 then Alcotest.failf "pending peaked at %d events" !peak

(* A connection in TIME_WAIT keeps a compact record, not a whole TCB, and
   live memory does not grow with run length. The same churn world; after
   a full major GC, at 0.1 and at 0.3 virtual s, the live words above those
   of the drained world (all TIME_WAITs expired) are divided by the
   connections in TIME_WAIT: at most 100 each. A whole TCB with its CC,
   RTT estimator, fifos, queues and action closures held about 270. *)
let churn_memory_bounded () =
  let w = world () in
  let server = server_endpoint w and client = client_endpoint w in
  (match
     Nkapps.Epoll_server.start ~engine:w.World.engine ~api:server.World.api
       (Nkapps.Epoll_server.config ~proto:(fixed 64) (Addr.make ip_server 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg =
    Nkapps.Loadgen.start ~engine:w.World.engine ~api:client.World.api
      {
        Nkapps.Loadgen.server = Addr.make ip_server 80;
        proto = fixed 64;
        mode = Nkapps.Loadgen.Closed { concurrency = 32; total = None; duration = Some 0.3 };
        warmup = 0.0;
      }
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let at t =
    World.run w ~until:t;
    let n =
      Stack.time_wait_conns server.World.stack + Stack.time_wait_conns client.World.stack
    in
    (live (), n)
  in
  let l1, n1 = at 0.1 in
  let l3, n3 = at 0.3 in
  let drained, n = at 0.5 in
  Alcotest.(check int) "TIME_WAITs expired" 0 n;
  if n1 < 1000 || n3 < 1000 then Alcotest.failf "only %d and %d in TIME_WAIT" n1 n3;
  List.iter
    (fun (t, l, n) ->
      let per_conn = float_of_int (l - drained) /. float_of_int n in
      if per_conn > 100.0 then
        Alcotest.failf "%.1f live words per TIME_WAIT connection at %.1f s (%d of them)"
          per_conn t n)
    [ (0.1, l1, n1); (0.3, l3, n3) ];
  if Float.abs (float_of_int (l3 - l1)) > 0.1 *. float_of_int l1 then
    Alcotest.failf "live words grew from %d at 0.1 s to %d at 0.3 s" l1 l3;
  ignore (Sys.opaque_identity (Nkapps.Loadgen.results lg))

let tests =
  [
    Alcotest.test_case "loadgen completes exactly" `Quick loadgen_completes_exactly;
    Alcotest.test_case "server/client counters agree" `Quick server_counts_match;
    Alcotest.test_case "HTTP end to end" `Quick http_end_to_end;
    Alcotest.test_case "open-loop rate" `Quick open_loop_rate;
    Alcotest.test_case "paced stream" `Quick paced_stream;
    Alcotest.test_case "kv store over baseline" `Quick kvstore_baseline;
    Alcotest.test_case "connection churn keeps pending bounded" `Quick churn_pending_bounded;
    Alcotest.test_case "connection churn keeps memory bounded" `Quick churn_memory_bounded;
  ]
