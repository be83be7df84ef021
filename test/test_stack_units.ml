(* Stack-level unit tests: binding, port allocation, listener lifecycle,
   RST behaviour, zero-window persist probing, TIME_WAIT. *)

open Tcpstack
module E = Sim.Engine

let ip_a = 1
let ip_b = 2

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Types.err_to_string e)

let bind_conflicts () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let s1 = ok "socket" (a.World.api.Socket_api.socket ()) in
  ok "bind" (a.World.api.Socket_api.bind s1 (Addr.make ip_a 80));
  ok "listen" (a.World.api.Socket_api.listen s1 ~backlog:8);
  let s2 = ok "socket" (a.World.api.Socket_api.socket ()) in
  (match a.World.api.Socket_api.bind s2 (Addr.make ip_a 80) with
  | Error Types.Eaddrinuse -> ()
  | Error e -> Alcotest.failf "expected EADDRINUSE, got %s" (Types.err_to_string e)
  | Ok () -> (
      (* bind may record lazily; the listen must then fail *)
      match a.World.api.Socket_api.listen s2 ~backlog:8 with
      | Error Types.Eaddrinuse -> ()
      | Error e -> Alcotest.failf "expected EADDRINUSE at listen, got %s" (Types.err_to_string e)
      | Ok () -> Alcotest.fail "two listeners on one endpoint"));
  (* a different port is fine *)
  let s3 = ok "socket" (a.World.api.Socket_api.socket ()) in
  ok "bind other port" (a.World.api.Socket_api.bind s3 (Addr.make ip_a 81));
  ok "listen other port" (a.World.api.Socket_api.listen s3 ~backlog:8)

let listener_close_fails_waiters () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let ls = ok "socket" (a.World.api.Socket_api.socket ()) in
  ok "bind" (a.World.api.Socket_api.bind ls (Addr.make ip_a 80));
  ok "listen" (a.World.api.Socket_api.listen ls ~backlog:8);
  let result = ref None in
  a.World.api.Socket_api.accept ls ~k:(fun r -> result := Some r);
  a.World.api.Socket_api.close ls;
  World.run w ~until:0.1;
  match !result with
  | Some (Error Types.Eclosed) -> ()
  | Some (Error e) -> Alcotest.failf "expected ECLOSED, got %s" (Types.err_to_string e)
  | Some (Ok _) -> Alcotest.fail "accept succeeded on a closed listener"
  | None -> Alcotest.fail "accept waiter never failed"

let rst_for_unknown_flow () =
  let w = World.create () in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b in
  (* A stray non-SYN segment to a port with no connection gets an RST. *)
  let stray =
    Segment.make
      ~flow:(Addr.Flow.make ~src:(Addr.make ip_a 5555) ~dst:(Addr.make ip_b 4242)) ~seq:1000
      ~ack:0 ~syn:false ~ack_flag:true ~fin:false ~rst:false ~window:0 ~len:100 ~ts:0.0
      ~ts_echo:(-1.0)
  in
  Stack.input b.World.stack stray;
  World.run w ~until:0.1;
  Alcotest.(check int) "RST emitted" 1 (Stack.stats b.World.stack).Stack.rst_tx

let ephemeral_ports_recycle () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"client" ~ip:ip_a ~profile:Sim.Cost_profile.ideal in
  let b = World.add_endpoint w ~name:"server" ~ip:ip_b ~profile:Sim.Cost_profile.ideal in
  let ls = ok "socket" (b.World.api.Socket_api.socket ()) in
  ok "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  ok "listen" (b.World.api.Socket_api.listen ls ~backlog:64);
  let rec accept_loop () =
    b.World.api.Socket_api.accept ls ~k:(fun r ->
        match r with
        | Error _ -> ()
        | Ok (fd, _) ->
            b.World.api.Socket_api.close fd;
            accept_loop ())
  in
  accept_loop ();
  (* Far more sequential connections than a single ip could hold open at
     once: ports must be recycled after TIME_WAIT-free client closes. *)
  let completed = ref 0 in
  let total = 2000 in
  let rec one () =
    if !completed < total then begin
      let fd = ok "socket" (a.World.api.Socket_api.socket ()) in
      a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
          ok "connect" r;
          a.World.api.Socket_api.close fd;
          incr completed;
          ignore (E.schedule w.World.engine ~delay:1e-5 one))
    end
  in
  one ();
  World.run w ~until:60.0;
  Alcotest.(check int) "all sequential connects succeeded" total !completed

let zero_window_persist () =
  (* The receiver never reads: the sender must fill the 256KB window, stall,
     and keep the connection alive with persist probes rather than dying. *)
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a ~profile:Sim.Cost_profile.ideal in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b ~profile:Sim.Cost_profile.ideal in
  let ls = ok "socket" (b.World.api.Socket_api.socket ()) in
  ok "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  ok "listen" (b.World.api.Socket_api.listen ls ~backlog:8);
  b.World.api.Socket_api.accept ls ~k:(fun r -> ignore (ok "accept" r));
  let sent = ref 0 and still_alive = ref false in
  let fd = ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
      ok "connect" r;
      let rec pump () =
        a.World.api.Socket_api.send fd (Types.Zeros 65536) ~k:(fun r ->
            match r with
            | Ok n ->
                sent := !sent + n;
                pump ()
            | Error Types.Eagain ->
                (* buffer full; try again much later *)
                ignore (E.schedule w.World.engine ~delay:0.5 pump)
            | Error e -> Alcotest.failf "send: %s" (Types.err_to_string e))
      in
      pump ();
      (* After several persist periods the connection must still work. *)
      ignore
        (E.schedule w.World.engine ~delay:4.0 (fun () ->
             a.World.api.Socket_api.send fd (Types.Zeros 1) ~k:(fun r ->
                 match r with
                 | Ok _ | Error Types.Eagain -> still_alive := true
                 | Error e -> Alcotest.failf "conn died: %s" (Types.err_to_string e)))));
  World.run w ~until:5.0;
  (* Exactly one receive window plus the sender's buffered backlog was
     accepted; nothing more can leave. *)
  if !sent < 256 * 1024 then Alcotest.failf "window never filled: %d" !sent;
  Alcotest.(check bool) "alive after persist probing" true !still_alive

let events_snapshot () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"a" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"b" ~ip:ip_b in
  let ls = ok "socket" (b.World.api.Socket_api.socket ()) in
  ok "bind" (b.World.api.Socket_api.bind ls (Addr.make ip_b 80));
  ok "listen" (b.World.api.Socket_api.listen ls ~backlog:8);
  let server_fd = ref None in
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, _ = ok "accept" r in
      server_fd := Some fd);
  let fd = ok "socket" (a.World.api.Socket_api.socket ()) in
  let ep = a.World.api.Socket_api.epoll_create () in
  a.World.api.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
      ok "connect" r;
      a.World.api.Socket_api.epoll_add ep fd
        ~mask:{ Types.readable = true; writable = true; hup = true });
  let got = ref [] in
  ignore
    (E.schedule w.World.engine ~delay:0.1 (fun () ->
         a.World.api.Socket_api.epoll_wait ep ~timeout:1.0 ~k:(fun evs -> got := evs)));
  World.run w ~until:2.0;
  match !got with
  | [ (efd, ev) ] ->
      Alcotest.(check int) "right fd" fd efd;
      Alcotest.(check bool) "writable after connect" true ev.Types.writable;
      Alcotest.(check bool) "not readable yet" false ev.Types.readable
  | other -> Alcotest.failf "expected one event, got %d" (List.length other)

(* ---- epoll ready order ------------------------------------------------- *)

(* One epoll table over sixteen sockets whose readability the test sets by
   hand, so the order in which they become ready is the test's to choose. *)
let fake_epoll () =
  let engine = E.create () in
  let core = Sim.Cpu.create engine ~name:"app" () in
  let readable = Array.make 16 false in
  let yes = { Types.readable = true; writable = false; hup = false } in
  let events_of fd = if readable.(fd) then yes else Types.no_events in
  let tbl =
    Epoll_core.create ~engine ~events_of ~core_of:(fun _ -> core) ~wake_cycles:100.0
  in
  let ep = Epoll_core.epoll_create tbl () in
  (engine, tbl, ep, readable)

let read_mask = { Types.readable = true; writable = false; hup = true }

let epoll_ready_ascending () =
  let engine, tbl, ep, readable = fake_epoll () in
  let fds = [ 3; 4; 5; 7; 9; 11; 12; 14 ] in
  List.iter (fun fd -> Epoll_core.epoll_add tbl ep fd ~mask:read_mask) fds;
  let make_readable fd =
    readable.(fd) <- true;
    Epoll_core.notify tbl fd
  in
  List.iter make_readable (List.rev fds);
  (* Already ready: notified again, still listed once. *)
  make_readable 12;
  make_readable 3;
  (* Read dry: 9 is notified, 5 is not; neither may be listed. *)
  readable.(9) <- false;
  Epoll_core.notify tbl 9;
  readable.(5) <- false;
  let wait () =
    let got = ref [] in
    Epoll_core.epoll_wait tbl ep ~timeout:1.0 ~k:(fun evs -> got := List.map fst evs);
    E.run engine;
    !got
  in
  Alcotest.(check (list int)) "ascending, each once, none read dry" [ 3; 4; 7; 11; 12; 14 ]
    (wait ());
  (* Readable again, and a socket that leaves the instance. *)
  make_readable 9;
  Epoll_core.epoll_del tbl ep 4;
  Alcotest.(check (list int)) "back in order" [ 3; 7; 9; 11; 12; 14 ] (wait ())

(* One epoll_wait that finds eight sockets ready and its wake: the ready
   array is walked in place, so it allocates the returned list and the
   wake's closure, 57 words (301 when each wait sorted a snapshot of a
   ready hashtable and copied every event through its mask). *)
let epoll_wait_words () =
  let engine, tbl, ep, readable = fake_epoll () in
  for fd = 3 to 10 do
    Epoll_core.epoll_add tbl ep fd ~mask:read_mask;
    readable.(fd) <- true;
    Epoll_core.notify tbl fd
  done;
  let n = ref 0 in
  let k evs = n := List.length evs in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Epoll_core.epoll_wait tbl ep ~timeout:1.0 ~k;
    ignore (E.step engine)
  done;
  let words = (Gc.minor_words () -. w0) /. 1_000.0 in
  Alcotest.(check int) "eight ready" 8 !n;
  if words > 64.0 then Alcotest.failf "%.1f minor words per epoll_wait, want <= 64" words

(* ---- TIME_WAIT ---------------------------------------------------------- *)

(* The segments one NIC hands to its host, newest first. With [pass] off
   they go to [held] instead. *)
type tap = { mutable log : Segment.t list; mutable held : Segment.t list; mutable pass : bool }

let tap (e : World.endpoint) =
  let t = { log = []; held = []; pass = true } in
  Nic.set_rx_handler e.World.nic (fun seg ->
      if t.pass then begin
        t.log <- seg :: t.log;
        Vswitch.input e.World.vswitch seg
      end
      else t.held <- seg :: t.held);
  t

type tw_world = {
  w : World.t;
  mon : Nkmon.t;
  cli : World.endpoint;
  srv : World.endpoint;
  at_cli : tap; (* what the client receives *)
  at_srv : tap;
  accepted : Socket_api.sock list ref; (* newest first *)
}

(* The client's only ephemeral port. *)
let tw_port = 40000

let now tw = E.now tw.w.World.engine

let run_for tw d = World.run tw.w ~until:(now tw +. d)

(* A traced client and server. The client connects from [tw_port] to
   port 80, sends 64 B and reads the 64 B answer (unless [cli_reads] is
   false); then each side closes at its given time. *)
let tw_world ?(cli_reads = true) ~cli_close ~srv_close () =
  let w = World.create () in
  let mon = Nkmon.create ~trace_enabled:true ~now:(fun () -> E.now w.World.engine) () in
  let config =
    {
      (Stack.default_config Sim.Cost_profile.linux_kernel) with
      Stack.ephemeral_range = (tw_port, tw_port);
    }
  in
  let cli = World.add_endpoint w ~name:"cli" ~ip:ip_a ~config ~mon in
  let srv = World.add_endpoint w ~name:"srv" ~ip:ip_b ~mon in
  let tw = { w; mon; cli; srv; at_cli = tap cli; at_srv = tap srv; accepted = ref [] } in
  let capi = cli.World.api and sapi = srv.World.api in
  let at t f = ignore (E.schedule_at w.World.engine ~at:t f) in
  let ls = ok "socket" (sapi.Socket_api.socket ()) in
  ok "bind" (sapi.Socket_api.bind ls (Addr.make ip_b 80));
  ok "listen" (sapi.Socket_api.listen ls ~backlog:8);
  let rec accept_loop () =
    sapi.Socket_api.accept ls ~k:(fun r ->
        let fd, _ = ok "accept" r in
        if !(tw.accepted) = [] then begin
          World.recv_retry w sapi fd ~max:64 ~mode:`Copy ~k:(fun r ->
              Alcotest.(check int) "request" 64 (Types.payload_len (ok "recv" r));
              World.send_all w sapi fd (Types.Zeros 64) ~k:(ok "answer"));
          at srv_close (fun () -> sapi.Socket_api.close fd)
        end;
        tw.accepted := fd :: !(tw.accepted);
        accept_loop ())
  in
  accept_loop ();
  let fd = ok "socket" (capi.Socket_api.socket ()) in
  capi.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun r ->
      ok "connect" r;
      World.send_all w capi fd (Types.Zeros 64) ~k:(fun r ->
          ok "request" r;
          if cli_reads then
            World.recv_retry w capi fd ~max:64 ~mode:`Copy ~k:(fun r ->
                Alcotest.(check int) "answer" 64 (Types.payload_len (ok "recv" r)))));
  at cli_close (fun () -> capi.Socket_api.close fd);
  World.run w ~until:10e-3;
  tw

(* [stack]'s Tcp_state transitions: (time, sock, old, new), oldest first. *)
let transitions tw stack =
  List.filter_map
    (fun (r : Nkmon.Trace.record) ->
      match r.Nkmon.Trace.event with
      | Nkmon.Trace.Tcp_state { stack = st; sock; old_state; new_state } when st = stack ->
          Some (r.Nkmon.Trace.time, sock, old_state, new_state)
      | _ -> None)
    (Nkmon.Trace.records (Nkmon.trace tw.mon))

(* When [stack]'s first connection entered TIME_WAIT, and when it left
   for CLOSED if it has. *)
let time_wait_span tw stack =
  let ts = transitions tw stack in
  match List.find_opt (fun (_, _, _, n) -> n = "TIME_WAIT") ts with
  | None -> Alcotest.failf "%s: no connection in TIME_WAIT" stack
  | Some (entry, sock, _, _) ->
      ( entry,
        List.find_map
          (fun (t, s, o, n) -> if s = sock && o = "TIME_WAIT" && n = "CLOSED" then Some t else None)
          ts )

(* [x] is in TIME_WAIT. Deliver the last FIN it received once more, past
   its tap: the answer is one pure ACK with the seq, ack and window of the
   last segment [x] sent, echoing the newest timestamp [x] received.
   [to_peer] holds it back, so that a closed peer does not answer with a
   reset. *)
let check_re_ack tw ~(x : World.endpoint) ~at_x ~to_peer =
  let newest_ts = List.fold_left (fun m s -> Float.max m s.Segment.ts) (-1.0) at_x.log in
  let fin =
    match List.find_opt (fun s -> s.Segment.fin) at_x.log with
    | Some s -> s
    | None -> Alcotest.fail "no FIN received"
  in
  let last = match to_peer.log with s :: _ -> s | [] -> Alcotest.fail "nothing sent" in
  to_peer.held <- [];
  to_peer.pass <- false;
  Vswitch.input x.World.vswitch fin;
  run_for tw 1e-3;
  to_peer.pass <- true;
  match to_peer.held with
  | [ re ] ->
      let open Segment in
      Alcotest.(check bool) "a pure ACK" true
        (re.ack_flag && re.len = 0 && not (re.syn || re.fin || re.rst));
      Alcotest.(check int) "seq" last.seq re.seq;
      Alcotest.(check int) "ack" last.ack re.ack;
      Alcotest.(check int) "window" last.window re.window;
      Alcotest.(check (float 0.0)) "ts_echo" newest_ts re.ts_echo
  | held -> Alcotest.failf "expected one re-ACK, got %d segments" (List.length held)

(* Connect from the client's only ephemeral port, by port allocation or
   bound to it. The result lands in the cell; [None] while pending. *)
let connect_from_port tw ~bound =
  let capi = tw.cli.World.api in
  let fd = ok "socket" (capi.Socket_api.socket ()) in
  if bound then ok "bind" (capi.Socket_api.bind fd (Addr.make ip_a tw_port));
  let r = ref None in
  capi.Socket_api.connect fd (Addr.make ip_b 80) ~k:(fun x -> r := Some x);
  r

let check_connect what expect r =
  let show = function
    | None -> "pending"
    | Some (Ok ()) -> "connected"
    | Some (Error e) -> Types.err_to_string e
  in
  Alcotest.(check string) what expect (show !r)

(* The client closes first and holds the TIME_WAIT: it re-ACKs a
   retransmitted FIN, keeps its port until the entry expires 50 ms after
   it began, and frees it then. With the answer left unread the same
   holds, for a TIME_WAIT whose TCB still has bytes to give. *)
let time_wait_client_first ~cli_reads () =
  let tw = tw_world ~cli_reads ~cli_close:5e-3 ~srv_close:6e-3 () in
  let entry, left = time_wait_span tw "cli" in
  Alcotest.(check (option (float 0.0))) "still in TIME_WAIT" None left;
  check_re_ack tw ~x:tw.cli ~at_x:tw.at_cli ~to_peer:tw.at_srv;
  check_connect "allocated port" "EADDRINUSE" (connect_from_port tw ~bound:false);
  check_connect "bound port" "EADDRINUSE" (connect_from_port tw ~bound:true);
  World.run tw.w ~until:(entry +. 0.05 +. 1e-3);
  let _, left = time_wait_span tw "cli" in
  Alcotest.(check (option (float 1e-12))) "CLOSED at entry + 50 ms" (Some (entry +. 0.05)) left;
  let r = connect_from_port tw ~bound:true in
  run_for tw 1e-3;
  check_connect "port free after expiry" "connected" r

(* The server closes first and holds the TIME_WAIT: it re-ACKs a
   retransmitted FIN, and a fresh SYN on the same 4-tuple replaces the
   entry at once and is accepted. *)
let time_wait_server_first () =
  let tw = tw_world ~cli_close:6e-3 ~srv_close:5e-3 () in
  check_re_ack tw ~x:tw.srv ~at_x:tw.at_srv ~to_peer:tw.at_cli;
  let entry, _ = time_wait_span tw "srv" in
  let r = connect_from_port tw ~bound:false in
  run_for tw 1e-3;
  check_connect "same 4-tuple" "connected" r;
  Alcotest.(check int) "accepted again" 2 (List.length !(tw.accepted));
  match time_wait_span tw "srv" with
  | _, Some t when t < entry +. 0.05 -> ()
  | _ -> Alcotest.fail "the SYN did not end the TIME_WAIT entry"

(* Both sides close at once, pass through CLOSING and both hold a
   TIME_WAIT, each entered on an ACK after which the peer's timestamp is
   still taken. An RST ends the client's entry at once and frees its port;
   the server's entry accepts the SYN that reuses the 4-tuple. *)
let time_wait_simultaneous () =
  let tw = tw_world ~cli_close:5e-3 ~srv_close:5e-3 () in
  List.iter
    (fun stack ->
      if not (List.exists (fun (_, _, _, n) -> n = "CLOSING") (transitions tw stack)) then
        Alcotest.failf "%s never passed through CLOSING" stack)
    [ "cli"; "srv" ];
  check_re_ack tw ~x:tw.cli ~at_x:tw.at_cli ~to_peer:tw.at_srv;
  check_re_ack tw ~x:tw.srv ~at_x:tw.at_srv ~to_peer:tw.at_cli;
  let c_entry, _ = time_wait_span tw "cli" and s_entry, _ = time_wait_span tw "srv" in
  let rst =
    Segment.make
      ~flow:(Addr.Flow.make ~src:(Addr.make ip_b 80) ~dst:(Addr.make ip_a tw_port)) ~seq:0
      ~ack:0 ~syn:false ~ack_flag:false ~fin:false ~rst:true ~window:0 ~len:0 ~ts:0.0
      ~ts_echo:(-1.0)
  in
  Vswitch.input tw.cli.World.vswitch rst;
  run_for tw 1e-3;
  (match time_wait_span tw "cli" with
  | _, Some t when t < c_entry +. 0.05 -> ()
  | _ -> Alcotest.fail "the RST did not end the client's TIME_WAIT entry");
  let r = connect_from_port tw ~bound:false in
  run_for tw 1e-3;
  check_connect "same 4-tuple" "connected" r;
  Alcotest.(check int) "accepted again" 2 (List.length !(tw.accepted));
  match time_wait_span tw "srv" with
  | _, Some t when t < s_entry +. 0.05 -> ()
  | _ -> Alcotest.fail "the SYN did not end the server's TIME_WAIT entry"

let tests =
  [
    Alcotest.test_case "bind conflicts" `Quick bind_conflicts;
    Alcotest.test_case "listener close fails waiters" `Quick listener_close_fails_waiters;
    Alcotest.test_case "RST for unknown flow" `Quick rst_for_unknown_flow;
    Alcotest.test_case "ephemeral ports recycle" `Quick ephemeral_ports_recycle;
    Alcotest.test_case "zero-window persist" `Quick zero_window_persist;
    Alcotest.test_case "epoll events snapshot" `Quick events_snapshot;
    Alcotest.test_case "epoll lists ready fds in ascending order" `Quick
      epoll_ready_ascending;
    Alcotest.test_case "epoll_wait over 8 ready sockets allocates <= 64 words" `Quick
      epoll_wait_words;
    Alcotest.test_case "TIME_WAIT: client closes first" `Quick
      (time_wait_client_first ~cli_reads:true);
    Alcotest.test_case "TIME_WAIT: client closes first, answer unread" `Quick
      (time_wait_client_first ~cli_reads:false);
    Alcotest.test_case "TIME_WAIT: server closes first" `Quick time_wait_server_first;
    Alcotest.test_case "TIME_WAIT: simultaneous close" `Quick time_wait_simultaneous;
  ]
