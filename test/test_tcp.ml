(* Integration tests of the TCP stack over the simulated fabric. *)

open Tcpstack
module E = Sim.Engine

let ip_a = 1
let ip_b = 2

let check_ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" name (Types.err_to_string e)

let handshake_and_echo () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"client" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"server" ~ip:ip_b in
  let server_addr = Addr.make ip_b 80 in
  let got_request = ref "" and got_reply = ref "" and server_done = ref false in
  (* Server *)
  let ls = check_ok "socket" (b.World.api.Socket_api.socket ()) in
  check_ok "bind" (b.World.api.Socket_api.bind ls server_addr);
  check_ok "listen" (b.World.api.Socket_api.listen ls ~backlog:16);
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, peer = check_ok "accept" r in
      Alcotest.(check int) "peer ip" ip_a peer.Addr.ip;
      World.recv_retry w b.World.api fd ~max:4096 ~mode:`Copy ~k:(fun r ->
          match check_ok "server recv" r with
          | Types.Data s ->
              got_request := s;
              World.send_all w b.World.api fd (Types.Data "world!") ~k:(fun r ->
                  check_ok "server send" r;
                  b.World.api.Socket_api.close fd;
                  server_done := true)
          | Types.Zeros _ -> Alcotest.fail "expected real data"));
  (* Client *)
  let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect cs server_addr ~k:(fun r ->
      check_ok "connect" r;
      World.send_all w a.World.api cs (Types.Data "hello") ~k:(fun r ->
          check_ok "client send" r;
          World.recv_retry w a.World.api cs ~max:4096 ~mode:`Copy ~k:(fun r ->
              match check_ok "client recv" r with
              | Types.Data s -> got_reply := s
              | Types.Zeros _ -> Alcotest.fail "expected real data")));
  World.run w ~until:5.0;
  Alcotest.(check string) "request" "hello" !got_request;
  Alcotest.(check string) "reply" "world!" !got_reply;
  Alcotest.(check bool) "server finished" true !server_done

let bulk_transfer () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"sender" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"receiver" ~ip:ip_b in
  let server_addr = Addr.make ip_b 5001 in
  let total = 64 * 1024 * 1024 in
  let received = ref 0 and eof = ref false and t_start = ref 0.0 and t_end = ref 0.0 in
  let ls = check_ok "socket" (b.World.api.Socket_api.socket ()) in
  check_ok "bind" (b.World.api.Socket_api.bind ls server_addr);
  check_ok "listen" (b.World.api.Socket_api.listen ls ~backlog:16);
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, _ = check_ok "accept" r in
      t_start := E.now w.World.engine;
      let rec loop () =
        World.recv_retry w b.World.api fd ~max:(1 lsl 20) ~mode:`Discard ~k:(fun r ->
            match check_ok "recv" r with
            | Types.Zeros 0 | Types.Data "" ->
                eof := true;
                t_end := E.now w.World.engine
            | Types.Zeros n ->
                received := !received + n;
                loop ()
            | Types.Data s ->
                received := !received + String.length s;
                loop ())
      in
      loop ());
  let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect cs server_addr ~k:(fun r ->
      check_ok "connect" r;
      let remaining = ref total in
      let rec pump () =
        if !remaining > 0 then begin
          let chunk = Int.min !remaining (1 lsl 20) in
          World.send_all w a.World.api cs (Types.Zeros chunk) ~k:(fun r ->
              check_ok "send" r;
              remaining := !remaining - chunk;
              pump ())
        end
        else a.World.api.Socket_api.close cs
      in
      pump ());
  World.run w ~until:60.0;
  Alcotest.(check bool) "eof seen" true !eof;
  Alcotest.(check int) "all bytes received" total !received;
  let gbps = Nkutil.Units.gbps_of_bytes ~bytes:total ~seconds:(!t_end -. !t_start) in
  if gbps < 1.0 || gbps > 200.0 then Alcotest.failf "implausible throughput %.2f Gbps" gbps

let connect_refused () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"client" ~ip:ip_a in
  let _b = World.add_endpoint w ~name:"server" ~ip:ip_b in
  let result = ref None in
  let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect cs (Addr.make ip_b 81) ~k:(fun r -> result := Some r);
  World.run w ~until:5.0;
  match !result with
  | Some (Error Types.Econnrefused) -> ()
  | Some (Error e) -> Alcotest.failf "expected ECONNREFUSED, got %s" (Types.err_to_string e)
  | Some (Ok ()) -> Alcotest.fail "connect unexpectedly succeeded"
  | None -> Alcotest.fail "connect never completed"

let checksum s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let lossy_link_integrity () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"sender" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"receiver" ~ip:ip_b in
  (* 2% random loss on the path towards the receiver. *)
  (match Fabric.port_to w.World.fabric b.World.nic with
  | Some link -> Link.set_random_loss link ~rng:(Nkutil.Rng.create ~seed:7) ~rate:0.02
  | None -> Alcotest.fail "no downlink");
  let server_addr = Addr.make ip_b 5002 in
  let total = 2 * 1024 * 1024 in
  let payload =
    String.init total (fun i -> Char.chr ((i * 131) land 0xff))
  in
  let received = Buffer.create total in
  let eof = ref false in
  let ls = check_ok "socket" (b.World.api.Socket_api.socket ()) in
  check_ok "bind" (b.World.api.Socket_api.bind ls server_addr);
  check_ok "listen" (b.World.api.Socket_api.listen ls ~backlog:16);
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, _ = check_ok "accept" r in
      let rec loop () =
        World.recv_retry w b.World.api fd ~max:65536 ~mode:`Copy ~k:(fun r ->
            match check_ok "recv" r with
            | Types.Data "" -> eof := true
            | Types.Data s ->
                Buffer.add_string received s;
                loop ()
            | Types.Zeros _ -> Alcotest.fail "expected real data")
      in
      loop ());
  let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect cs server_addr ~k:(fun r ->
      check_ok "connect" r;
      World.send_all w a.World.api cs (Types.Data payload) ~k:(fun r ->
          check_ok "send" r;
          a.World.api.Socket_api.close cs));
  World.run w ~until:120.0;
  Alcotest.(check bool) "eof" true !eof;
  Alcotest.(check int) "length" total (Buffer.length received);
  Alcotest.(check int) "content checksum" (checksum payload)
    (checksum (Buffer.contents received));
  let stats = Stack.stats a.World.stack in
  if stats.Stack.segs_tx = 0 then Alcotest.fail "sender sent nothing"

let backlog_overflow_recovers () =
  let w = World.create () in
  let a = World.add_endpoint w ~name:"clients" ~ip:ip_a ~profile:Sim.Cost_profile.ideal in
  let b = World.add_endpoint w ~name:"server" ~ip:ip_b in
  let server_addr = Addr.make ip_b 80 in
  (* 8 simultaneous SYNs against a backlog of 4: half get dropped and must
     retransmit after the 1 s SYN timeout; all connect eventually. *)
  let n_clients = 8 in
  let connected = ref 0 in
  let ls = check_ok "socket" (b.World.api.Socket_api.socket ()) in
  check_ok "bind" (b.World.api.Socket_api.bind ls server_addr);
  check_ok "listen" (b.World.api.Socket_api.listen ls ~backlog:4);
  let rec accept_loop () =
    b.World.api.Socket_api.accept ls ~k:(fun r ->
        ignore (check_ok "accept" r);
        accept_loop ())
  in
  accept_loop ();
  for _ = 1 to n_clients do
    let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
    a.World.api.Socket_api.connect cs server_addr ~k:(fun r ->
        match r with
        | Ok () -> incr connected
        | Error e -> Alcotest.failf "client connect failed: %s" (Types.err_to_string e))
  done;
  World.run w ~until:30.0;
  let stats = Stack.stats b.World.stack in
  Alcotest.(check int) "all clients eventually connected" n_clients !connected;
  if stats.Stack.syn_drops = 0 then Alcotest.fail "expected SYN drops with backlog 4"

let fin_both_ways () =
  (* Server sends a farewell and closes; client reads the data, then EOF,
     then closes. No RSTs should be emitted on a graceful shutdown. *)
  let w = World.create () in
  let a = World.add_endpoint w ~name:"client" ~ip:ip_a in
  let b = World.add_endpoint w ~name:"server" ~ip:ip_b in
  let server_addr = Addr.make ip_b 80 in
  let client_data = ref "" and client_eof = ref false in
  let ls = check_ok "socket" (b.World.api.Socket_api.socket ()) in
  check_ok "bind" (b.World.api.Socket_api.bind ls server_addr);
  check_ok "listen" (b.World.api.Socket_api.listen ls ~backlog:16);
  b.World.api.Socket_api.accept ls ~k:(fun r ->
      let fd, _ = check_ok "accept" r in
      World.send_all w b.World.api fd (Types.Data "bye") ~k:(fun r ->
          check_ok "server send" r;
          b.World.api.Socket_api.close fd));
  let cs = check_ok "socket" (a.World.api.Socket_api.socket ()) in
  a.World.api.Socket_api.connect cs server_addr ~k:(fun r ->
      check_ok "connect" r;
      World.recv_retry w a.World.api cs ~max:64 ~mode:`Copy ~k:(fun r ->
          match check_ok "client recv data" r with
          | Types.Data s ->
              client_data := s;
              World.recv_retry w a.World.api cs ~max:64 ~mode:`Copy ~k:(fun r ->
                  match check_ok "client recv eof" r with
                  | Types.Data "" ->
                      client_eof := true;
                      a.World.api.Socket_api.close cs
                  | Types.Data _ | Types.Zeros _ -> Alcotest.fail "expected EOF")
          | Types.Zeros _ -> Alcotest.fail "expected real data"));
  World.run w ~until:10.0;
  Alcotest.(check string) "farewell delivered" "bye" !client_data;
  Alcotest.(check bool) "client saw EOF" true !client_eof;
  Alcotest.(check int) "no RSTs from server" 0 (Stack.stats b.World.stack).Stack.rst_tx;
  Alcotest.(check int) "no RSTs from client" 0 (Stack.stats a.World.stack).Stack.rst_tx

let tests =
  [
    Alcotest.test_case "handshake and echo" `Quick handshake_and_echo;
    Alcotest.test_case "bulk 64MB transfer" `Quick bulk_transfer;
    Alcotest.test_case "connect refused" `Quick connect_refused;
    Alcotest.test_case "integrity under 2% loss" `Quick lossy_link_integrity;
    Alcotest.test_case "backlog overflow recovers via SYN retx" `Quick
      backlog_overflow_recovers;
    Alcotest.test_case "FIN both ways" `Quick fin_both_ways;
  ]
