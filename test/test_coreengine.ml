(* CoreEngine and NK-device unit tests: registration, switching, queue
   selection, connection-table lifecycle, rate limiting at NQE level. *)

open Nkcore
module E = Sim.Engine
module Ring = Nqe_ring

let mk_world () =
  let engine = E.create () in
  let core = Sim.Cpu.create engine ~name:"ce" () in
  let ce = Coreengine.create ~engine ~cores:[| core |] Nk_costs.default in
  (engine, ce)

let mk_device ~id ~role ~qsets =
  Nk_device.create ~id ~role ~qsets
    ~hugepages:(Hugepages.create ~page_size:4096 ~pages:4 ())
    ()

let encode op ~vm_id ~qset ~sock ?(size = 0) () =
  Nqe_codec.encode (Nqe_codec.make ~op ~vm_id ~qset ~sock ~size ())

(* A slot to pop an NQE into. *)
let slot () = Bytes.create Nqe.size_bytes

let vm_to_nsm_switching () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:2 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  let woken = ref [] in
  Nk_device.set_kick_owner nsm (fun q -> woken := q :: !woken);
  (* Control op goes to the NSM's job queue; data op to its send queue. *)
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:7 ()) 0;
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:7 ~size:100 ()) 0;
  E.run engine;
  Alcotest.(check int) "one table entry" 1 (Coreengine.conn_table_size ce);
  Alcotest.(check int) "two switched" 2 (Coreengine.stats ce).Coreengine.switched;
  (* Both NQEs of socket 7 must land in the same queue set. *)
  let qsets_with_job =
    List.filter
      (fun i -> Ring.length (Nk_device.qset nsm i).Queue_set.job > 0)
      [ 0; 1 ]
  in
  let qsets_with_send =
    List.filter
      (fun i -> Ring.length (Nk_device.qset nsm i).Queue_set.send > 0)
      [ 0; 1 ]
  in
  Alcotest.(check int) "job landed once" 1 (List.length qsets_with_job);
  Alcotest.(check bool) "same queue set for the connection" true
    (qsets_with_job = qsets_with_send);
  Alcotest.(check bool) "consumer woken" true (!woken <> [])

let nsm_to_vm_completion () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:2 ~role:Nk_device.Vm_side ~qsets:2 in
  let nsm = mk_device ~id:3 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:2 ~nsm_ids:[ 3 ];
  (* NSM announces an accepted connection (unassigned queue set) and then a
     data event for it. *)
  Nk_device.post nsm ~qset:0
    (Nqe_codec.encode
       (Nqe_codec.make ~op:Nqe.Ev_accept ~vm_id:2 ~qset:Nqe.qset_unassigned ~sock:11
          ~size:(Nqe.nsm_sock_bit lor 1) ()))
    0;
  E.run engine;
  Alcotest.(check int) "accept created a table entry" 1 (Coreengine.conn_table_size ce);
  let receive_total =
    Ring.length (Nk_device.qset vm 0).Queue_set.receive
    + Ring.length (Nk_device.qset vm 1).Queue_set.receive
  in
  Alcotest.(check int) "delivered on a receive queue" 1 receive_total;
  (* The delivered NQE's qset byte was completed by the CoreEngine. *)
  let raw0 = slot () and raw1 = slot () in
  let raw =
    match
      ( Ring.pop (Nk_device.qset vm 0).Queue_set.receive raw0 0,
        Ring.pop (Nk_device.qset vm 1).Queue_set.receive raw1 0 )
    with
    | true, false -> raw0
    | false, true -> raw1
    | _ -> Alcotest.fail "expected exactly one NQE"
  in
  match Nqe_codec.decode raw with
  | Ok d ->
      if d.Nqe_codec.qset >= 2 then Alcotest.failf "qset not completed: %d" d.Nqe_codec.qset
  | Error e -> Alcotest.fail e

let close_clears_table () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:9 ()) 0;
  E.run engine;
  Alcotest.(check int) "entry exists" 1 (Coreengine.conn_table_size ce);
  Nk_device.post vm ~qset:0 (encode Nqe.Close ~vm_id:1 ~qset:0 ~sock:9 ()) 0;
  E.run engine;
  Alcotest.(check int) "close removed the entry" 0 (Coreengine.conn_table_size ce)

let round_robin_across_nsms () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm1 = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  let nsm2 = mk_device ~id:2 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm1;
  Coreengine.register_nsm ce nsm2;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1; 2 ];
  for sock = 1 to 4 do
    Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock ()) 0
  done;
  E.run engine;
  let jobs d = Ring.length (Nk_device.qset d 0).Queue_set.job in
  Alcotest.(check int) "nsm1 got half" 2 (jobs nsm1);
  Alcotest.(check int) "nsm2 got half" 2 (jobs nsm2)

let rate_limit_defers_sends () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  (* 1000 B/s with a 1000 B burst: the first send passes, the second waits
     ~1 s for tokens. *)
  Coreengine.set_rate_limit ce ~vm_id:1 ~bytes_per_sec:1000.0 ~burst:1000.0;
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:5 ~size:1000 ()) 0;
  Nk_device.post vm ~qset:0 (encode Nqe.Send ~vm_id:1 ~qset:0 ~sock:5 ~size:1000 ()) 0;
  E.run engine ~until:0.5;
  Alcotest.(check int) "only first send through at 0.5s" 1
    (Ring.length (Nk_device.qset nsm 0).Queue_set.send);
  E.run engine ~until:2.0;
  Alcotest.(check int) "second released once tokens accrue" 2
    (Ring.length (Nk_device.qset nsm 0).Queue_set.send);
  Alcotest.(check bool) "deferral counted" true
    ((Coreengine.stats ce).Coreengine.rate_deferred >= 1)

let control_not_rate_limited () =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Coreengine.set_rate_limit ce ~vm_id:1 ~bytes_per_sec:1.0 ~burst:1.0;
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:5 ()) 0;
  E.run engine ~until:0.01;
  Alcotest.(check int) "control op passes a strangled bucket" 1
    (Ring.length (Nk_device.qset nsm 0).Queue_set.job)

let device_overflow_backpressure () =
  let dev =
    Nk_device.create ~id:1 ~role:Nk_device.Vm_side ~qsets:1 ~capacity:2
      ~hugepages:(Hugepages.create ~page_size:4096 ~pages:1 ())
      ()
  in
  for sock = 1 to 5 do
    Nk_device.post dev ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock ()) 0
  done;
  (* capacity 2, so three spill to the overflow; nothing is lost *)
  Alcotest.(check int) "pending counts ring + overflow" 5
    (Nk_device.outbound_pending dev ~qset:0);
  let s = Nk_device.qset dev 0 in
  ignore (Ring.pop s.Queue_set.job (slot ()) 0);
  ignore (Ring.pop s.Queue_set.job (slot ()) 0);
  Nk_device.flush_overflow dev;
  Alcotest.(check int) "overflow refills the ring" 2 (Ring.length s.Queue_set.job);
  Alcotest.(check int) "still nothing lost" 3 (Nk_device.outbound_pending dev ~qset:0)

let forget_vm_routes_edge_cases () =
  let engine = E.create () in
  let core = Sim.Cpu.create engine ~name:"ce" () in
  let mon = Nkmon.create ~trace_enabled:true ~now:(fun () -> E.now engine) () in
  let ce = Coreengine.create ~engine ~cores:[| core |] ~mon Nk_costs.default in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  Nk_device.post vm ~qset:0 (encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:7 ()) 0;
  E.run engine;
  Alcotest.(check int) "one route installed" 1 (Coreengine.conn_table_size ce);
  let traced () = Nkmon.Trace.recorded (Nkmon.trace mon) in
  let dump = Coreengine.dump_conn_table ce in
  let before = traced () in
  (* No routes match: both calls are complete no-ops — no drops, no table
     churn, and crucially no ctl trace event claiming an unwind happened. *)
  Alcotest.(check int) "wrong nsm drops nothing" 0
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:99);
  Alcotest.(check int) "unknown vm drops nothing" 0
    (Coreengine.forget_vm_routes ce ~vm_id:2 ~nsm_id:1);
  Alcotest.(check int) "no-op calls emit no trace events" before (traced ());
  Alcotest.(check string) "table untouched" dump (Coreengine.dump_conn_table ce);
  (* The real unwind fires once and is traced once... *)
  Alcotest.(check int) "matching call drops the route" 1
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:1);
  Alcotest.(check int) "table empty" 0 (Coreengine.conn_table_size ce);
  Alcotest.(check int) "one trace event" (before + 1) (traced ());
  (* ...and repeating it is idempotent, trace included. *)
  Alcotest.(check int) "double call is a no-op" 0
    (Coreengine.forget_vm_routes ce ~vm_id:1 ~nsm_id:1);
  Alcotest.(check int) "still one trace event" (before + 1) (traced ())


(* ---- the queue-set protocol (Queue_set / Nk_device) ---------------------- *)

(* Every op the codec knows, enumerated through the wire format itself: each
   opcode byte [Nqe.View.ok] accepts is one constructor. *)
let codec_ops () =
  List.filter_map
    (fun b ->
      let raw = Bytes.make Nqe.size_bytes '\000' in
      Bytes.set_uint8 raw 0 b;
      if Nqe.View.ok raw 0 then Some (Nqe.View.op raw 0) else None)
    (List.init 256 Fun.id)

(* The paper's split, written as a total match so a new op must take a
   side here before this test compiles. *)
let vm_to_nsm = function
  | Nqe.Socket | Nqe.Bind | Nqe.Listen | Nqe.Connect | Nqe.Send | Nqe.Recv_done | Nqe.Close
    ->
      true
  | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect | Nqe.Comp_send
  | Nqe.Comp_close | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof | Nqe.Ev_err ->
      false

let of_op_covers_every_op () =
  let ops = codec_ops () in
  Alcotest.(check int) "every constructor enumerated" 17 (List.length ops);
  List.iter
    (fun op ->
      let name = Nqe.op_to_string op in
      let ring = Queue_set.of_op op in
      if vm_to_nsm op then
        Alcotest.(check bool)
          (name ^ " rides job or send")
          true
          (ring = `Job || ring = `Send)
      else
        Alcotest.(check bool)
          (name ^ " rides completion or receive")
          true
          (ring = `Completion || ring = `Receive);
      let expected =
        match op with
        | Nqe.Send -> `Send
        | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof -> `Receive
        | Nqe.Ev_err -> `Completion
        | _ -> if vm_to_nsm op then `Job else `Completion
      in
      Alcotest.(check string)
        name (Queue_set.queue_name expected) (Queue_set.queue_name ring))
    ops

let hash_qset_in_range () =
  List.iter
    (fun qsets ->
      let dev = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets in
      let seen = Array.make qsets false in
      List.iter
        (fun key ->
          let q = Nk_device.hash_qset dev key in
          if q < 0 || q >= qsets then
            Alcotest.failf "key %d -> queue set %d of %d" key q qsets;
          seen.(q) <- true)
        (List.init 4096 Fun.id @ [ max_int; min_int; -1; Nqe.nsm_sock_bit lor 0x3FFFFF ]);
      Alcotest.(check bool)
        (Printf.sprintf "all %d queue sets reachable" qsets)
        true
        (Array.for_all Fun.id seen))
    [ 1; 2; 3; 4; 7; 8; 64 ]

(* Serve one queue set whose inbound rings hold [first] NQEs of [op1] and
   [second] of [op2], woken at t = 1 s; returns the applied NQEs as
   (apply time, op, busy cycles so far) in apply order. *)
let serve_bursts ~role ~op1 ~first ~op2 ~second =
  let engine = E.create () in
  let cores = Sim.Cpu.Set.create engine ~name:"owner" ~n:1 () in
  let dev = mk_device ~id:1 ~role ~qsets:1 in
  let applied = ref [] in
  Nk_device.serve dev ~cores ~component:"owner" (fun qset buf pos ->
      Alcotest.(check int) "queue-set index" 0 qset;
      let busy = Sim.Cpu.busy_cycles (Sim.Cpu.Set.core cores 0) in
      applied := (E.now engine, Nqe.View.op buf pos, busy) :: !applied);
  (* The second ring is filled first: the burst order must not follow push
     order across rings. *)
  for sock = 1 to second do
    ignore (Nk_device.push dev ~qset:0 (encode op2 ~vm_id:1 ~qset:0 ~sock ()) 0)
  done;
  for sock = 1 to first do
    ignore (Nk_device.push dev ~qset:0 (encode op1 ~vm_id:1 ~qset:0 ~sock ()) 0)
  done;
  Nk_device.wake dev engine ~qset:0 ~delay:1.0;
  E.run engine;
  List.rev !applied

(* Split applied NQEs into bursts: one burst's NQEs are applied together,
   in one [Cpu.exec] continuation. *)
let bursts applied =
  List.fold_left
    (fun acc ((t, _, _) as x) ->
      match acc with
      | ((t', _, _) :: _ as b) :: rest when t' = t -> (x :: b) :: rest
      | _ -> [ x ] :: acc)
    [] applied
  |> List.rev_map List.rev

let ops_of burst = List.map (fun (_, op, _) -> op) burst

let cycles_of burst = match burst with (_, _, c) :: _ -> c | [] -> nan

let nsm_serve_burst_budget () =
  let applied =
    serve_bursts ~role:Nk_device.Nsm_side ~op1:Nqe.Socket ~first:70 ~op2:Nqe.Send ~second:30
  in
  match bursts applied with
  | [ b1; b2 ] ->
      Alcotest.(check int) "first burst" 64 (List.length b1);
      Alcotest.(check bool) "first burst is all jobs" true
        (List.for_all (fun op -> op = Nqe.Socket) (ops_of b1));
      Alcotest.(check int) "second burst" 36 (List.length b2);
      Alcotest.(check bool) "second burst: the last 6 jobs, then 30 sends" true
        (ops_of b2 = List.init 6 (fun _ -> Nqe.Socket) @ List.init 30 (fun _ -> Nqe.Send));
      let burst n = Nk_costs.service_poll +. (float_of_int n *. Nk_costs.nqe_decode) in
      Alcotest.(check (float 1e-6)) "first burst cycles" (burst 64) (cycles_of b1);
      Alcotest.(check (float 1e-6)) "second burst cycles" (burst 64 +. burst 36) (cycles_of b2)
  | bs -> Alcotest.failf "expected 2 bursts, got %d" (List.length bs)

let vm_serve_burst_budget () =
  let applied =
    serve_bursts ~role:Nk_device.Vm_side ~op1:Nqe.Comp_send ~first:100 ~op2:Nqe.Ev_data
      ~second:10
  in
  match bursts applied with
  | [ b1; b2 ] ->
      Alcotest.(check int) "first burst" 74 (List.length b1);
      Alcotest.(check bool) "64 completions, then the 10 receive events" true
        (ops_of b1
        = List.init 64 (fun _ -> Nqe.Comp_send) @ List.init 10 (fun _ -> Nqe.Ev_data));
      Alcotest.(check int) "second burst" 36 (List.length b2);
      Alcotest.(check bool) "second burst is the last 36 completions" true
        (List.for_all (fun op -> op = Nqe.Comp_send) (ops_of b2));
      (* Woken after a second idle, the first burst pays the interrupt
         (§4.6); the second follows at once and does not. *)
      let first =
        Nk_costs.guest_poll +. Nk_costs.guest_interrupt +. (74.0 *. Nk_costs.nqe_decode)
      in
      Alcotest.(check (float 1e-6)) "first burst cycles" first (cycles_of b1);
      Alcotest.(check (float 1e-6)) "second burst cycles"
        (first +. Nk_costs.guest_poll +. (36.0 *. Nk_costs.nqe_decode))
        (cycles_of b2)
  | bs -> Alcotest.failf "expected 2 bursts, got %d" (List.length bs)

let drain_first_ring_first () =
  let check ~role ~toward ops expected =
    let dev = mk_device ~id:1 ~role ~qsets:2 in
    List.iteri
      (fun sock op ->
        ignore (Nk_device.push dev ~qset:1 (encode op ~vm_id:1 ~qset:1 ~sock ()) 0))
      ops;
    let got = ref [] in
    Nk_device.drain dev ~qset:1 ~toward (fun buf pos -> got := Nqe.View.sock buf pos :: !got);
    Alcotest.(check (list int))
      "first ring emptied before the second" expected (List.rev !got);
    Alcotest.(check int) "rings empty" 0 (Queue_set.total_queued (Nk_device.qset dev 1))
  in
  check ~role:Nk_device.Nsm_side ~toward:`Nsm
    [ Nqe.Send; Nqe.Socket; Nqe.Send; Nqe.Close; Nqe.Connect ]
    [ 1; 3; 4; 0; 2 ];
  check ~role:Nk_device.Vm_side ~toward:`Vm
    [ Nqe.Ev_data; Nqe.Comp_send; Nqe.Ev_eof; Nqe.Comp_close ]
    [ 1; 3; 0; 2 ]

(* ---- the NQE trip ------------------------------------------------------- *)

(* Minor words one NQE allocates on its whole trip: posted pre-encoded on a
   VM device, switched by a one-shard CoreEngine, and served on the NSM
   device by a no-op apply. [burst] Sends on [burst] sockets are posted
   before the engine runs; the count is taken after a warm-up that grows
   every table, ring, scratch buffer and engine slab to size. *)
let words_per_trip ~burst =
  let engine, ce = mk_world () in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  let applied = ref 0 in
  Nk_device.serve nsm
    ~cores:(Sim.Cpu.Set.create engine ~name:"nsm" ~n:1 ())
    ~component:"nsm1" (fun _ _ _ -> incr applied);
  let nqes = Bytes.create (burst * Nqe.size_bytes) in
  for i = 0 to burst - 1 do
    Nqe_codec.encode_into
      (Nqe_codec.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:(i + 1) ~size:1024 ())
      nqes ~pos:(i * Nqe.size_bytes)
  done;
  let trip () =
    for i = 0 to burst - 1 do
      Nk_device.post vm ~qset:0 nqes (i * Nqe.size_bytes)
    done;
    E.run engine
  in
  for _ = 1 to 100 do
    trip ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    trip ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (1_000 * burst) in
  Alcotest.(check int) "every NQE applied" (1_100 * burst) !applied;
  words

let lone_nqe_trip_words () =
  let words = words_per_trip ~burst:1 in
  if words > 24.0 then Alcotest.failf "%.1f minor words per lone NQE trip, want <= 24" words

let burst_nqe_trip_words () =
  let words = words_per_trip ~burst:64 in
  if words > 6.0 then
    Alcotest.failf "%.1f minor words per NQE of a 64-NQE burst, want <= 6" words

let tests =
  [
    Alcotest.test_case "vm->nsm switching + queue pinning" `Quick vm_to_nsm_switching;
    Alcotest.test_case "nsm->vm accept completion" `Quick nsm_to_vm_completion;
    Alcotest.test_case "close clears the table" `Quick close_clears_table;
    Alcotest.test_case "round robin across NSMs" `Quick round_robin_across_nsms;
    Alcotest.test_case "rate limit defers sends" `Quick rate_limit_defers_sends;
    Alcotest.test_case "control ops bypass the bucket" `Quick control_not_rate_limited;
    Alcotest.test_case "device overflow backpressure" `Quick device_overflow_backpressure;
    Alcotest.test_case "forget_vm_routes edge cases" `Quick forget_vm_routes_edge_cases;
    Alcotest.test_case "of_op rides every op on its side" `Quick of_op_covers_every_op;
    Alcotest.test_case "hash_qset stays in range" `Quick hash_qset_in_range;
    Alcotest.test_case "NSM serve bursts 64 across job, send" `Quick nsm_serve_burst_budget;
    Alcotest.test_case "VM serve bursts 64 + 64 per pair" `Quick vm_serve_burst_budget;
    Alcotest.test_case "drain empties first ring first" `Quick drain_first_ring_first;
    Alcotest.test_case "a lone NQE's trip allocates <= 24 words" `Quick lone_nqe_trip_words;
    Alcotest.test_case "a 64-NQE burst allocates <= 6 words per NQE" `Quick
      burst_nqe_trip_words;
  ]
