(* CoreEngine sharding: a single shard must be bit-identical to the
   pre-sharding engine (oracles below were captured on the single-core
   implementation), multiple shards must preserve application-level results
   while strictly lowering the per-core switching load, and sharded runs
   must stay deterministic. *)

open Nkcore
module E = Sim.Engine
module Types = Tcpstack.Types

let mk_device ?capacity ~id ~role ~qsets () =
  Nk_device.create ~id ~role ~qsets ?capacity
    ~hugepages:(Hugepages.create ~page_size:4096 ~pages:4 ())
    ()

let encode op ~vm_id ~qset ~sock ?(size = 0) () =
  Nqe_codec.encode (Nqe_codec.make ~op ~vm_id ~qset ~sock ~size ())

let mk_ce ~n_cores =
  let engine = E.create () in
  let cores =
    Array.init n_cores (fun k -> Sim.Cpu.create engine ~name:(Printf.sprintf "ce%d" k) ())
  in
  (engine, cores, Coreengine.create ~engine ~cores Nk_costs.default)

(* The direct switching scenario the single-core oracle was captured on:
   one VM device (2 queue sets), two NSM devices, eight Socket NQEs
   round-robined across both NSMs. *)
let run_direct ~n_cores =
  let engine, cores, ce = mk_ce ~n_cores in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:2 () in
  let nsm1 = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:2 () in
  let nsm2 = mk_device ~id:2 ~role:Nk_device.Nsm_side ~qsets:2 () in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm1;
  Coreengine.register_nsm ce nsm2;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1; 2 ];
  for sock = 1 to 8 do
    Nk_device.post vm ~qset:(sock mod 2)
      (encode Nqe.Socket ~vm_id:1 ~qset:(sock mod 2) ~sock ()) 0
  done;
  E.run engine;
  (ce, cores)

(* Captured on the pre-sharding implementation (commit c4c0657). *)
let direct_oracle_dump =
  "vm=1 sock=1 -> nsm=1 qset=1\n\
   vm=1 sock=2 -> nsm=1 qset=0\n\
   vm=1 sock=3 -> nsm=2 qset=1\n\
   vm=1 sock=4 -> nsm=2 qset=0\n\
   vm=1 sock=5 -> nsm=1 qset=1\n\
   vm=1 sock=6 -> nsm=1 qset=0\n\
   vm=1 sock=7 -> nsm=2 qset=1\n\
   vm=1 sock=8 -> nsm=2 qset=0\n"

let single_shard_direct_oracle () =
  let ce, cores = run_direct ~n_cores:1 in
  Alcotest.(check string) "conn table" direct_oracle_dump (Coreengine.dump_conn_table ce);
  let s = Coreengine.stats ce in
  Alcotest.(check int) "switched" 8 s.Coreengine.switched;
  Alcotest.(check int) "sweeps" 1 s.Coreengine.sweeps;
  Alcotest.(check int) "dropped" 0 s.Coreengine.dropped;
  (* 1600.0 = one 8-NQE sweep (120 + 8*170) + the final empty poll (120),
     captured as 0x1.9p+10 on the single-core engine. *)
  Alcotest.(check (float 0.0)) "busy cycles" 1600.0 (Sim.Cpu.busy_cycles cores.(0))

let shard_counts_agree_direct () =
  let dump_at n =
    let ce, cores = run_direct ~n_cores:n in
    let s = Coreengine.stats ce in
    Alcotest.(check int) (Printf.sprintf "switched at %d shards" n) 8 s.Coreengine.switched;
    Alcotest.(check int) (Printf.sprintf "dropped at %d shards" n) 0 s.Coreengine.dropped;
    (* the per-shard counters must decompose the totals *)
    let summed =
      Array.fold_left
        (fun acc (p : Coreengine.stats) -> acc + p.Coreengine.switched)
        0 (Coreengine.shard_stats ce)
    in
    Alcotest.(check int) (Printf.sprintf "shard sum at %d" n) 8 summed;
    (Coreengine.dump_conn_table ce, cores)
  in
  let d1, _ = dump_at 1 in
  let d2, c2 = dump_at 2 in
  let d4, c4 = dump_at 4 in
  Alcotest.(check string) "1 vs 2 shards" d1 d2;
  Alcotest.(check string) "1 vs 4 shards" d1 d4;
  let max_busy cs = Array.fold_left (fun m c -> Float.max m (Sim.Cpu.busy_cycles c)) 0.0 cs in
  Alcotest.(check bool) "2 shards split the load" true (max_busy c2 < 1600.0);
  Alcotest.(check bool) "4 shards split the load" true (max_busy c4 < 1600.0)

(* ---- whole-system oracle ----------------------------------------------- *)

(* The determinism-suite scenario, with the CE shard count as a knob. *)
let run_world ~ce_cores ~seed =
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  Host.enable_netkernel ~ce_cores hosta;
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ 20; 21 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 64; response = 512; keepalive = false } in
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
       (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg = ref None in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         lg :=
           Some
             (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
                {
                  Nkapps.Loadgen.server = Addr.make 10 80;
                  proto;
                  mode =
                    Nkapps.Loadgen.Closed
                      { concurrency = 32; total = Some 2_000; duration = None };
                  warmup = 0.0;
                })));
  Testbed.run tb ~until:30.0;
  let r = Nkapps.Loadgen.results (Option.get !lg) in
  let ce = Coreengine.stats (Host.coreengine hosta) in
  let shard_busy = Array.map Sim.Cpu.busy_cycles (Host.ce_cores hosta) in
  ( r.Nkapps.Loadgen.completed,
    r.Nkapps.Loadgen.errors,
    r.Nkapps.Loadgen.finished,
    Vm.busy_cycles vm,
    Nsm.busy_cycles nsm,
    ce.Coreengine.switched,
    Sim.Engine.events_executed tb.Testbed.engine,
    shard_busy,
    Nkobs.metrics_json [ ("testbed", tb.Testbed.mon) ] )

let hex = Printf.sprintf "%h"

let single_shard_world_oracle () =
  (* Captured on the pre-sharding implementation (commit c4c0657), seed
     1234: the sharded engine at ce_cores=1 must reproduce the execution
     bit-for-bit. The [events] count was re-captured twice since: once
     when CoreEngine started eliding same-instant duplicate owner wakes,
     and again when Link moved to lazy in-flight buffer release (no
     per-packet release event). Both
     changes remove redundant engine events only, which the unchanged
     finish time / busy cycles / switched counts confirm. *)
  let completed, errors, finished, vm, nsm, switched, events, shard_busy, _ =
    run_world ~ce_cores:1 ~seed:1234
  in
  Alcotest.(check int) "completed" 2000 completed;
  Alcotest.(check int) "errors" 0 errors;
  Alcotest.(check string) "finish time" "0x1.04e4c2fc7c7ccp-6" (hex finished);
  Alcotest.(check string) "vm cycles" "0x1.76c5b80000029p+23" (hex vm);
  Alcotest.(check string) "nsm cycles" "0x1.f9c3f8ff9094ap+25" (hex nsm);
  Alcotest.(check int) "switched" 14006 switched;
  Alcotest.(check int) "events" 179948 events;
  Alcotest.(check int) "one shard core" 1 (Array.length shard_busy)

let multi_shard_world_results () =
  let completed1, errors1, _, _, _, _, _, busy1, _ = run_world ~ce_cores:1 ~seed:1234 in
  let check n =
    let completed, errors, finished, _, _, _, _, busy, _ =
      run_world ~ce_cores:n ~seed:1234
    in
    Alcotest.(check int) (Printf.sprintf "completed at %d shards" n) completed1 completed;
    Alcotest.(check int) (Printf.sprintf "errors at %d shards" n) errors1 errors;
    Alcotest.(check bool) (Printf.sprintf "finished at %d shards" n) true (finished > 0.0);
    Alcotest.(check int) (Printf.sprintf "%d shard cores" n) n (Array.length busy);
    let max_busy = Array.fold_left Float.max 0.0 busy in
    Alcotest.(check bool)
      (Printf.sprintf "max shard busy at %d < single-shard busy" n)
      true
      (max_busy < busy1.(0))
  in
  check 2;
  check 4

let sharded_runs_deterministic () =
  let _, _, f1, v1, _, _, e1, _, m1 = run_world ~ce_cores:2 ~seed:1234 in
  let _, _, f2, v2, _, _, e2, _, m2 = run_world ~ce_cores:2 ~seed:1234 in
  Alcotest.(check (float 0.0)) "finish time (exact)" f1 f2;
  Alcotest.(check (float 0.0)) "vm cycles (exact)" v1 v2;
  Alcotest.(check int) "events executed" e1 e2;
  Alcotest.(check string) "metrics JSON byte-identical" m1 m2

let scale_out_redistributes () =
  (* Scaling a live single-shard engine out mid-run keeps switching correct
     and puts cycles on the new cores. *)
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = 7 } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 64; response = 512; keepalive = false } in
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
       (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  let lg = ref None in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         lg :=
           Some
             (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
                {
                  Nkapps.Loadgen.server = Addr.make 10 80;
                  proto;
                  mode =
                    Nkapps.Loadgen.Closed
                      { concurrency = 16; total = Some 1_000; duration = None };
                  warmup = 0.0;
                })));
  (* Grow the engine while traffic is in flight. *)
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:5e-3 (fun () ->
         Host.scale_ce hosta ~add:1));
  Testbed.run tb ~until:30.0;
  let r = Nkapps.Loadgen.results (Option.get !lg) in
  Alcotest.(check int) "completed" 1_000 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "errors" 0 r.Nkapps.Loadgen.errors;
  let busy = Array.map Sim.Cpu.busy_cycles (Host.ce_cores hosta) in
  Alcotest.(check int) "two shard cores" 2 (Array.length busy);
  Alcotest.(check bool) "new shard did work" true (busy.(1) > 0.0);
  Alcotest.(check int) "2 shards" 2 (Coreengine.n_shards (Host.coreengine hosta))

(* ---- sweep cost and the idle-device skip -------------------------------- *)

(* Minor words allocated per switched NQE on a 1-shard engine with [idle]
   registered VM devices that never post. Each Socket NQE is switched on
   its own: post, run the engine dry, pop the NSM job ring. *)
let words_per_switch ~idle =
  let engine, _, ce = mk_ce ~n_cores:1 in
  let vm = mk_device ~id:1 ~role:Nk_device.Vm_side ~qsets:1 () in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:1 () in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  for k = 1 to idle do
    Coreengine.register_vm ce
      (mk_device ~capacity:4 ~id:(100 + k) ~role:Nk_device.Vm_side ~qsets:1 ())
  done;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  let job = (Nk_device.qset nsm 0).Queue_set.job in
  let popped = Bytes.create Nqe.size_bytes in
  let nqes = Array.init 1_100 (fun i -> encode Nqe.Socket ~vm_id:1 ~qset:0 ~sock:(i + 1) ()) in
  let switch i =
    Nk_device.post vm ~qset:0 nqes.(i) 0;
    E.run engine;
    if not (Nqe_ring.pop job popped 0) then Alcotest.failf "NQE %d was not switched" i
  in
  for i = 0 to 99 do
    switch i
  done;
  let w0 = Gc.minor_words () in
  for i = 100 to 1_099 do
    switch i
  done;
  (Gc.minor_words () -. w0) /. 1_000.0

let idle_devices_cost_nothing () =
  let w0 = words_per_switch ~idle:0 and w64 = words_per_switch ~idle:64 in
  if Float.abs (w64 -. w0) > 1.0 then
    Alcotest.failf "words per switched NQE: %.1f with 0 idle devices, %.1f with 64" w0 w64

(* A capacity-2 VM device with two queue sets takes a burst of 12 Socket
   NQEs: 4 fill the job rings and 8 spill into the device-wide overflow.
   After the first sweep the device's rings are empty but its overflow is
   not, so a sweep that skipped devices on their rings alone would strand
   the spilled NQEs. *)
let run_overflow_burst ~n_cores =
  let engine, cores, ce = mk_ce ~n_cores in
  let vm = mk_device ~capacity:2 ~id:1 ~role:Nk_device.Vm_side ~qsets:2 () in
  let nsm = mk_device ~id:1 ~role:Nk_device.Nsm_side ~qsets:2 () in
  Coreengine.register_vm ce vm;
  Coreengine.register_nsm ce nsm;
  Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  for sock = 1 to 12 do
    Nk_device.post vm ~qset:(sock mod 2)
      (encode Nqe.Socket ~vm_id:1 ~qset:(sock mod 2) ~sock ()) 0
  done;
  E.run engine;
  let received qi =
    let ring = (Nk_device.qset nsm qi).Queue_set.job in
    let raw = Bytes.create Nqe.size_bytes in
    let rec drain acc =
      match Nqe_ring.pop ring raw 0 with
      | true -> drain (Nqe.View.sock raw 0 :: acc)
      | false -> List.rev acc
    in
    drain []
  in
  (ce, cores, E.now engine, [ received 0; received 1 ])

(* Oracles captured on the engine that visited every device on every
   sweep. *)
let overflow_oracle_dump =
  "vm=1 sock=1 -> nsm=1 qset=1\n\
   vm=1 sock=2 -> nsm=1 qset=0\n\
   vm=1 sock=3 -> nsm=1 qset=1\n\
   vm=1 sock=4 -> nsm=1 qset=0\n\
   vm=1 sock=5 -> nsm=1 qset=1\n\
   vm=1 sock=6 -> nsm=1 qset=0\n\
   vm=1 sock=7 -> nsm=1 qset=1\n\
   vm=1 sock=8 -> nsm=1 qset=0\n\
   vm=1 sock=9 -> nsm=1 qset=1\n\
   vm=1 sock=10 -> nsm=1 qset=0\n\
   vm=1 sock=11 -> nsm=1 qset=1\n\
   vm=1 sock=12 -> nsm=1 qset=0\n"

let overflow_only_device_is_swept () =
  let check ~n_cores ~sweeps ~busy ~end_time =
    let ce, cores, now, received = run_overflow_burst ~n_cores in
    let at what = Printf.sprintf "%s at %d shards" what n_cores in
    let s = Coreengine.stats ce in
    Alcotest.(check int) (at "switched") 12 s.Coreengine.switched;
    Alcotest.(check int) (at "dropped") 0 s.Coreengine.dropped;
    Alcotest.(check (list int))
      (at "every NQE reached the NSM")
      (List.init 12 (fun i -> i + 1))
      (List.sort Int.compare (List.concat received));
    List.iteri
      (fun qi socks ->
        Alcotest.(check (list int))
          (at (Printf.sprintf "post order in NSM queue set %d" qi))
          (List.sort Int.compare socks) socks)
      received;
    Alcotest.(check int) (at "sweeps") sweeps s.Coreengine.sweeps;
    Alcotest.(check (list string))
      (at "busy cycles") busy
      (Array.to_list (Array.map (fun c -> hex (Sim.Cpu.busy_cycles c)) cores));
    Alcotest.(check string) (at "end time") end_time (hex now);
    Alcotest.(check string) (at "conn table") overflow_oracle_dump
      (Coreengine.dump_conn_table ce)
  in
  check ~n_cores:1 ~sweeps:3 ~busy:[ "0x1.3bp+11" ]
    ~end_time:"0x1.d402e9edfb116p-20";
  check ~n_cores:2 ~sweeps:6 ~busy:[ "0x1.d1p+10"; "0x1.77p+10" ]
    ~end_time:"0x1.78fa0c3a43874p-20"

let tests =
  [
    Alcotest.test_case "single shard matches pre-shard oracle (direct)" `Quick
      single_shard_direct_oracle;
    Alcotest.test_case "shard counts agree on the connection table" `Quick
      shard_counts_agree_direct;
    Alcotest.test_case "single shard matches pre-shard oracle (world)" `Quick
      single_shard_world_oracle;
    Alcotest.test_case "multi-shard: same results, lower per-shard load" `Quick
      multi_shard_world_results;
    Alcotest.test_case "sharded runs are deterministic" `Quick sharded_runs_deterministic;
    Alcotest.test_case "live scale-out redistributes queue sets" `Quick
      scale_out_redistributes;
    Alcotest.test_case "idle devices cost nothing per switch" `Quick
      idle_devices_cost_nothing;
    Alcotest.test_case "overflow-only device is still swept" `Quick
      overflow_only_device_is_swept;
  ]
