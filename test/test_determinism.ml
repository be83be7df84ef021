(* Whole-system determinism: identical seeds must reproduce identical runs
   bit-for-bit (the discrete-event engine, RNG splitting and data structures
   admit no hidden nondeterminism), and the seed must actually matter. *)

open Nkcore
module Types = Tcpstack.Types

let run_once ?loss_seed ?(trace = false) ~seed () =
  (* A deliberately small trace ring so wraparound itself is exercised by
     the byte-identical check. *)
  let tb =
    Testbed.create
      ~config:
        { Testbed.Config.default with
          seed;
          trace_enabled = trace;
          trace_capacity = Some 4096
        }
      ()
  in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ 20; 21 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (match loss_seed with
  | None -> ()
  | Some ls -> (
      match Fabric.port_to tb.Testbed.fabric (Host.nic hosta) with
      | Some l -> Link.set_random_loss l ~rng:(Nkutil.Rng.create ~seed:ls) ~rate:0.02
      | None -> Alcotest.fail "no downlink"));
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
  ( r.Nkapps.Loadgen.completed,
    r.Nkapps.Loadgen.finished,
    Vm.busy_cycles vm,
    Nsm.busy_cycles nsm,
    ce.Coreengine.switched,
    Sim.Engine.events_executed tb.Testbed.engine,
    ( Nkobs.metrics_json [ ("testbed", tb.Testbed.mon) ],
      Nkobs.trace_json [ ("testbed", tb.Testbed.mon) ] ) )

let identical_runs () =
  let a = run_once ~seed:1234 () in
  let b = run_once ~seed:1234 () in
  let c1, f1, v1, n1, s1, e1, (m1, _) = a and c2, f2, v2, n2, s2, e2, (m2, _) = b in
  Alcotest.(check int) "completed" c1 c2;
  Alcotest.(check (float 0.0)) "finish time (exact)" f1 f2;
  Alcotest.(check (float 0.0)) "vm cycles (exact)" v1 v2;
  Alcotest.(check (float 0.0)) "nsm cycles (exact)" n1 n2;
  Alcotest.(check int) "NQEs switched" s1 s2;
  Alcotest.(check int) "events executed" e1 e2;
  Alcotest.(check string) "metrics JSON byte-identical" m1 m2

let identical_lossy_runs () =
  (* Determinism must also hold with fault injection active. *)
  let a = run_once ~loss_seed:7 ~seed:1234 () in
  let b = run_once ~loss_seed:7 ~seed:1234 () in
  let c1, f1, _, _, _, e1, _ = a and c2, f2, _, _, _, e2, _ = b in
  Alcotest.(check int) "completed" c1 c2;
  Alcotest.(check (float 0.0)) "finish time (exact)" f1 f2;
  Alcotest.(check int) "events executed" e1 e2

let loss_seed_matters () =
  (* Different loss patterns must produce different executions. *)
  let _, f1, _, _, _, e1, _ = run_once ~loss_seed:11 ~seed:1234 () in
  let _, f2, _, _, _, e2, _ = run_once ~loss_seed:12 ~seed:1234 () in
  if f1 = f2 && e1 = e2 then Alcotest.fail "different loss seeds, identical runs"

let identical_traced_runs () =
  (* The full event trace — with ring wraparound — must also be
     byte-for-byte reproducible. *)
  let _, _, _, _, _, _, (m1, t1) = run_once ~trace:true ~seed:1234 () in
  let _, _, _, _, _, _, (m2, t2) = run_once ~trace:true ~seed:1234 () in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000);
  Alcotest.(check string) "trace JSON byte-identical" t1 t2;
  Alcotest.(check string) "metrics JSON byte-identical" m1 m2

let tests =
  [
    Alcotest.test_case "identical seeds, identical runs" `Quick identical_runs;
    Alcotest.test_case "identical seeds, identical traces" `Quick identical_traced_runs;
    Alcotest.test_case "identical seeds with loss injection" `Quick identical_lossy_runs;
    Alcotest.test_case "loss seed matters" `Quick loss_seed_matters;
  ]
