(* Incast: N-to-1 RPC fan-in into one aggregator, before and after a live
   TCP → Homa protocol handover.

   One tenant runs an aggregation tier on a single host: N worker VMs fire
   closed-loop RPCs at one aggregator VM whose listener has a small accept
   backlog, all homed on one shared kernel-TCP NSM. The synchronized
   connection bursts overflow the SYN backlog; dropped SYNs are silent, so
   the affected workers stall in the client's SYN retransmit timer (>= 0.5 s)
   and the tail latency is thousands of times the median — the classic
   incast/backlog pathology.

   Mid-experiment the operator performs a live protocol handover
   ({!Nkctl.switch_protocol}): a Homa NSM is spawned and every tenant VM is
   re-homed onto it — listeners are transparently replayed by GuestLib, new
   sockets speak Homa, the application binaries are untouched. Homa has no
   backlog to overflow (REQUESTs are admitted on first contact and paced by
   receiver grants), so the same workload's p99 collapses back toward the
   median.

   Shape to check: p99 before the switch is dominated by the 0.5 s+ SYN
   retransmit stalls; after the switch p99 is within a small factor of p50.
   The whole run is deterministic — two invocations print byte-identical
   reports. *)

open Nkcore

let agg_ip = 10

let worker_ip i = 20 + i

let backlog = 4

let merge_latencies lgs =
  let h = Nkutil.Histogram.create () in
  List.iter
    (fun lg ->
      Option.iter
        (fun lg ->
          let r = Nkapps.Loadgen.results lg in
          Nkutil.Histogram.merge_into ~src:r.Nkapps.Loadgen.latency ~dst:h)
        !lg)
    lgs;
  let completed, errors = Worlds.served lgs in
  (h, completed, errors)

let start_phase tb workers ~addr ~proto ~per_worker =
  List.map
    (fun vm ->
      Worlds.load tb ~delay:1e-3 vm
        {
          Nkapps.Loadgen.server = addr;
          proto;
          mode =
            Nkapps.Loadgen.Closed
              { concurrency = 1; total = Some per_worker; duration = None };
          warmup = 0.0;
        })
    workers

let run ?(quick = false) () =
  let n_workers = if quick then 12 else 24 in
  let per_worker = if quick then 6 else 20 in
  let phase_window = if quick then 30.0 else 60.0 in
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = 11 } () in
  let host = Testbed.add_host tb ~name:"hostA" in
  Host.enable_netkernel host;
  let nsm_tcp = Nsm.create_kernel host ~name:"nsm-tcp" ~vcpus:2 () in
  let agg = Vm.create_nk host ~name:"agg" ~vcpus:2 ~ips:[ agg_ip ] ~nsms:[ nsm_tcp ] () in
  let workers =
    List.init n_workers (fun i ->
        Vm.create_nk host
          ~name:(Printf.sprintf "worker%d" i)
          ~vcpus:1
          ~ips:[ worker_ip i ]
          ~nsms:[ nsm_tcp ] ())
  in
  let ctl = Nkctl.create host ~spawn:(fun _ -> assert false) () in
  Nkctl.manage ctl nsm_tcp;
  Nkctl.add_vm ctl agg ~home:nsm_tcp;
  List.iter (fun vm -> Nkctl.add_vm ctl vm ~home:nsm_tcp) workers;
  let proto = Nkapps.Proto.Fixed { request = 256; response = 256; keepalive = false } in
  let addr = Addr.make agg_ip 80 in
  ignore (Worlds.serve tb agg (Nkapps.Epoll_server.config ~backlog ~proto addr));
  (* Phase A: the fan-in over the shared kernel-TCP NSM. *)
  let lgs_tcp = start_phase tb workers ~addr ~proto ~per_worker in
  Testbed.run tb ~until:phase_window;
  let tcp_hist, tcp_done, tcp_errs = merge_latencies lgs_tcp in
  let tcp_syn_drops =
    List.fold_left
      (fun acc (s : Tcpstack.Stack.stats) -> acc + s.Tcpstack.Stack.syn_drops)
      0 (Nsm.stack_stats nsm_tcp)
  in
  (* The live protocol handover: one Homa NSM for the tenant, every VM
     re-homed. The aggregator goes first so its listener is already
     speaking Homa when the workers' fresh sockets arrive. *)
  let nsm_homa = Nsm.create_homa host ~name:"nsm-homa" ~vcpus:2 () in
  Nkctl.manage ctl nsm_homa;
  Nkctl.switch_protocol ctl ~vm:agg ~target:nsm_homa;
  List.iter (fun vm -> Nkctl.switch_protocol ctl ~vm ~target:nsm_homa) workers;
  (* Phase B: the same workload over the Homa NSM. *)
  let t_switch = Sim.Engine.now tb.Testbed.engine in
  let lgs_homa = start_phase tb workers ~addr ~proto ~per_worker in
  Testbed.run tb ~until:(t_switch +. phase_window);
  let homa_hist, homa_done, homa_errs = merge_latencies lgs_homa in
  let stats = Nkctl.stats ctl in
  let pct label h = Report.percentiles_of ~label h in
  let p_tcp = pct "tcp-before" tcp_hist in
  let p_homa = pct "homa-after" homa_hist in
  let row phase (p : Report.pctl) completed errs =
    [
      phase;
      string_of_int n_workers;
      string_of_int completed;
      string_of_int errs;
      Report.cell_f ~decimals:3 p.Report.p50_ms;
      Report.cell_f ~decimals:3 p.Report.p99_ms;
      Report.cell_f ~decimals:3 p.Report.p999_ms;
    ]
  in
  Report.make ~id:"incast"
    ~title:"N-to-1 incast: live TCP->Homa protocol handover (Nkctl)"
    ~headers:[ "phase"; "workers"; "completed"; "errors"; "p50 ms"; "p99 ms"; "p99.9 ms" ]
    ~notes:
      [
        Printf.sprintf
          "backlog %d, %d workers x %d closed-loop RPCs per phase, 256B request/response, \
           no keepalive; one shared kernel-TCP NSM, then one Homa NSM"
          backlog n_workers per_worker;
        Printf.sprintf
          "TCP phase: %d silent SYN drops -> clients stall in the 0.5s+ SYN retransmit \
           timer (the p99/p50 gap); Homa admits REQUESTs on first contact (no backlog)"
          tcp_syn_drops;
        Printf.sprintf
          "protocol handover: Nkctl.switch_protocol re-homed %d VMs (listener replayed \
           by GuestLib, binaries untouched); control plane recorded %d protocol switches"
          (n_workers + 1) stats.Nkctl.protocol_switches;
        "shape to check: p99 collapses toward p50 after the switch; byte-identical \
         report across runs";
      ]
    ~percentiles:[ p_tcp; p_homa ]
    [ row "tcp (before)" p_tcp tcp_done tcp_errs;
      row "homa (after)" p_homa homa_done homa_errs ]
