(* Figs 7+8 operated (use case 1, §6.1 + §7.5): NSM autoscaling under the
   AG trace.

   Where fig08 provisions one NSM for the aggregate peak, here the Nkctl
   control plane operates the pool: three AG VMs replay their bursty
   diurnal+spike traces while the autoscaler samples NSM vCPU utilization
   every period and grows/shrinks the kernel-NSM pool between its
   watermarks. VM re-homing is a live handover (listeners re-created on the
   target NSM, established connections finish on the source), and the
   emptied NSM drains to zero connections before it is retired.

   Shape to check: the active-NSM count tracks the offered load — up at the
   spike, back down at the trough — and the run is deterministic (same
   samples, same scale decisions on every run). *)

open Nkcore

let nsm_vcpus = 1

let run ?(quick = false) () =
  let duration = if quick then 12.0 else 30.0 in
  let time_compress = 3600.0 /. duration (* whole trace hour in [duration] *) in
  let rate_scale = 1.75 in
  let traces =
    Nktrace.Traffic.top_k_by_utilization
      (Nktrace.Traffic.generate_fleet ~seed:2018 ~n:64 ())
      3
  in
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = 7 } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let spawn i =
    Nsm.create_kernel hosta ~name:(Printf.sprintf "nsm%d" i) ~vcpus:nsm_vcpus ()
  in
  let nsm0 = spawn 0 in
  let ctl =
    Nkctl.create hosta
      ~policy:
        {
          Nkctl.Policy.period = 0.25;
          high_watermark = 0.6;
          low_watermark = 0.25;
          min_nsms = 1;
          max_nsms = 4;
          cooldown = 1.0;
          ce_scale_watermark = infinity;
          max_ce_shards = 4;
        }
      ~spawn:(fun i -> spawn (i + 1))
      ()
  in
  Nkctl.manage ctl nsm0;
  let vms =
    List.mapi
      (fun i _trace ->
        let vm =
          Vm.create_nk hosta
            ~name:(Printf.sprintf "ag%d" i)
            ~vcpus:1 ~ips:[ 10 + i ] ~nsms:[ nsm0 ] ()
        in
        Nkctl.add_vm ctl vm ~home:nsm0;
        vm)
      traces
  in
  let client =
    Vm.create_baseline hostb ~name:"clients" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 20 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 256; response = 1024; keepalive = false } in
  let lgs =
    List.mapi
      (fun i (trace : Nktrace.Traffic.t) ->
        let vm = List.nth vms i in
        let addr = Addr.make (10 + i) 80 in
        ignore (Worlds.serve tb vm (Nkapps.Epoll_server.config ~proto addr));
        Worlds.load tb ~delay:1e-3 client
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Open
                {
                  rate_at =
                    (fun t ->
                      rate_scale *. Nktrace.Traffic.rate_at trace (t *. time_compress));
                  duration;
                };
            warmup = 0.0;
          })
      traces
  in
  Nkctl.start ctl;
  Testbed.run tb ~until:(duration +. 1.0);
  Nkctl.stop ctl;
  let completed, errors = Worlds.served lgs in
  let samples = Nkctl.samples ctl in
  let stats = Nkctl.stats ctl in
  let k = 40 in
  let of_samples f =
    Report.bucket ~k ~duration (List.map (fun s -> (s.Nkctl.s_time, f s)) samples)
  in
  let offered =
    Report.bucket ~k ~duration
      (List.init 120 (fun i ->
           let t = float_of_int i /. 119.0 *. duration in
           ( t,
             List.fold_left
               (fun acc tr -> acc +. Nktrace.Traffic.rate_at tr (t *. time_compress))
               0.0 traces )))
  in
  let nsms = of_samples (fun s -> float_of_int s.Nkctl.s_active) in
  let util = of_samples (fun s -> s.Nkctl.s_utilization) in
  let conns = of_samples (fun s -> float_of_int s.Nkctl.s_conns) in
  let rows =
    [
      Report.series_row "offered load (rps, 3 AGs)" offered Report.sparkline;
      Report.series_row "NSM vCPU utilization" util Report.sparkline;
      Report.series_row "active NSMs" nsms Report.digits;
      Report.series_row "CE connection entries" conns Report.sparkline;
    ]
  in
  Report.make ~id:"fig0708"
    ~title:"Autoscaling NSMs under the AG trace (Nkctl control plane)"
    ~headers:[ "series"; "min"; "max"; Printf.sprintf "time 0..%.0fs" duration ]
    ~notes:
      [
        Printf.sprintf
          "requests served %d, errors %d; scale-ups %d, scale-downs %d, handovers %d, \
           drains completed %d, failovers %d"
          completed errors stats.Nkctl.scale_ups stats.Nkctl.scale_downs
          stats.Nkctl.handovers stats.Nkctl.drains_completed stats.Nkctl.failovers;
        Printf.sprintf
          "policy: period 0.25s, watermarks 0.60/0.25, 1..4 x %d-vCPU kernel NSMs; \
           trace hour compressed %.0fx, rates x%.2f"
          nsm_vcpus time_compress rate_scale;
        "shape to check: active-NSM count follows the load - up at the spike, \
         consolidated at the trough; deterministic across runs";
      ]
    rows
