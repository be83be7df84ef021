(* slo (beyond the paper, §2/§8 operated as a service): the Nkobs
   observability plane closing the loop from a tenant SLO breach to an
   Nkctl verb and back to recovery.

   A two-node Nkfabric cluster serves a "gold" tenant VM and two noisy
   neighbour VMs, all homed on node A's single 1-vCPU NSM. The gold
   tenant runs a steady request loop with a declared SLO (windowed p99
   ceiling); Nkobs ticks over the cluster, evaluating the SLO per window
   and federating every node's metrics. Mid-run the noisy neighbours ramp
   up and saturate the shared NSM: the gold p99 blows through its target,
   Nkobs raises an [slo_breach] alert (capturing a flight-recorder dump of
   the most recent per-host trace events), and the subscribed responder
   reacts with existing Nkctl verbs — [spawn_nsm] brings up a fresh
   2-vCPU NSM and [handover] re-homes the gold VM onto it. New gold
   connections land on the fresh NSM, the windowed p99 falls back under
   target, and Nkobs raises [slo_recovered].

   Shape to check: the p99 series spikes at the ramp and drops after the
   reaction; exactly one breach and one recovery for the gold tenant; the
   flight dump digest (printed in the notes) is byte-identical across
   runs of the same seed. *)

open Nkcore

let p99_target = 0.0005 (* seconds: the gold tenant's declared p99 ceiling *)

let run ?(quick = false) () =
  let duration = if quick then 5.0 else 12.0 in
  let ramp_at = 0.35 *. duration in
  (* Tracing on: the flight recorder dumps the per-host rings on alert. *)
  let tb =
    Testbed.create
      ~config:{ Testbed.Config.default with seed = 7; trace_enabled = true }
      ()
  in
  let cluster = Nkfabric.create ~policy:Nkfabric.Spread tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let _nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let hosta = Nkfabric.node_host nodea in
  let nsm0 = Nsm.create_kernel hosta ~name:"nsmA" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsm0;
  (* Local control plane on node A; watermarks parked out of reach — every
     action in this run is alert-driven, not load-driven. *)
  let ctl =
    Nkctl.create hosta
      ~policy:
        {
          Nkctl.Policy.default with
          Nkctl.Policy.period = 0.1;
          high_watermark = infinity;
          low_watermark = 0.0;
          max_nsms = 4;
        }
      ~spawn:(fun i -> Nsm.create_kernel hosta ~name:(Printf.sprintf "nsmA%d" (i + 1)) ~vcpus:2 ())
      ()
  in
  Nkctl.manage ctl nsm0;
  Nkfabric.set_ctl nodea ctl;
  let gold = Nkfabric.place_vm cluster ~name:"gold" ~vcpus:1 ~ips:[ 10 ] () in
  let noisy =
    List.init 2 (fun i ->
        Nkfabric.place_vm cluster
          ~name:(Printf.sprintf "noisy%d" i)
          ~vcpus:1
          ~ips:[ 11 + i ]
          ())
  in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"clients" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 100 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Gold: steady closed loop, fresh connection per request — after the
     handover, new connections land on the fresh NSM, which is what lets
     the windowed p99 recover. *)
  let gold_proto = Nkapps.Proto.Fixed { request = 128; response = 1024; keepalive = false } in
  let gold_addr = Addr.make 10 80 in
  ignore (Worlds.serve tb gold (Nkapps.Epoll_server.config ~proto:gold_proto gold_addr));
  let gold_lg =
    Worlds.load tb ~delay:1e-3 client
      {
        Nkapps.Loadgen.server = gold_addr;
        proto = gold_proto;
        mode =
          Nkapps.Loadgen.Closed
            { concurrency = 2; total = None; duration = Some (duration -. 0.5) };
        warmup = 0.0;
      }
  in
  (* Noisy neighbours: keep-alive closed loops pinned to the shared NSM
     (established connections never move), ramped up mid-run. *)
  let noisy_proto = Nkapps.Proto.Fixed { request = 256; response = 16384; keepalive = true } in
  List.iteri
    (fun i vm ->
      let addr = Addr.make (11 + i) 80 in
      ignore (Worlds.serve tb vm (Nkapps.Epoll_server.config ~proto:noisy_proto addr));
      ignore
        (Worlds.load tb ~delay:ramp_at client
           {
             Nkapps.Loadgen.server = addr;
             proto = noisy_proto;
             mode =
               Nkapps.Loadgen.Closed
                 {
                   concurrency = 32;
                   total = None;
                   duration = Some (duration -. 0.5 -. ramp_at);
                 };
             warmup = 0.0;
           }))
    noisy;
  (* The observability plane: federate the cluster, declare the gold SLO,
     and close the loop with Nkctl verbs on breach. *)
  let obs = Nkobs.of_fabric ~period:0.05 cluster in
  Nkobs.add_tenant obs ~name:"gold"
    ~target:{ Nkobs.latency_p99 = Some p99_target; max_error_rate = 0.0; min_requests = 10 }
    ~probe:(fun () ->
      match !gold_lg with
      | None ->
          {
            Nkobs.p_requests = 0;
            p_errors = 0;
            p_latency = Nkutil.Histogram.create ();
          }
      | Some lg ->
          let r = Nkapps.Loadgen.results lg in
          {
            Nkobs.p_requests = r.Nkapps.Loadgen.completed;
            p_errors = r.Nkapps.Loadgen.errors;
            p_latency = r.Nkapps.Loadgen.latency;
          });
  let reactions = ref [] in
  Nkobs.on_alert obs (fun ~time alert ->
      match alert with
      | Nkobs.Slo_breach { tenant = "gold"; _ } when !reactions = [] ->
          let fresh = Nkctl.spawn_nsm ctl in
          Nkctl.handover ctl ~vm:gold ~target:fresh;
          reactions :=
            [ Printf.sprintf "%.2fs spawn_nsm %s + handover gold" time (Nsm.name fresh) ]
      | _ -> ());
  Nkctl.start ctl;
  Nkobs.start obs;
  (* Sample the tenant's windowed p99 and the cumulative alert count on a
     cadence offset from the plane's ticks (phase 5 ms behind). *)
  let samples = ref [] in
  let rec sample () =
    let t = Sim.Engine.now tb.Testbed.engine in
    (match Nkobs.slo_status obs with
    | [ st ] ->
        samples :=
          (t, st.Nkobs.st_last_p99, float_of_int (Nkobs.alert_count obs)) :: !samples
    | _ -> ());
    if t < duration then ignore (Sim.Engine.schedule tb.Testbed.engine ~delay:0.05 sample)
  in
  ignore (Sim.Engine.schedule tb.Testbed.engine ~delay:0.055 sample);
  Testbed.run tb ~until:(duration +. 0.5);
  Nkobs.stop obs;
  Nkctl.stop ctl;
  let samples = List.rev !samples in
  let k = 40 in
  let series f = Report.bucket ~k ~duration (List.map f samples) in
  let p99_ms = series (fun (t, p, _) -> (t, p *. 1e3)) in
  let alerts_cum = series (fun (t, _, a) -> (t, a)) in
  let gold_results =
    match !gold_lg with
    | Some lg -> Nkapps.Loadgen.results lg
    | None -> failwith "slo: gold load generator never started"
  in
  let st =
    match Nkobs.slo_status obs with
    | [ st ] -> st
    | _ -> failwith "slo: expected exactly one tenant"
  in
  let alert_log =
    List.map
      (fun (time, a) ->
        Printf.sprintf "%.2fs %s %s" time (Nkobs.alert_type a) (Nkobs.alert_detail a))
      (Nkobs.alerts obs)
  in
  let flight_note =
    let dumps = Nkobs.dumps obs in
    let breach_dump =
      List.find_opt (fun (_, a, _) -> Nkobs.alert_type a = "slo_breach") dumps
    in
    match (breach_dump, dumps) with
    | Some (time, alert, snap), _ | None, (time, alert, snap) :: _ ->
        let lines = List.length (String.split_on_char '\n' snap) - 1 in
        Printf.sprintf "flight dump @%.2fs on %s: %d lines, md5 %s" time
          (Nkobs.alert_type alert) lines
          (Digest.to_hex (Digest.string snap))
    | None, [] -> "flight dump: none captured"
  in
  let rows =
    [
      Report.series_row "gold windowed p99 (ms)" p99_ms Report.sparkline;
      Report.series_row "alerts raised (cumulative)" alerts_cum Report.digits;
    ]
  in
  Report.make ~id:"slo"
    ~title:"Tenant SLO: breach -> alert -> Nkctl reaction -> recovery (Nkobs)"
    ~headers:[ "series"; "min"; "max"; Printf.sprintf "time 0..%.0fs" duration ]
    ~notes:
      ([
         Printf.sprintf
           "gold SLO p99 <= %.1fms: %d windows evaluated, %d in breach, final %s \
            (last window p99 %.2fms over %d requests)"
           (p99_target *. 1e3) st.Nkobs.st_windows st.Nkobs.st_breaches
           (if st.Nkobs.st_ok then "OK" else "IN BREACH")
           (st.Nkobs.st_last_p99 *. 1e3)
           st.Nkobs.st_last_requests;
         Printf.sprintf "gold served %d requests, %d errors; noisy ramp at %.2fs"
           gold_results.Nkapps.Loadgen.completed gold_results.Nkapps.Loadgen.errors ramp_at;
         Printf.sprintf "federation: %d hosts, %d metric rows; plane ticks %d"
           (List.length (Nkobs.sources obs))
           (List.length (Nkobs.metric_rows (Nkobs.sources obs)))
           (Nkobs.ticks obs);
       ]
      @ List.map (fun l -> "alert: " ^ l) alert_log
      @ List.map (fun l -> "reaction: " ^ l) (List.rev !reactions)
      @ [ flight_note ])
    rows
