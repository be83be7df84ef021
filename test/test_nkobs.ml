(* Nkobs observability plane (DESIGN.md par.17): metric federation and
   merged-trace determinism over a live Nkfabric cluster, SLO window
   accounting (breach, recovery, min_requests), edge-triggered pressure
   and dropped-events alerts, byte-identical flight-recorder dumps, the
   alert -> Nkctl responder loop, and the cluster-wide span-id guarantees
   (host-unique ids, spine-stage reconciliation across a live migration). *)

open Nkcore
module Types = Tcpstack.Types
module E = Sim.Engine
module H = Nkutil.Histogram

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let mk_cluster ?(trace = false) ?(span_every = 0) ?(seed = 11) () =
  let tb =
    Testbed.create
      ~config:{ Testbed.Config.default with seed; trace_enabled = trace; span_every }
      ()
  in
  let cluster = Nkfabric.create tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let nsma = Nsm.create_kernel (Nkfabric.node_host nodea) ~name:"nsmA" ~vcpus:1 () in
  let nsmb = Nsm.create_kernel (Nkfabric.node_host nodeb) ~name:"nsmB" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsma;
  Nkfabric.add_nsm cluster nodeb nsmb;
  (tb, cluster, nodea, nodeb, nsma, nsmb)

let add_client tb =
  let clients_host = Testbed.add_host tb ~name:"clients" in
  Vm.create_baseline clients_host ~name:"client" ~vcpus:4 ~ips:[ 100 ]
    ~profile:Sim.Cost_profile.ideal ()

(* A persistent kv connection pumping verified set/get round-trips. *)
let start_pump tb client addr ~ops =
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
           ~k:(fun r ->
             match r with
             | Error e -> Alcotest.failf "pump connect: %s" (Types.err_to_string e)
             | Ok conn ->
                 let rec pump i =
                   Nkapps.Kvstore.Client.set conn ~key:"k"
                     ~value:(Printf.sprintf "v%d" i)
                     ~k:(fun r ->
                       match r with
                       | Error e -> Alcotest.failf "set %d: %s" i e
                       | Ok () ->
                           ops := !ops + 1;
                           pump (i + 1))
                 in
                 pump 0)))

let serve_kv tb vm addr =
  match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv: %s" (Types.err_to_string e)

(* ---- metric federation ---------------------------------------------------- *)

(* One loaded cluster observed end to end; returns every federated export. *)
let run_federated ~seed () =
  let tb, cluster, _nodea, _nodeb, _nsma, _nsmb = mk_cluster ~trace:true ~seed () in
  let vm0 = Nkfabric.place_vm cluster ~name:"srv0" ~vcpus:1 ~ips:[ 10 ] () in
  let vm1 = Nkfabric.place_vm cluster ~name:"srv1" ~vcpus:1 ~ips:[ 11 ] () in
  let client = add_client tb in
  let ops0 = ref 0 and ops1 = ref 0 in
  serve_kv tb vm0 (Addr.make 10 6379);
  serve_kv tb vm1 (Addr.make 11 6379);
  start_pump tb client (Addr.make 10 6379) ~ops:ops0;
  start_pump tb client (Addr.make 11 6379) ~ops:ops1;
  let obs = Nkobs.of_fabric cluster in
  Nkobs.start obs;
  Testbed.run tb ~until:0.3;
  Nkobs.stop obs;
  if !ops0 = 0 || !ops1 = 0 then Alcotest.fail "no traffic";
  obs

let federation_host_tags () =
  let obs = run_federated ~seed:11 () in
  Alcotest.(check int) "three sources" 3 (List.length (Nkobs.sources obs));
  Alcotest.(check (list string))
    "source tags in add order"
    [ "cluster"; "nodeA"; "nodeB" ]
    (List.map fst (Nkobs.sources obs));
  let rows = Nkobs.metric_rows (Nkobs.sources obs) in
  let hosts_seen =
    List.sort_uniq String.compare (List.map (fun r -> List.hd r) rows)
  in
  Alcotest.(check (list string))
    "every source contributes rows"
    [ "cluster"; "nodeA"; "nodeB" ]
    hosts_seen;
  (* Both per-node stacks show up under their own host tag. *)
  let has ~host ~component =
    List.exists
      (fun r -> List.nth r 0 = host && List.nth r 1 = component)
      rows
  in
  Alcotest.(check bool) "nodeA tcpstack federated" true (has ~host:"nodeA" ~component:"tcpstack");
  Alcotest.(check bool) "nodeB tcpstack federated" true (has ~host:"nodeB" ~component:"tcpstack");
  Alcotest.(check bool) "cluster-scope spine federated" true
    (has ~host:"cluster" ~component:"nkfabric");
  (* The merged trace interleaves hosts in virtual-time order. *)
  let merged = Nkobs.merged_trace (Nkobs.sources obs) in
  Alcotest.(check bool) "merged trace non-trivial" true (List.length merged > 100);
  let rec nondecreasing = function
    | (_, (a : Nkmon.Trace.record)) :: ((_, b) :: _ as tl) ->
        a.Nkmon.Trace.time <= b.Nkmon.Trace.time && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "merged trace time-ordered" true (nondecreasing merged);
  let trace_hosts = List.sort_uniq String.compare (List.map fst merged) in
  Alcotest.(check bool) "merged trace covers both nodes" true
    (List.mem "nodeA" trace_hosts && List.mem "nodeB" trace_hosts)

let federation_deterministic () =
  let snap () =
    let sources = Nkobs.sources (run_federated ~seed:77 ()) in
    ( Experiments.Report.to_csv (Experiments.Mon_report.table sources),
      Nkobs.metrics_json sources,
      Nkobs.trace_csv sources,
      Nkobs.trace_json sources )
  in
  let csv_a, json_a, tcsv_a, tjson_a = snap () in
  let csv_b, json_b, tcsv_b, tjson_b = snap () in
  Alcotest.(check bool) "csv non-trivial" true (String.length csv_a > 500);
  Alcotest.(check string) "metrics csv byte-identical" csv_a csv_b;
  Alcotest.(check string) "metrics json byte-identical" json_a json_b;
  Alcotest.(check string) "merged trace csv byte-identical" tcsv_a tcsv_b;
  Alcotest.(check string) "merged trace json byte-identical" tjson_a tjson_b

(* A single host is a one-source list: no plane, so nothing is registered
   into the world being exported, and the rows follow the registry. *)
let single_host_one_source () =
  let tb = Testbed.create ~config:{ Testbed.Config.default with trace_enabled = true } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:1 () in
  ignore (Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm ] ());
  let reg = Nkmon.registry tb.Testbed.mon in
  let before = Nkmon.Registry.cardinality reg in
  let sources = [ ("testbed", tb.Testbed.mon) ] in
  let rows = Nkobs.metric_rows sources in
  ignore (Nkobs.metrics_json sources, Nkobs.trace_csv sources, Nkobs.trace_json sources);
  ignore (Experiments.Mon_report.table sources);
  Alcotest.(check int) "cardinality unchanged by export" before
    (Nkmon.Registry.cardinality reg);
  Alcotest.(check bool) "world has metrics" true (before > 10);
  Alcotest.(check (list (list string)))
    "rows in Registry.entries order, host-tagged"
    (List.map
       (fun (e : Nkmon.Registry.entry) -> [ "testbed"; e.component; e.instance; e.metric ])
       (Nkmon.Registry.entries reg))
    (List.map (fun row -> List.filteri (fun i _ -> i < 4) row) rows);
  (* What a plane would have cost: its own rows in the observed registry. *)
  ignore (Nkobs.create ~engine:tb.Testbed.engine ~mon:tb.Testbed.mon ());
  Alcotest.(check bool) "a plane registers nkobs/plane rows" true
    (Nkmon.Registry.cardinality reg > before)

(* ---- SLO accounting ------------------------------------------------------- *)

let slo_windows () =
  let tb = Testbed.create () in
  let obs = Nkobs.create ~engine:tb.Testbed.engine ~mon:tb.Testbed.mon () in
  let lat = H.create () in
  let req = ref 0 and errs = ref 0 in
  Nkobs.add_tenant obs ~name:"gold"
    ~target:{ Nkobs.latency_p99 = Some 0.001; max_error_rate = 0.5; min_requests = 10 }
    ~probe:(fun () ->
      { Nkobs.p_requests = !req; p_errors = !errs; p_latency = lat });
  let errlat = H.create () in
  let ereq = ref 0 and eerrs = ref 0 in
  Nkobs.add_tenant obs ~name:"flaky"
    ~target:{ Nkobs.latency_p99 = None; max_error_rate = 0.0; min_requests = 10 }
    ~probe:(fun () ->
      { Nkobs.p_requests = !ereq; p_errors = !eerrs; p_latency = errlat });
  let record n v =
    for _ = 1 to n do
      H.record lat v;
      incr req
    done
  in
  let at d f = ignore (E.schedule tb.Testbed.engine ~delay:d f) in
  at 0.10 (fun () -> Nkobs.tick obs) (* first tick only snapshots *);
  at 0.20 (fun () -> record 100 0.0002; Nkobs.tick obs) (* healthy window *);
  at 0.30 (fun () -> record 5 0.0002; Nkobs.tick obs) (* < min_requests: held open *);
  at 0.40 (fun () -> record 100 0.005; Nkobs.tick obs) (* breach opens *);
  at 0.50 (fun () -> record 100 0.005; Nkobs.tick obs) (* still in breach: no re-alert *);
  at 0.60 (fun () ->
      record 100 0.0002;
      (* the flaky tenant serves a window with errors in the same tick *)
      for _ = 1 to 20 do H.record errlat 0.0001; incr ereq done;
      eerrs := 5;
      Nkobs.tick obs) (* gold recovers; flaky breaches on error_rate *);
  Testbed.run tb ~until:1.0;
  (match Nkobs.slo_status obs with
  | [ gold; flaky ] ->
      Alcotest.(check string) "gold status" "gold" gold.Nkobs.st_tenant;
      Alcotest.(check bool) "gold ok after recovery" true gold.Nkobs.st_ok;
      Alcotest.(check int) "gold windows evaluated" 4 gold.Nkobs.st_windows;
      Alcotest.(check int) "gold breach windows" 2 gold.Nkobs.st_breaches;
      Alcotest.(check int) "gold last window size" 100 gold.Nkobs.st_last_requests;
      if gold.Nkobs.st_last_p99 > 0.001 then Alcotest.fail "gold last p99 not healthy";
      Alcotest.(check bool) "flaky in breach" false flaky.Nkobs.st_ok;
      if Float.abs (flaky.Nkobs.st_last_error_rate -. 0.25) > 1e-9 then
        Alcotest.failf "flaky error rate %f" flaky.Nkobs.st_last_error_rate
  | l -> Alcotest.failf "expected 2 tenants, got %d" (List.length l));
  let kinds = List.map (fun (_, a) -> Nkobs.alert_type a) (Nkobs.alerts obs) in
  Alcotest.(check (list string))
    "alert stream: one breach, one recovery, one error_rate breach"
    [ "slo_breach"; "slo_recovered"; "slo_breach" ]
    kinds;
  (match Nkobs.alerts obs with
  | (_, Nkobs.Slo_breach { tenant; metric; _ }) :: _ ->
      Alcotest.(check string) "first breach tenant" "gold" tenant;
      Alcotest.(check string) "first breach metric" "p99" metric
  | _ -> Alcotest.fail "first alert not a breach");
  match List.rev (Nkobs.alerts obs) with
  | (_, Nkobs.Slo_breach { tenant; metric; _ }) :: _ ->
      Alcotest.(check string) "last breach tenant" "flaky" tenant;
      Alcotest.(check string) "last breach metric" "error_rate" metric
  | _ -> Alcotest.fail "last alert not a breach"

(* ---- edge-triggered pressure rules ---------------------------------------- *)

let pressure_rules_edge_triggered () =
  let tb = Testbed.create () in
  let mon = tb.Testbed.mon in
  let obs = Nkobs.create ~engine:tb.Testbed.engine ~mon () in
  Nkobs.add_source obs ~host:"h0" mon;
  let used = ref 0.0 and depth = ref 0.0 in
  Nkmon.sampler mon ~component:"hugepages" ~instance:"r0" ~name:"bytes_in_use" (fun () ->
      !used);
  Nkmon.sampler mon ~component:"hugepages" ~instance:"r0" ~name:"capacity_bytes"
    (fun () -> 100.0);
  Nkmon.sampler mon ~component:"coreengine" ~instance:"ce0" ~name:"deferred_depth"
    (fun () -> !depth);
  Nkobs.tick obs;
  Alcotest.(check int) "quiet below thresholds" 0 (Nkobs.alert_count obs);
  used := 95.0;
  depth := 100.0;
  Nkobs.tick obs;
  Alcotest.(check (list string))
    "both rules fire on the crossing"
    [ "hugepage_pressure"; "ring_pressure" ]
    (List.map (fun (_, a) -> Nkobs.alert_type a) (Nkobs.alerts obs));
  Nkobs.tick obs;
  Alcotest.(check int) "persistent condition stays quiet" 2 (Nkobs.alert_count obs);
  used := 10.0;
  depth := 0.0;
  Nkobs.tick obs;
  Alcotest.(check int) "clearing re-arms silently" 2 (Nkobs.alert_count obs);
  used := 95.0;
  Nkobs.tick obs;
  Alcotest.(check int) "re-crossing fires again" 3 (Nkobs.alert_count obs);
  match List.rev (Nkobs.alerts obs) with
  | (_, Nkobs.Hugepage_pressure { host; region; used_frac }) :: _ ->
      Alcotest.(check string) "host tag" "h0" host;
      Alcotest.(check string) "region" "r0" region;
      if Float.abs (used_frac -. 0.95) > 1e-9 then Alcotest.failf "frac %f" used_frac
  | _ -> Alcotest.fail "last alert not hugepage pressure"

(* ---- dropped events + the flight recorder --------------------------------- *)

let run_dropping_world () =
  let tb =
    Testbed.create
      ~config:
        { Testbed.Config.default with trace_enabled = true; trace_capacity = Some 16 }
      ()
  in
  let mon = tb.Testbed.mon in
  let obs = Nkobs.create ~engine:tb.Testbed.engine ~mon () in
  Nkobs.add_source obs ~host:"h0" mon;
  let burst n =
    for i = 1 to n do
      Nkmon.event mon (Nkmon.Trace.Ring_defer { vm_id = i })
    done
  in
  let at d f = ignore (E.schedule tb.Testbed.engine ~delay:d f) in
  at 0.1 (fun () -> burst 40; Nkobs.tick obs) (* ring of 16 wraps: alert *);
  at 0.2 (fun () -> burst 40; Nkobs.tick obs) (* still dropping: quiet *);
  at 0.3 (fun () -> Nkobs.tick obs) (* no new drops: re-arms *);
  at 0.4 (fun () -> burst 40; Nkobs.tick obs) (* fires again *);
  Testbed.run tb ~until:0.5;
  obs

let dropped_events_alerts () =
  let obs = run_dropping_world () in
  let drops =
    List.filter_map
      (fun (_, a) ->
        match a with Nkobs.Dropped_events { host; dropped } -> Some (host, dropped) | _ -> None)
      (Nkobs.alerts obs)
  in
  Alcotest.(check int) "edge-triggered: two alerts for three dropping ticks" 2
    (List.length drops);
  List.iter
    (fun (host, dropped) ->
      Alcotest.(check string) "host tag" "h0" host;
      Alcotest.(check bool) "positive delta" true (dropped > 0))
    drops

let flight_dumps_deterministic () =
  let snap () =
    let obs = run_dropping_world () in
    List.map
      (fun (time, alert, dump) ->
        Printf.sprintf "%.9f %s\n%s" time (Nkobs.alert_type alert) dump)
      (Nkobs.dumps obs)
    |> String.concat "\n--\n"
  in
  let a = snap () in
  let b = snap () in
  Alcotest.(check bool) "dumps captured" true (String.length a > 100);
  Alcotest.(check string) "flight dumps byte-identical across runs" a b;
  (* Shape: snapshot header names the alert, then host-tagged CSV rows. *)
  Alcotest.(check bool) "dump carries the flight header" true
    (contains ~affix:"# flight" a);
  Alcotest.(check bool) "dump rows host-tagged" true
    (contains ~affix:"\nh0," a)

(* ---- the responder loop: alert -> Nkctl verb ------------------------------ *)

let alert_drives_nkctl () =
  let tb = Testbed.create () in
  let host = Testbed.add_host tb ~name:"hostA" in
  let nsm0 = Nsm.create_kernel host ~name:"nsm0" ~vcpus:1 () in
  let ctl =
    Nkctl.create host
      ~policy:
        { Nkctl.Policy.default with high_watermark = infinity; low_watermark = 0.0 }
      ~spawn:(fun i -> Nsm.create_kernel host ~name:(Printf.sprintf "nsm%d" (i + 1)) ~vcpus:1 ())
      ()
  in
  Nkctl.manage ctl nsm0;
  let vm = Vm.create_nk host ~name:"vm" ~vcpus:1 ~ips:[ 10 ] ~nsms:[ nsm0 ] () in
  Nkctl.add_vm ctl vm ~home:nsm0;
  let obs = Nkobs.create ~engine:tb.Testbed.engine ~mon:tb.Testbed.mon () in
  Nkobs.add_source obs ~host:"hostA" tb.Testbed.mon;
  let used = ref 0.0 in
  Nkmon.sampler tb.Testbed.mon ~component:"hugepages" ~instance:"vm" ~name:"bytes_in_use"
    (fun () -> !used);
  Nkmon.sampler tb.Testbed.mon ~component:"hugepages" ~instance:"vm"
    ~name:"capacity_bytes" (fun () -> 100.0);
  let reacted = ref 0 in
  Nkobs.on_alert obs (fun ~time:_ alert ->
      match alert with
      | Nkobs.Hugepage_pressure _ ->
          incr reacted;
          let fresh = Nkctl.spawn_nsm ctl in
          Nkctl.handover ctl ~vm ~target:fresh
      | _ -> ());
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.1 (fun () ->
         used := 99.0;
         Nkobs.tick obs));
  Testbed.run tb ~until:0.3;
  Alcotest.(check int) "subscriber ran once" 1 !reacted;
  Alcotest.(check int) "spawn_nsm grew the pool" 2 (Nkctl.pool_size ctl);
  Alcotest.(check int) "handover recorded" 1 (Nkctl.stats ctl).Nkctl.handovers;
  (* The source NSM drains once nothing calls it home; the fresh spawn is
     the one serving. *)
  match Nkctl.active_nsms ctl with
  | [ fresh ] -> Alcotest.(check string) "fresh NSM serving" "nsm1" (Nsm.name fresh)
  | l -> Alcotest.failf "expected 1 active NSM, got %d" (List.length l)

(* ---- Mon_report surfaces dropped_events ----------------------------------- *)

let mon_report_dropped_note () =
  let tb =
    Testbed.create
      ~config:
        { Testbed.Config.default with trace_enabled = true; trace_capacity = Some 8 }
      ()
  in
  let sources = [ ("testbed", tb.Testbed.mon) ] in
  let clean = Experiments.Mon_report.table sources in
  Alcotest.(check (list string)) "no note while nothing dropped" [] clean.Experiments.Report.notes;
  for i = 1 to 40 do
    Nkmon.event tb.Testbed.mon (Nkmon.Trace.Ring_defer { vm_id = i })
  done;
  let r = Experiments.Mon_report.table sources in
  (match r.Experiments.Report.notes with
  | [ note ] ->
      Alcotest.(check bool) "note names the dropped count" true
        (contains ~affix:"dropped 32 events" note)
  | l -> Alcotest.failf "expected 1 note, got %d" (List.length l));
  (* The registry row version of the same truth (what --format csv shows). *)
  let row =
    List.find_opt
      (fun row -> List.nth row 1 = "nkmon" && List.nth row 3 = "dropped_events")
      r.Experiments.Report.rows
  in
  (match row with
  | Some cells -> Alcotest.(check string) "dropped_events row value" "32" (List.nth cells 4)
  | None -> Alcotest.fail "no nkmon/trace/dropped_events row");
  (* And what --format json shows: the per-host count and the metric. *)
  let json = Nkobs.metrics_json sources in
  Alcotest.(check bool) "json host carries dropped_events" true
    (contains ~affix:"\"host\":\"testbed\",\"metrics\":" json
    && contains ~affix:"\"dropped_events\":32}" json);
  Alcotest.(check bool) "json dropped_events metric" true
    (contains ~affix:"\"metric\":\"dropped_events\",\"kind\":\"gauge\",\"value\":32}" json)

(* ---- span ids are host-unique cluster-wide (satellite: Nkspan) ------------ *)

let span_ids_host_unique () =
  let tb, cluster, nodea, nodeb, _nsma, _nsmb = mk_cluster ~span_every:1 ~seed:5 () in
  let vm0 = Nkfabric.place_vm cluster ~name:"srv0" ~vcpus:1 ~ips:[ 10 ] () in
  let vm1 = Nkfabric.place_vm cluster ~name:"srv1" ~vcpus:1 ~ips:[ 11 ] () in
  let client = add_client tb in
  let ops0 = ref 0 and ops1 = ref 0 in
  serve_kv tb vm0 (Addr.make 10 6379);
  serve_kv tb vm1 (Addr.make 11 6379);
  start_pump tb client (Addr.make 10 6379) ~ops:ops0;
  start_pump tb client (Addr.make 11 6379) ~ops:ops1;
  Testbed.run tb ~until:0.3;
  if !ops0 = 0 || !ops1 = 0 then Alcotest.fail "no traffic";
  let sa = Nkfabric.node_spans nodea and sb = Nkfabric.node_spans nodeb in
  Alcotest.(check int) "nodeA host index" 1 (Nkspan.host_index sa);
  Alcotest.(check int) "nodeB host index" 2 (Nkspan.host_index sb);
  let ids spans = List.map Nkspan.span_id (Nkspan.finished_spans spans) in
  let ids_a = ids sa and ids_b = ids sb in
  Alcotest.(check bool) "both nodes collected spans" true (ids_a <> [] && ids_b <> []);
  List.iter
    (fun id ->
      Alcotest.(check int) "nodeA id carries host index 1" 1 (id lsr Nkspan.seq_bits))
    ids_a;
  List.iter
    (fun id ->
      Alcotest.(check int) "nodeB id carries host index 2" 2 (id lsr Nkspan.seq_bits))
    ids_b;
  let all = List.sort_uniq Int.compare (ids_a @ ids_b) in
  Alcotest.(check int) "ids unique cluster-wide"
    (List.length ids_a + List.length ids_b)
    (List.length all)

(* ---- spine stage reconciles across a live migration (satellite) ----------- *)

let spine_stage_reconciles () =
  let tb, cluster, nodea, nodeb, nsma, _nsmb = mk_cluster ~span_every:1 ~seed:11 () in
  let vm = Nkfabric.place_vm cluster ~name:"srv0" ~vcpus:1 ~ips:[ 10 ] () in
  let client = add_client tb in
  let ops = ref 0 in
  serve_kv tb vm (Addr.make 10 6379);
  start_pump tb client (Addr.make 10 6379) ~ops;
  let ops_at_cut = ref 0 in
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.2 (fun () ->
         ignore (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ());
         ops_at_cut := !ops));
  Testbed.run tb ~until:0.8;
  if !ops <= !ops_at_cut || !ops_at_cut = 0 then
    Alcotest.fail "connection did not keep serving across the migration";
  (* Spans are minted (and the spine stage recorded) on the home node. *)
  let spans = Nkfabric.node_spans nodea in
  let b = Nkspan.breakdown spans in
  Alcotest.(check bool) "spans collected" true (b.Nkspan.b_spans > 50);
  (match List.assoc_opt "spine" b.Nkspan.b_stages with
  | Some h -> Alcotest.(check bool) "spine stage recorded" true (H.count h > 0)
  | None -> Alcotest.fail "no spine stage in the breakdown");
  let e2e = H.mean b.Nkspan.b_e2e in
  let stage_sum =
    List.fold_left (fun acc (_, h) -> acc +. H.mean h) 0.0 b.Nkspan.b_stages
  in
  Alcotest.(check bool) "stage means reconcile with e2e through the spine" true
    (Float.abs (stage_sum -. e2e) <= 1e-9 *. Float.max 1.0 e2e)

let tests =
  [
    Alcotest.test_case "federation: host tags + merged trace" `Quick federation_host_tags;
    Alcotest.test_case "federation exports deterministic" `Quick federation_deterministic;
    Alcotest.test_case "single host exports as one source" `Quick single_host_one_source;
    Alcotest.test_case "SLO windows: breach, recovery, min_requests" `Quick slo_windows;
    Alcotest.test_case "pressure rules edge-triggered" `Quick pressure_rules_edge_triggered;
    Alcotest.test_case "dropped-events alerts edge-triggered" `Quick dropped_events_alerts;
    Alcotest.test_case "flight dumps byte-identical" `Quick flight_dumps_deterministic;
    Alcotest.test_case "alert drives Nkctl spawn + handover" `Quick alert_drives_nkctl;
    Alcotest.test_case "Mon_report surfaces dropped_events" `Quick mon_report_dropped_note;
    Alcotest.test_case "span ids host-unique cluster-wide" `Quick span_ids_host_unique;
    Alcotest.test_case "spine stage reconciles across migration" `Quick spine_stage_reconciles;
  ]
