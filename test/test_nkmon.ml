(* Nkmon unit tests: registry semantics (idempotent registration, kind
   mismatch, deterministic export through the one-source Nkobs path),
   histogram summarisation, and the trace ring buffer (wraparound, seq
   numbering, drop accounting). *)

module R = Nkmon.Registry
module T = Nkmon.Trace

let registry_basics () =
  let r = R.create () in
  let c = R.counter r ~component:"ce" ~instance:"a" ~name:"switched" in
  R.incr c;
  R.add c 10;
  Alcotest.(check int) "counter value" 11 (R.counter_value c);
  (* Re-registering the same key returns the same handle. *)
  let c' = R.counter r ~component:"ce" ~instance:"a" ~name:"switched" in
  R.incr c';
  Alcotest.(check int) "idempotent handle" 12 (R.counter_value c);
  Alcotest.(check int) "one entry" 1 (R.cardinality r);
  (match R.find r ~component:"ce" ~instance:"a" ~name:"switched" with
  | Some (R.Counter 12) -> ()
  | _ -> Alcotest.fail "find returned wrong value");
  let g = R.gauge r ~component:"ce" ~instance:"a" ~name:"depth" in
  R.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge value" 3.5 (R.gauge_value g);
  R.sampler r ~component:"ce" ~instance:"a" ~name:"live" (fun () -> 7.0);
  (match R.find r ~component:"ce" ~instance:"a" ~name:"live" with
  | Some (R.Gauge 7.0) -> ()
  | _ -> Alcotest.fail "sampler not evaluated");
  Alcotest.(check int) "three entries" 3 (R.cardinality r)

let kind_mismatch () =
  let r = R.create () in
  ignore (R.counter r ~component:"x" ~instance:"y" ~name:"m");
  Alcotest.check_raises "counter key reused as gauge"
    (Invalid_argument "Nkmon.Registry: x/y/m is a counter, not a gauge") (fun () ->
      ignore (R.gauge r ~component:"x" ~instance:"y" ~name:"m"))

let export_sorted () =
  (* A detached handle registers nothing of its own, so the export holds
     exactly the three metrics below. *)
  let mon = Nkmon.null () in
  let r = Nkmon.registry mon in
  (* Register out of order; export must sort by component/instance/metric. *)
  ignore (R.counter r ~component:"b" ~instance:"i" ~name:"z");
  ignore (R.counter r ~component:"a" ~instance:"j" ~name:"y");
  ignore (R.counter r ~component:"a" ~instance:"i" ~name:"x");
  let keys =
    List.map (fun e -> (e.R.component, e.R.instance, e.R.metric)) (R.entries r)
  in
  Alcotest.(check bool)
    "sorted" true
    (keys = [ ("a", "i", "x"); ("a", "j", "y"); ("b", "i", "z") ]);
  let rows = Nkobs.metric_rows [ ("h", mon) ] in
  Alcotest.(check int) "row count" 3 (List.length rows);
  Alcotest.(check bool)
    "rows sorted, host tag first" true
    (List.map (fun row -> (List.nth row 0, List.nth row 1, List.nth row 2, List.nth row 3)) rows
    = [ ("h", "a", "i", "x"); ("h", "a", "j", "y"); ("h", "b", "i", "z") ]);
  let csv = Experiments.Report.to_csv (Experiments.Mon_report.table [ ("h", mon) ]) in
  Alcotest.(check bool) "csv has header" true
    (String.length csv > 0 && String.sub csv 0 14 = "host,component")

let histogram_export () =
  let mon = Nkmon.null () in
  let r = Nkmon.registry mon in
  let h = R.histogram r ~component:"tc" ~instance:"s" ~name:"lat" in
  for i = 1 to 100 do
    Nkutil.Histogram.record h (float_of_int i)
  done;
  (match R.find r ~component:"tc" ~instance:"s" ~name:"lat" with
  | Some (R.Histogram h') ->
      Alcotest.(check int) "count through registry" 100 (Nkutil.Histogram.count h')
  | _ -> Alcotest.fail "histogram not found");
  let cell = List.nth (List.hd (Nkobs.metric_rows [ ("h", mon) ])) 4 in
  Alcotest.(check bool) "summary mentions count" true
    (String.length cell >= 5 && String.sub cell 0 5 = "n=100");
  (* p50/p99 land near the true percentiles (log-bucketed, so approximate). *)
  let p50 = Nkutil.Histogram.percentile h 50.0 in
  let p99 = Nkutil.Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p50 in range" true (p50 >= 40.0 && p50 <= 60.0);
  Alcotest.(check bool) "p99 in range" true (p99 >= 90.0 && p99 <= 110.0)

let trace_ring_wraparound () =
  let now = ref 0.0 in
  let tr = T.create ~capacity:4 ~enabled:true ~now:(fun () -> !now) () in
  for i = 1 to 10 do
    now := float_of_int i;
    T.record tr (T.Ring_defer { vm_id = i })
  done;
  Alcotest.(check int) "recorded" 10 (T.recorded tr);
  Alcotest.(check int) "dropped" 6 (T.dropped tr);
  let rs = T.records tr in
  Alcotest.(check int) "ring holds capacity" 4 (List.length rs);
  (* The survivors are the newest four, in seq order. *)
  Alcotest.(check (list int)) "survivor seqs" [ 6; 7; 8; 9 ]
    (List.map (fun r -> r.T.seq) rs);
  Alcotest.(check (float 0.0)) "virtual timestamps" 7.0 (List.hd rs).T.time;
  T.clear tr;
  Alcotest.(check int) "clear resets" 0 (T.recorded tr);
  (* The same window below, at and past a capacity the ring's array grows
     to as it fills, and again after a clear. Each record's vm_id is its
     seq. *)
  let tr = T.create ~capacity:1000 ~enabled:true ~now:(fun () -> 0.0) () in
  for _ = 1 to 2 do
    List.iter
      (fun n ->
        while T.recorded tr < n do
          T.record tr (T.Ring_defer { vm_id = T.recorded tr })
        done;
        let kept = Int.min n 1000 in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "newest %d of %d" kept n)
          (List.init kept (fun i -> (n - kept + i, n - kept + i)))
          (List.map
             (fun r ->
               match r.T.event with
               | T.Ring_defer { vm_id } -> (r.T.seq, vm_id)
               | _ -> (r.T.seq, -1))
             (T.records tr));
        Alcotest.(check int) "dropped" (n - kept) (T.dropped tr);
        Alcotest.(check int) "capacity" 1000 (T.capacity tr))
      [ 10; 1000; 2500 ];
    T.clear tr;
    Alcotest.(check int) "nothing after clear" 0 (List.length (T.records tr));
    Alcotest.(check int) "no drops after clear" 0 (T.dropped tr)
  done

(* Control events live in their own log: kept with tracing off and across a
   wrapped ring, merged with the ring in seq order, never counted as
   dropped. *)
let control_log_kept () =
  let tr = T.create ~capacity:2 ~enabled:false ~now:(fun () -> 0.0) () in
  let ctl name = T.record tr (T.Custom { component = "t"; name; detail = "" }) in
  ctl "off";
  T.record tr (T.Ring_defer { vm_id = 0 });
  Alcotest.(check int) "kept with tracing off" 1 (List.length (T.records tr));
  T.set_enabled tr true;
  for i = 1 to 3 do
    T.record tr (T.Ring_defer { vm_id = i });
    ctl (Printf.sprintf "c%d" i)
  done;
  T.record tr (T.Ring_defer { vm_id = 4 });
  Alcotest.(check int) "only ring overwrites dropped" 2 (T.dropped tr);
  Alcotest.(check int) "recorded counts both" 8 (T.recorded tr);
  let kinds =
    List.map
      (fun r ->
        match r.T.event with
        | T.Custom { name; _ } -> (r.T.seq, name)
        | T.Ring_defer { vm_id } -> (r.T.seq, string_of_int vm_id)
        | _ -> (r.T.seq, "?"))
      (T.records tr)
  in
  Alcotest.(check (list (pair int string)))
    "ring survivors and every control event, in seq order"
    [ (0, "off"); (2, "c1"); (4, "c2"); (5, "3"); (6, "c3"); (7, "4") ]
    kinds

let trace_disabled_is_free () =
  let tr = T.create ~capacity:4 ~enabled:false ~now:(fun () -> 0.0) () in
  T.record tr (T.Ring_defer { vm_id = 1 });
  Alcotest.(check int) "nothing recorded" 0 (T.recorded tr);
  T.set_enabled tr true;
  T.record tr (T.Ring_defer { vm_id = 1 });
  Alcotest.(check int) "recorded after enable" 1 (T.recorded tr)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  loop 0

let trace_export_shapes () =
  let mon = Nkmon.create ~trace_capacity:8 ~trace_enabled:true ~now:(fun () -> 0.5) () in
  Nkmon.event mon
    (T.Nqe_enqueue
       { device = 1; qset = 0; queue = T.Job; op = "socket"; vm_id = 1; sock = 7 });
  Nkmon.event mon
    (T.Tcp_state { stack = "nsm"; sock = 7; old_state = "SYN_SENT"; new_state = "ESTABLISHED" });
  let sources = [ ("h", mon) ] in
  let json = Nkobs.trace_json sources in
  let csv = Nkobs.trace_csv sources in
  Alcotest.(check bool) "json mentions both events" true
    (contains json "nqe_enqueue" && contains json "tcp_state");
  Alcotest.(check bool) "csv has header" true
    (String.sub csv 0 13 = "host,seq,time");
  (* Export is deterministic for identical content. *)
  Alcotest.(check string) "json stable" json (Nkobs.trace_json sources)

let null_handle_works () =
  let mon = Nkmon.null () in
  let c = Nkmon.counter mon ~component:"a" ~instance:"b" ~name:"c" in
  Nkmon.Registry.incr c;
  Alcotest.(check int) "null counter still counts" 1 (Nkmon.Registry.counter_value c);
  Alcotest.(check bool) "null tracing off" false (Nkmon.tracing mon);
  Nkmon.event mon (T.Ring_defer { vm_id = 1 });
  Alcotest.(check int) "null trace drops" 0 (T.recorded (Nkmon.trace mon))

let tests =
  [
    Alcotest.test_case "registry basics" `Quick registry_basics;
    Alcotest.test_case "kind mismatch raises" `Quick kind_mismatch;
    Alcotest.test_case "export is sorted" `Quick export_sorted;
    Alcotest.test_case "histogram percentile export" `Quick histogram_export;
    Alcotest.test_case "trace ring wraparound" `Quick trace_ring_wraparound;
    Alcotest.test_case "control events kept in their own log" `Quick control_log_kept;
    Alcotest.test_case "disabled trace records nothing" `Quick trace_disabled_is_free;
    Alcotest.test_case "trace export shapes" `Quick trace_export_shapes;
    Alcotest.test_case "null handle" `Quick null_handle_works;
  ]
