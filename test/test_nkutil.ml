(* Unit and property tests for the utility substrate. *)

module H = Heap
module R = Nkutil.Rng
module Ring = Nkutil.Spsc_ring
module TB = Nkutil.Token_bucket
module Hist = Nkutil.Histogram
module BF = Nkutil.Byte_fifo
module TS = Nkutil.Timeseries

(* ---- heap ----------------------------------------------------------- *)

let heap_sorted_pops () =
  let h = H.create ~dummy:0 ~leq:(fun (a : int) b -> a <= b) () in
  List.iter (H.add h) [ 5; 3; 8; 1; 9; 2; 7; 1 ];
  let rec drain acc =
    match H.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops are sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = H.create ~dummy:0 ~leq:(fun (a : int) b -> a <= b) () in
      List.iter (H.add h) xs;
      let rec drain acc =
        match H.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let heap_of_floats () =
  (* Regression: unused slots used to be filled with [Obj.magic 0], which is
     unsound for float elements — the backing array uses the unboxed
     flat-float-array representation, so an immediate 0 in a slot corrupts
     it. A tiny initial capacity forces growth (and [grow]'s dummy fill). *)
  let h = H.create ~capacity:1 ~dummy:nan ~leq:(fun (a : float) b -> a <= b) () in
  List.iter (H.add h) [ 3.5; 1.25; 2.75; 0.5; 8.0 ];
  let rec drain acc =
    match H.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list (float 0.0)))
    "sorted floats" [ 0.5; 1.25; 2.75; 3.5; 8.0 ] (drain [])

(* ---- rng ------------------------------------------------------------- *)

let rng_deterministic () =
  let a = R.create ~seed:7 and b = R.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (R.bits64 a) (R.bits64 b)
  done

let rng_ranges () =
  let rng = R.create ~seed:3 in
  for _ = 1 to 10_000 do
    let f = R.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f;
    let i = R.int rng 17 in
    if i < 0 || i >= 17 then Alcotest.failf "int out of range: %d" i
  done

let rng_exponential_mean () =
  let rng = R.create ~seed:9 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. R.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 4.0) > 0.15 then Alcotest.failf "exp mean off: %f" mean

(* ---- spsc ring --------------------------------------------------------- *)

let ring_fifo () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 8 do
    Alcotest.(check bool) "push" true (Ring.push r i)
  done;
  Alcotest.(check bool) "full" false (Ring.push r 9);
  for i = 1 to 8 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Ring.pop r)
  done;
  Alcotest.(check (option int)) "empty" None (Ring.pop r)

let ring_qcheck =
  QCheck.Test.make ~name:"ring preserves order under mixed ops" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      (* Some x = push x, None = pop; mirror against a plain Queue. *)
      let r = Ring.create ~capacity:16 in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              let pushed = Ring.push r x in
              let fits = Queue.length q < Ring.capacity r in
              if fits then Queue.add x q;
              pushed = fits
          | None -> (
              match (Ring.pop r, Queue.take_opt q) with
              | Some a, Some b -> a = b
              | None, None -> true
              | _ -> false))
        ops)

let ring_batch () =
  let r = Ring.create ~capacity:8 in
  List.iter (fun x -> Alcotest.(check bool) "push" true (Ring.push r x)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "batch pop" [ 1; 2; 3 ] (Ring.pop_batch r ~max:3);
  let buf = Array.make 6 0 in
  Alcotest.(check int) "pop_slice stops when empty" 2 (Ring.pop_slice r buf ~pos:3 ~max:3);
  Alcotest.(check (array int)) "pop_slice fills from pos" [| 0; 0; 0; 4; 5; 0 |] buf;
  List.iter (fun x -> ignore (Ring.push r x)) [ 6; 7; 8 ];
  Alcotest.(check int) "pop_slice stops at max" 2 (Ring.pop_slice r buf ~pos:1 ~max:2);
  Alcotest.(check (array int)) "pop_slice overwrites" [| 0; 6; 7; 4; 5; 0 |] buf;
  Alcotest.(check (list int)) "rest stays queued" [ 8 ] (Ring.pop_batch r ~max:8)

(* ---- token bucket ------------------------------------------------------- *)

let bucket_rate () =
  let b = TB.create ~rate:100.0 ~burst:10.0 ~now:0.0 in
  Alcotest.(check bool) "burst available" true (TB.try_take b ~now:0.0 10.0);
  Alcotest.(check bool) "empty now" false (TB.try_take b ~now:0.0 1.0);
  (* after 0.05s, 5 tokens accrue *)
  Alcotest.(check bool) "refill partial" true (TB.try_take b ~now:0.05 5.0);
  Alcotest.(check bool) "no over-refill" false (TB.try_take b ~now:0.05 0.5);
  let wait = TB.time_until b ~now:0.05 5.0 in
  if Float.abs (wait -. 0.05) > 1e-9 then Alcotest.failf "time_until wrong: %f" wait

let bucket_burst_cap () =
  let b = TB.create ~rate:100.0 ~burst:10.0 ~now:0.0 in
  ignore (TB.try_take b ~now:0.0 10.0);
  (* long idle: capped at burst *)
  Alcotest.(check bool) "capped" false (TB.try_take b ~now:100.0 10.5);
  Alcotest.(check bool) "burst ok" true (TB.try_take b ~now:100.0 10.0)

(* ---- histogram ------------------------------------------------------------ *)

let histogram_moments () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 0.001; 0.002; 0.003; 0.004; 0.005 ];
  Alcotest.(check int) "count" 5 (Hist.count h);
  if Float.abs (Hist.mean h -. 0.003) > 1e-9 then Alcotest.fail "mean";
  if Float.abs (Hist.min h -. 0.001) > 1e-12 then Alcotest.fail "min";
  if Float.abs (Hist.max h -. 0.005) > 1e-12 then Alcotest.fail "max";
  let med = Hist.median h in
  if med < 0.0029 || med > 0.0032 then Alcotest.failf "median %f" med

let histogram_qcheck =
  QCheck.Test.make ~name:"histogram percentile within relative error" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 1e-6 100.0))
    (fun xs ->
      let h = Hist.create () in
      List.iter (Hist.record h) xs;
      let sorted = List.sort Float.compare xs in
      let exact p =
        let n = List.length sorted in
        List.nth sorted (Int.min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))
      in
      List.for_all
        (fun p ->
          let approx = Hist.percentile h p in
          let ex = Float.max (exact p) 1e-9 in
          approx >= ex *. 0.9 && approx <= ex *. 1.1)
        [ 50.0; 90.0; 99.0 ])

(* A bucket's upper edge can lie above the largest sample: quick table5's
   mTCP row once printed a median of 5.51 ms over a max of 5.49 ms. *)
let histogram_percentile_within_range () =
  let h = Hist.create () in
  Hist.record h 5.49e-3;
  List.iter
    (fun p ->
      let v = Hist.percentile h p in
      if v < Hist.min h || v > Hist.max h then
        Alcotest.failf "p%g = %g outside [%g, %g]" p v (Hist.min h) (Hist.max h))
    [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

let histogram_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.record a) [ 0.01; 0.02 ];
  List.iter (Hist.record b) [ 0.03; 0.04 ];
  Hist.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged count" 4 (Hist.count a);
  if Float.abs (Hist.mean a -. 0.025) > 1e-9 then Alcotest.fail "merged mean";
  if Float.abs (Hist.max a -. 0.04) > 1e-12 then Alcotest.fail "merged max"

(* copy is independent of the original; diff of two snapshots of a growing
   cumulative histogram recovers the window exactly (count and mean) and
   its percentiles reflect only the window's samples — the rolling-window
   primitive Nkobs SLO accounting is built on. *)
let histogram_copy_diff () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 0.001; 0.002 ];
  let snap = Hist.copy h in
  List.iter (Hist.record h) [ 0.040; 0.050; 0.060 ];
  Alcotest.(check int) "copy frozen at snapshot" 2 (Hist.count snap);
  let w = Hist.diff ~newer:h ~older:snap in
  Alcotest.(check int) "window count" 3 (Hist.count w);
  if Float.abs (Hist.mean w -. 0.050) > 1e-9 then
    Alcotest.failf "window mean %f" (Hist.mean w);
  (* The window's p50 sits in the new samples' range, far from the old
     fast samples the diff subtracted out. *)
  let p50 = Hist.percentile w 50.0 in
  if p50 < 0.030 then Alcotest.failf "window p50 %f contaminated by old samples" p50;
  (* Empty window: diffing a snapshot against itself. *)
  let z = Hist.diff ~newer:(Hist.copy h) ~older:(Hist.copy h) in
  Alcotest.(check int) "empty window count" 0 (Hist.count z);
  (* Incompatible geometries are rejected rather than silently misbinned. *)
  (match Hist.diff ~newer:(Hist.create ~sub_buckets:8 ()) ~older:(Hist.create ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "diff accepted incompatible geometries");
  (* A shrinking counter (newer missing older's samples) is a caller bug. *)
  match Hist.diff ~newer:snap ~older:h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "diff accepted a non-superset newer"

(* ---- byte fifo ----------------------------------------------------------- *)

let byte_fifo_content () =
  let f = BF.create () in
  BF.write f "hello ";
  BF.write f "world";
  Alcotest.(check int) "len" 11 (BF.length f);
  Alcotest.(check string) "read across chunks" "hello wor" (BF.read f 9);
  Alcotest.(check string) "rest" "ld" (BF.read f 10)

let byte_fifo_zero_runs () =
  let f = BF.create () in
  BF.write_zeros f 100;
  BF.write_zeros f 50;
  (* consecutive runs coalesce *)
  (match BF.next_run f with
  | Some (`Zeros 150) -> ()
  | Some (`Zeros n) -> Alcotest.failf "run not coalesced: %d" n
  | _ -> Alcotest.fail "expected zeros run");
  BF.write f "abc";
  BF.write_zeros f 7;
  Alcotest.(check int) "discard run" 150 (BF.discard f 150);
  Alcotest.(check string) "data after zeros" "abc" (BF.read f 3);
  match BF.next_run f with
  | Some (`Zeros 7) -> ()
  | _ -> Alcotest.fail "trailing zeros intact"

let byte_fifo_zero_coalesce_after_drain () =
  (* Regression: a fully-drained zero-run must not be resurrected. *)
  let f = BF.create () in
  BF.write_zeros f 10;
  Alcotest.(check int) "drain" 10 (BF.discard f 10);
  BF.write_zeros f 5;
  Alcotest.(check int) "new run readable" 5 (BF.discard f 5);
  Alcotest.(check int) "empty" 0 (BF.length f)

let byte_fifo_transfer () =
  let a = BF.create () and b = BF.create () in
  BF.write a "xyz";
  BF.write_zeros a 5;
  Alcotest.(check int) "moved" 6 (BF.transfer ~src:a ~dst:b 6);
  Alcotest.(check int) "src left" 2 (BF.length a);
  Alcotest.(check string) "dst data" "xyz" (BF.read b 3);
  match BF.next_run b with
  | Some (`Zeros 3) -> ()
  | _ -> Alcotest.fail "zeros preserved compactly"

let byte_fifo_qcheck =
  QCheck.Test.make ~name:"byte fifo equals reference string" ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let f = BF.create () in
      let model = Buffer.create 64 in
      let out_f = Buffer.create 64 and out_m = Buffer.create 64 in
      List.iter
        (fun (is_write, n) ->
          if is_write then begin
            let s = String.init (n mod 17) (fun i -> Char.chr (65 + (i mod 26))) in
            BF.write f s;
            Buffer.add_string model s
          end
          else begin
            let got = BF.read f n in
            Buffer.add_string out_f got;
            let avail = Buffer.length model in
            let take = Int.min n avail in
            Buffer.add_string out_m (Buffer.sub model 0 take);
            let rest = Buffer.sub model take (avail - take) in
            Buffer.clear model;
            Buffer.add_string model rest
          end)
        ops;
      Buffer.contents out_f = Buffer.contents out_m)

(* ---- timeseries ------------------------------------------------------------ *)

let timeseries_bins () =
  let ts = TS.create ~bin_width:0.1 () in
  TS.add ts ~time:0.05 1.0;
  TS.add ts ~time:0.07 2.0;
  TS.add ts ~time:0.25 4.0;
  Alcotest.(check int) "bins" 3 (TS.num_bins ts);
  if TS.get ts 0 <> 3.0 then Alcotest.fail "bin 0";
  if TS.get ts 1 <> 0.0 then Alcotest.fail "bin 1";
  if TS.get ts 2 <> 4.0 then Alcotest.fail "bin 2";
  if Float.abs (TS.rate ts 2 -. 40.0) > 1e-9 then Alcotest.fail "rate"

(* ---- stats -------------------------------------------------------------------- *)

let stats_jain () =
  if Float.abs (Nkutil.Stats.jain_fairness [| 5.0; 5.0 |] -. 1.0) > 1e-9 then
    Alcotest.fail "equal shares";
  let skew = Nkutil.Stats.jain_fairness [| 9.0; 1.0 |] in
  if skew > 0.62 || skew < 0.60 then Alcotest.failf "jain skew %f" skew

let tests =
  [
    Alcotest.test_case "heap sorted pops" `Quick heap_sorted_pops;
    QCheck_alcotest.to_alcotest heap_qcheck;
    Alcotest.test_case "heap of floats (Obj.magic regression)" `Quick heap_of_floats;
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng ranges" `Quick rng_ranges;
    Alcotest.test_case "rng exponential mean" `Quick rng_exponential_mean;
    Alcotest.test_case "ring FIFO + capacity" `Quick ring_fifo;
    QCheck_alcotest.to_alcotest ring_qcheck;
    Alcotest.test_case "ring batch ops" `Quick ring_batch;
    Alcotest.test_case "token bucket rate" `Quick bucket_rate;
    Alcotest.test_case "token bucket burst cap" `Quick bucket_burst_cap;
    Alcotest.test_case "histogram moments" `Quick histogram_moments;
    QCheck_alcotest.to_alcotest histogram_qcheck;
    Alcotest.test_case "histogram percentile within [min, max]" `Quick
      histogram_percentile_within_range;
    Alcotest.test_case "histogram merge" `Quick histogram_merge;
    Alcotest.test_case "histogram copy/diff windows" `Quick histogram_copy_diff;
    Alcotest.test_case "byte fifo content" `Quick byte_fifo_content;
    Alcotest.test_case "byte fifo zero runs" `Quick byte_fifo_zero_runs;
    Alcotest.test_case "byte fifo coalesce-after-drain" `Quick
      byte_fifo_zero_coalesce_after_drain;
    Alcotest.test_case "byte fifo transfer" `Quick byte_fifo_transfer;
    QCheck_alcotest.to_alcotest byte_fifo_qcheck;
    Alcotest.test_case "timeseries bins" `Quick timeseries_bins;
    Alcotest.test_case "jain fairness" `Quick stats_jain;
  ]
