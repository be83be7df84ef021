(* Values are scaled to integer "ticks" (nanoseconds for seconds input) and
   bucketed log-linearly: the first [b] ticks get their own bucket, then each
   doubling of magnitude gets [b/2] linear buckets, giving a bounded relative
   error of 2/b. *)

let scale = 1e9

(* Values above 1e6 (seconds, about 11.6 days) clamp to it. *)
let max_ticks = int_of_float (1e6 *. scale)

(* The running moments, in a record of floats only: OCaml stores its
   fields unboxed, so a sample updates them without allocating. *)
type moments = {
  mutable vmin : float;
  mutable vmax : float;
  mutable mean_acc : float; (* Welford running mean *)
  mutable m2 : float; (* Welford running sum of squared deviations *)
}

type t = {
  sub : int; (* sub-buckets per magnitude; power of two *)
  sub_bits : int;
  counts : int array;
  mutable total : int;
  m : moments;
}

let msb_position n =
  (* position of most significant set bit; n > 0 *)
  let rec loop n p = if n = 1 then p else loop (n lsr 1) (p + 1) in
  loop n 0

let index_of t n =
  if n < t.sub then n
  else begin
    let k = msb_position n in
    let m = k - t.sub_bits + 1 in
    let half = t.sub / 2 in
    let s = n lsr m in
    (half * (m + 1)) + (s - half)
  end

let upper_of_index t i =
  let half = t.sub / 2 in
  if i < t.sub then float_of_int i /. scale
  else begin
    let m = (i / half) - 1 in
    let s = (i mod half) + half in
    float_of_int (((s + 1) lsl m) - 1) /. scale
  end

let create ?(sub_buckets = 32) () =
  if sub_buckets < 2 || sub_buckets land (sub_buckets - 1) <> 0 then
    invalid_arg "Histogram.create: sub_buckets must be a power of two >= 2";
  let sub_bits = msb_position sub_buckets in
  let probe =
    { sub = sub_buckets; sub_bits; counts = [||]; total = 0;
      m = { vmin = infinity; vmax = neg_infinity; mean_acc = 0.0; m2 = 0.0 } }
  in
  let nbuckets = index_of probe max_ticks + 1 in
  { probe with counts = Array.make nbuckets 0 }

let record_n t v n =
  if n > 0 then begin
    let v = if v < 0.0 then 0.0 else v in
    let ticks = Int.min max_ticks (int_of_float (v *. scale)) in
    let i = index_of t ticks in
    t.counts.(i) <- t.counts.(i) + n;
    let m = t.m in
    if v < m.vmin then m.vmin <- v;
    if v > m.vmax then m.vmax <- v;
    for _ = 1 to n do
      t.total <- t.total + 1;
      let delta = v -. m.mean_acc in
      m.mean_acc <- m.mean_acc +. (delta /. float_of_int t.total);
      m.m2 <- m.m2 +. (delta *. (v -. m.mean_acc))
    done
  end

let record t v = record_n t v 1

let count t = t.total

let min t = if t.total = 0 then 0.0 else t.m.vmin

let max t = if t.total = 0 then 0.0 else t.m.vmax

let mean t = if t.total = 0 then 0.0 else t.m.mean_acc

let stddev t = if t.total = 0 then 0.0 else sqrt (t.m.m2 /. float_of_int t.total)

let percentile t p =
  if t.total = 0 then 0.0
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let target = Int.max 1 target in
    (* A bucket's upper edge can lie above the largest sample, so clamp it
       to the exact max. The min side cannot bind: the first non-empty
       bucket's upper edge is never below min. *)
    let rec loop i seen =
      if i >= Array.length t.counts then max t
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= target then Float.min t.m.vmax (upper_of_index t i)
        else loop (i + 1) seen
      end
    in
    loop 0 0
  end

let median t = percentile t 50.0

let merge_into ~src ~dst =
  if Array.length src.counts <> Array.length dst.counts || src.sub <> dst.sub then
    invalid_arg "Histogram.merge_into: incompatible histograms";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  (* Combine the exact moments with Chan's parallel update. *)
  if src.total > 0 then begin
    let s = src.m and d = dst.m in
    let na = float_of_int dst.total and nb = float_of_int src.total in
    let delta = s.mean_acc -. d.mean_acc in
    let n = na +. nb in
    d.mean_acc <- d.mean_acc +. (delta *. nb /. n);
    d.m2 <- d.m2 +. s.m2 +. (delta *. delta *. na *. nb /. n);
    dst.total <- dst.total + src.total;
    if s.vmin < d.vmin then d.vmin <- s.vmin;
    if s.vmax > d.vmax then d.vmax <- s.vmax
  end

let copy t =
  let m = t.m in
  {
    t with
    counts = Array.copy t.counts;
    m = { vmin = m.vmin; vmax = m.vmax; mean_acc = m.mean_acc; m2 = m.m2 };
  }

let diff ~newer ~older =
  if
    Array.length newer.counts <> Array.length older.counts
    || newer.sub <> older.sub
  then invalid_arg "Histogram.diff: incompatible histograms";
  let counts =
    Array.init (Array.length newer.counts) (fun i ->
        let d = newer.counts.(i) - older.counts.(i) in
        if d < 0 then invalid_arg "Histogram.diff: newer is not a superset"
        else d)
  in
  let total = newer.total - older.total in
  if total < 0 then invalid_arg "Histogram.diff: newer is not a superset";
  (* Chan's update run in reverse recovers the exact mean and (up to float
     rounding) the m2 of the window; min/max are only known to bucket
     resolution, so use the edges of the outermost non-empty buckets. *)
  let mean_acc =
    if total = 0 then 0.0
    else
      ((float_of_int newer.total *. newer.m.mean_acc)
      -. (float_of_int older.total *. older.m.mean_acc))
      /. float_of_int total
  in
  let m2 =
    if total = 0 then 0.0
    else begin
      let na = float_of_int older.total and nb = float_of_int total in
      let delta = older.m.mean_acc -. mean_acc in
      Float.max 0.0
        (newer.m.m2 -. older.m.m2 -. (delta *. delta *. na *. nb /. (na +. nb)))
    end
  in
  let vmin = ref infinity and vmax = ref neg_infinity in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let edge = upper_of_index newer i in
        if !vmin = infinity then vmin := edge;
        vmax := edge
      end)
    counts;
  {
    sub = newer.sub;
    sub_bits = newer.sub_bits;
    counts;
    total;
    m = { vmin = !vmin; vmax = !vmax; mean_acc; m2 };
  }
