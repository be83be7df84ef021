(* Named metrics, the virtual-time (simulated) end-to-end set, and the
   output format: one "name value unit" line per metric for humans, then
   the JSON result line. *)

module W = Workloads

type t = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let per x ops = x /. ops

(* Nearest-rank percentile of sorted samples. *)
let pct (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    a.(Int.min (n - 1) (Int.max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* p99.9 needs at least this many samples (ten beyond it). *)
let p999_min_samples = 10_000

(* The simulated NetKernel's own performance: deterministic per seed. *)
let sim ~server_cycles (o : W.outcome) =
  let window = o.W.t_last -. o.W.t_first in
  let lat = o.W.latency in
  let us p = pct lat p *. 1e6 in
  [
    m "sim_ops_per_s" "1/s" (o.W.ops /. window);
    m "sim_goodput_gbps" "Gb/s" (o.W.payload_bytes *. 8.0 /. window /. 1e9);
    m "sim_p50_us" "us" (us 50.0);
    m "sim_p99_us" "us" (us 99.0);
  ]
  @ (if Array.length lat >= p999_min_samples then [ m "sim_p999_us" "us" (us 99.9) ] else [])
  @ [
      m "sim_cycles_per_op" "cycles" (per server_cycles o.W.ops);
      m "ok_ratio" "ratio" (float_of_int o.W.completed /. float_of_int o.W.attempted);
    ]

let problems (o : W.outcome) =
  o.W.problems
  @
  if o.W.completed < o.W.attempted then
    [ Printf.sprintf "ok_ratio %d/%d < 1" o.W.completed o.W.attempted ]
  else []

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the metrics and the JSON result line; exit 1 if a check failed. *)
let report ~problems ~(o : W.outcome) metrics =
  let problems =
    problems
    @ List.filter_map
        (fun x -> if Float.is_finite x.value then None else Some (x.name ^ " is not finite"))
        metrics
  in
  let metrics = List.filter (fun x -> Float.is_finite x.value) metrics in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  List.iter (fun x -> Printf.printf "%-30s %24s %s\n" x.name (number x.value) x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) (Int.max 1 o.W.attempted)
    (Int.max 0 (o.W.attempted - o.W.completed))
    body;
  if problems <> [] then exit 1
