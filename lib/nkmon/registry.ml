type counter = { mutable n : int }

type gauge = { mutable g : float }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_sampler of (unit -> float) ref
  | M_histogram of Nkutil.Histogram.t

type t = { table : (string * string * string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_sampler _ -> "gauge"
  | M_histogram _ -> "histogram"

let key ~component ~instance ~name = (component, instance, name)

let mismatch (c, i, n) m want =
  invalid_arg
    (Printf.sprintf "Nkmon.Registry: %s/%s/%s is a %s, not a %s" c i n (kind_name m) want)

let counter t ~component ~instance ~name =
  let k = key ~component ~instance ~name in
  match Hashtbl.find_opt t.table k with
  | Some (M_counter c) -> c
  | Some m -> mismatch k m "counter"
  | None ->
      let c = { n = 0 } in
      Hashtbl.replace t.table k (M_counter c);
      c

let incr c = c.n <- c.n + 1

let add c n = c.n <- c.n + n

let counter_value c = c.n

let gauge t ~component ~instance ~name =
  let k = key ~component ~instance ~name in
  match Hashtbl.find_opt t.table k with
  | Some (M_gauge g) -> g
  | Some m -> mismatch k m "gauge"
  | None ->
      let g = { g = 0.0 } in
      Hashtbl.replace t.table k (M_gauge g);
      g

let set g v = g.g <- v

let gauge_value g = g.g

let sampler t ~component ~instance ~name f =
  let k = key ~component ~instance ~name in
  match Hashtbl.find_opt t.table k with
  | Some (M_sampler r) -> r := f
  | Some m -> mismatch k m "sampler"
  | None -> Hashtbl.replace t.table k (M_sampler (ref f))

let histogram t ~component ~instance ~name =
  let k = key ~component ~instance ~name in
  match Hashtbl.find_opt t.table k with
  | Some (M_histogram h) -> h
  | Some m -> mismatch k m "histogram"
  | None ->
      let h = Nkutil.Histogram.create () in
      Hashtbl.replace t.table k (M_histogram h);
      h

(* ---- enumeration ---------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Nkutil.Histogram.t

type entry = { component : string; instance : string; metric : string; value : value }

let value_of_metric = function
  | M_counter c -> Counter c.n
  | M_gauge g -> Gauge g.g
  | M_sampler r -> Gauge (!r ())
  | M_histogram h -> Histogram h

let find t ~component ~instance ~name =
  Option.map value_of_metric (Hashtbl.find_opt t.table (component, instance, name))

let entries t =
  Nkutil.Det_tbl.fold
    ~cmp:(Nkutil.Det_tbl.triple String.compare String.compare String.compare)
    (fun (component, instance, metric) m acc ->
      { component; instance; metric; value = value_of_metric m } :: acc)
    t.table []
  |> List.rev

let cardinality t = Hashtbl.length t.table
