(* Nkobs — the cluster-wide observability plane (DESIGN.md par.17).

   One instance watches N per-host Nkmon handles ("sources") plus any
   number of tenant SLO probes, and on its own virtual-time ticks turns
   their state into federated snapshots, SLO verdicts, typed alerts and
   flight-recorder dumps. The plane is an observer only: it never charges
   simulated cycles and samples registries/rings without mutating them, so
   attaching it cannot perturb the world it watches — and every output it
   produces derives from virtual time alone, so same-seed runs are
   byte-identical down to the flight dumps. *)

module Engine = Sim.Engine
module Registry = Nkmon.Registry
module Trace = Nkmon.Trace
module Histogram = Nkutil.Histogram

(* ---- alerts -------------------------------------------------------------- *)

type alert =
  | Slo_breach of { tenant : string; metric : string; value : float; target : float }
  | Slo_recovered of { tenant : string }
  | Dropped_events of { host : string; dropped : int }
  | Hugepage_pressure of { host : string; region : string; used_frac : float }
  | Ring_pressure of { host : string; instance : string; depth : float }
  | Spine_saturation of { host : string; utilization : float }

let alert_type = function
  | Slo_breach _ -> "slo_breach"
  | Slo_recovered _ -> "slo_recovered"
  | Dropped_events _ -> "dropped_events"
  | Hugepage_pressure _ -> "hugepage_pressure"
  | Ring_pressure _ -> "ring_pressure"
  | Spine_saturation _ -> "spine_saturation"

let fmt_float = Printf.sprintf "%.9g"

let alert_detail = function
  | Slo_breach { tenant; metric; value; target } ->
      Printf.sprintf "tenant=%s metric=%s value=%s target=%s" tenant metric
        (fmt_float value) (fmt_float target)
  | Slo_recovered { tenant } -> Printf.sprintf "tenant=%s" tenant
  | Dropped_events { host; dropped } -> Printf.sprintf "host=%s dropped=%d" host dropped
  | Hugepage_pressure { host; region; used_frac } ->
      Printf.sprintf "host=%s region=%s used_frac=%s" host region (fmt_float used_frac)
  | Ring_pressure { host; instance; depth } ->
      Printf.sprintf "host=%s instance=%s depth=%s" host instance (fmt_float depth)
  | Spine_saturation { host; utilization } ->
      Printf.sprintf "host=%s utilization=%s" host (fmt_float utilization)

(* ---- configuration ------------------------------------------------------- *)

type rules = {
  hugepage_used_frac : float;
  ring_depth : float;
  spine_utilization : float;
}

(* Pressure alerts fire at/above these. *)
let rules = { hugepage_used_frac = 0.9; ring_depth = 64.0; spine_utilization = 0.8 }

(* Trace events per host in a flight dump, and dumps retained. *)
let flight_depth = 64

let max_dumps = 8

type slo_target = {
  latency_p99 : float option;
  max_error_rate : float;
  min_requests : int;
}

type probe = { p_requests : int; p_errors : int; p_latency : Histogram.t }

type slo_status = {
  st_tenant : string;
  st_ok : bool;
  st_windows : int;
  st_breaches : int;
  st_last_p99 : float;
  st_last_error_rate : float;
  st_last_requests : int;
}

(* ---- state --------------------------------------------------------------- *)

type source = {
  s_host : string;
  s_mon : Nkmon.t;
  (* pressure-rule edge state: alert on a threshold crossing, stay quiet
     while the condition persists, re-arm when it clears *)
  mutable s_dropped : int; (* dropped_events count at the last tick *)
  mutable s_drop_over : bool;
  mutable s_spine_bytes : int; (* spine bytes_shipped at the last tick *)
  mutable s_spine_over : bool;
  mutable s_hp_over : string list; (* regions currently at/above threshold *)
  mutable s_ring_over : string list; (* CE shard instances currently over *)
}

type tenant = {
  tn_name : string;
  tn_target : slo_target;
  tn_probe : unit -> probe;
  (* cumulative snapshot the current window is measured against; [None]
     before the first tick *)
  mutable tn_prev : (int * int * Histogram.t) option;
  mutable tn_ok : bool;
  mutable tn_windows : int;
  mutable tn_breaches : int;
  mutable tn_last_p99 : float;
  mutable tn_last_err : float;
  mutable tn_last_req : int;
}

type t = {
  engine : Engine.t;
  mon : Nkmon.t; (* where alert events and plane counters land *)
  period : float;
  mutable srcs : source list; (* add order *)
  mutable tenants : tenant list; (* add order *)
  mutable subs : (time:float -> alert -> unit) list; (* subscription order *)
  mutable alert_log : (float * alert) list; (* newest first *)
  mutable dump_log : (float * alert * string) list; (* newest first *)
  mutable n_dumps : int; (* dumps requested, incl. past max_dumps *)
  mutable n_ticks : int;
  mutable last_tick : float;
  mutable running : bool;
  c_alerts : Registry.counter;
  c_ticks : Registry.counter;
}

let create ?(period = 0.01) ~engine ~mon () =
  if period <= 0.0 then invalid_arg "Nkobs.create: period must be positive";
  let t =
    {
      engine;
      mon;
      period;
      srcs = [];
      tenants = [];
      subs = [];
      alert_log = [];
      dump_log = [];
      n_dumps = 0;
      n_ticks = 0;
      last_tick = Engine.now engine;
      running = false;
      c_alerts = Nkmon.counter mon ~component:"nkobs" ~instance:"plane" ~name:"alerts";
      c_ticks = Nkmon.counter mon ~component:"nkobs" ~instance:"plane" ~name:"ticks";
    }
  in
  Nkmon.sampler mon ~component:"nkobs" ~instance:"plane" ~name:"sources" (fun () ->
      float_of_int (List.length t.srcs));
  Nkmon.sampler mon ~component:"nkobs" ~instance:"plane" ~name:"tenants" (fun () ->
      float_of_int (List.length t.tenants));
  Nkmon.sampler mon ~component:"nkobs" ~instance:"plane" ~name:"flight_dumps" (fun () ->
      float_of_int t.n_dumps);
  t

let add_source t ~host mon =
  if List.exists (fun s -> String.equal s.s_host host) t.srcs then
    invalid_arg (Printf.sprintf "Nkobs.add_source: duplicate host tag %S" host);
  t.srcs <-
    t.srcs
    @ [
        {
          s_host = host;
          s_mon = mon;
          s_dropped = Nkmon.dropped_events mon;
          s_drop_over = false;
          s_spine_bytes = 0;
          s_spine_over = false;
          s_hp_over = [];
          s_ring_over = [];
        };
      ]

let of_fabric ?period fab =
  let tb = Nkfabric.testbed fab in
  let t =
    create ?period ~engine:tb.Nkcore.Testbed.engine ~mon:tb.Nkcore.Testbed.mon ()
  in
  add_source t ~host:"cluster" tb.Nkcore.Testbed.mon;
  List.iter
    (fun n ->
      add_source t
        ~host:(Nkcore.Host.name (Nkfabric.node_host n))
        (Nkfabric.node_mon n))
    (Nkfabric.nodes fab);
  t

let sources t = List.map (fun s -> (s.s_host, s.s_mon)) t.srcs

let add_tenant t ~name ~target ~probe =
  if List.exists (fun tn -> String.equal tn.tn_name name) t.tenants then
    invalid_arg (Printf.sprintf "Nkobs.add_tenant: duplicate tenant %S" name);
  t.tenants <-
    t.tenants
    @ [
        {
          tn_name = name;
          tn_target = target;
          tn_probe = probe;
          tn_prev = None;
          tn_ok = true;
          tn_windows = 0;
          tn_breaches = 0;
          tn_last_p99 = 0.0;
          tn_last_err = 0.0;
          tn_last_req = 0;
        };
      ]

let slo_status t =
  List.map
    (fun tn ->
      {
        st_tenant = tn.tn_name;
        st_ok = tn.tn_ok;
        st_windows = tn.tn_windows;
        st_breaches = tn.tn_breaches;
        st_last_p99 = tn.tn_last_p99;
        st_last_error_rate = tn.tn_last_err;
        st_last_requests = tn.tn_last_req;
      })
    t.tenants

let on_alert t f = t.subs <- t.subs @ [ f ]

let alerts t = List.rev t.alert_log

let alert_count t = List.length t.alert_log

let ticks t = t.n_ticks

(* ---- export: any host-tagged source list ---------------------------------- *)

let cell_float v =
  (* Compact but deterministic: integers print without a mantissa tail. *)
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let value_cell = function
  | Registry.Counter n -> string_of_int n
  | Registry.Gauge v -> cell_float v
  | Registry.Histogram h ->
      Printf.sprintf "n=%d mean=%s p50=%s p99=%s max=%s" (Histogram.count h)
        (cell_float (Histogram.mean h))
        (cell_float (Histogram.percentile h 50.0))
        (cell_float (Histogram.percentile h 99.0))
        (cell_float (Histogram.max h))

let value_json = function
  | Registry.Counter n -> Printf.sprintf "\"kind\":\"counter\",\"value\":%d" n
  | Registry.Gauge v -> Printf.sprintf "\"kind\":\"gauge\",\"value\":%s" (fmt_float v)
  | Registry.Histogram h ->
      Printf.sprintf
        "\"kind\":\"histogram\",\"count\":%d,\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s"
        (Histogram.count h)
        (fmt_float (Histogram.mean h))
        (fmt_float (Histogram.percentile h 50.0))
        (fmt_float (Histogram.percentile h 90.0))
        (fmt_float (Histogram.percentile h 99.0))
        (fmt_float (Histogram.max h))

let row_headers = [ "host"; "component"; "instance"; "metric"; "value" ]

let metric_rows sources =
  List.concat_map
    (fun (host, mon) ->
      List.map
        (fun (e : Registry.entry) ->
          [ host; e.component; e.instance; e.metric; value_cell e.value ])
        (Registry.entries (Nkmon.registry mon)))
    sources

let metrics_json sources =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"hosts\":[";
  List.iteri
    (fun i (host, mon) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"host\":\"%s\",\"metrics\":%d,\"dropped_events\":%d}"
           (Nkmon.json_escape host)
           (Registry.cardinality (Nkmon.registry mon))
           (Nkmon.dropped_events mon)))
    sources;
  Buffer.add_string buf "],\"metrics\":[\n";
  let first = ref true in
  List.iter
    (fun (host, mon) ->
      List.iter
        (fun (e : Registry.entry) ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "{\"host\":\"%s\",\"component\":\"%s\",\"instance\":\"%s\",\"metric\":\"%s\",%s}"
               (Nkmon.json_escape host) (Nkmon.json_escape e.component)
               (Nkmon.json_escape e.instance) (Nkmon.json_escape e.metric)
               (value_json e.value)))
        (Registry.entries (Nkmon.registry mon)))
    sources;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Merge order: virtual time, then source add order, then sequence number —
   a total order (seq is unique per source), so the sort result does not
   depend on sort stability. *)
let merge_records per_src =
  let tagged =
    List.concat
      (List.mapi
         (fun i (host, records) -> List.map (fun r -> (i, host, r)) records)
         per_src)
  in
  List.map
    (fun (_, host, r) -> (host, r))
    (List.sort
       (fun (ia, _, (ra : Trace.record)) (ib, _, rb) ->
         let c = Float.compare ra.Trace.time rb.Trace.time in
         if c <> 0 then c
         else
           let c = Int.compare ia ib in
           if c <> 0 then c else Int.compare ra.Trace.seq rb.Trace.seq)
       tagged)

let merged_trace sources =
  merge_records
    (List.map (fun (host, mon) -> (host, Trace.records (Nkmon.trace mon))) sources)

let fmt_time = Printf.sprintf "%.9f"

(* The CSV header and one line per host-tagged record: the body of both
   {!trace_csv} and a flight dump. *)
let add_records_csv buf merged =
  Buffer.add_string buf "host,seq,time,type,args\n";
  List.iter
    (fun (host, (r : Trace.record)) ->
      let args =
        Trace.event_args r.Trace.event
        |> List.map (fun (k, v) -> k ^ "=" ^ v)
        |> String.concat ";"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%s,\"%s\"\n" host r.Trace.seq (fmt_time r.Trace.time)
           (Trace.event_type r.Trace.event)
           args))
    merged

let trace_csv sources =
  let buf = Buffer.create 4096 in
  add_records_csv buf (merged_trace sources);
  List.iter
    (fun (host, mon) ->
      let d = Nkmon.dropped_events mon in
      if d > 0 then
        Buffer.add_string buf
          (Printf.sprintf "# host %s dropped %d events (ring wraparound)\n" host d))
    sources;
  Buffer.contents buf

let trace_json sources =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"events\":[\n";
  let first = ref true in
  List.iter
    (fun (host, (r : Trace.record)) ->
      if !first then first := false else Buffer.add_string buf ",\n";
      let args =
        Trace.event_args r.Trace.event
        |> List.map (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (Nkmon.json_escape k) (Nkmon.json_escape v))
        |> String.concat ","
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"host\":\"%s\",\"seq\":%d,\"time\":%s,\"type\":\"%s\",\"args\":{%s}}"
           (Nkmon.json_escape host) r.Trace.seq (fmt_time r.Trace.time)
           (Nkmon.json_escape (Trace.event_type r.Trace.event))
           args))
    (merged_trace sources);
  Buffer.add_string buf "\n],\"dropped\":[";
  List.iteri
    (fun i (host, mon) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"host\":\"%s\",\"dropped_events\":%d}" (Nkmon.json_escape host)
           (Nkmon.dropped_events mon)))
    sources;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* ---- the flight recorder ------------------------------------------------- *)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let flight_snapshot t ~time alert =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "# flight time=%s type=%s %s\n" (fmt_time time) (alert_type alert)
       (alert_detail alert));
  add_records_csv buf
    (merge_records
       (List.map
          (fun s -> (s.s_host, last_n flight_depth (Trace.records (Nkmon.trace s.s_mon))))
          t.srcs));
  Buffer.contents buf

let dumps t = List.rev t.dump_log


(* ---- the alert path ------------------------------------------------------ *)

let raise_alert t alert =
  let time = Engine.now t.engine in
  Registry.incr t.c_alerts;
  t.alert_log <- (time, alert) :: t.alert_log;
  Nkmon.event t.mon
    (Trace.Custom { component = "nkobs"; name = alert_type alert; detail = alert_detail alert });
  t.n_dumps <- t.n_dumps + 1;
  if t.n_dumps <= max_dumps then
    t.dump_log <- (time, alert, flight_snapshot t ~time alert) :: t.dump_log;
  List.iter (fun f -> f ~time alert) t.subs

(* ---- pressure rules ------------------------------------------------------ *)

(* One pass over a source's (sorted) registry snapshot collects everything
   the rules need; thresholds are edge-triggered so a persistent condition
   alerts once and re-arms when it clears. *)
let eval_source t ~elapsed s =
  let d = Nkmon.dropped_events s.s_mon in
  (if d > s.s_dropped then (
     if not s.s_drop_over then
       raise_alert t (Dropped_events { host = s.s_host; dropped = d - s.s_dropped });
     s.s_drop_over <- true)
   else s.s_drop_over <- false);
  s.s_dropped <- d;
  let entries = Registry.entries (Nkmon.registry s.s_mon) in
  let gauge_of = function
    | Registry.Gauge v -> Some v
    | Registry.Counter n -> Some (float_of_int n)
    | _ -> None
  in
  let lookup ~component ~instance ~metric =
    List.find_map
      (fun (e : Registry.entry) ->
        if
          String.equal e.component component
          && String.equal e.instance instance
          && String.equal e.metric metric
        then gauge_of e.value
        else None)
      entries
  in
  (* Hugepage fill: every region with a capacity row is checked. *)
  List.iter
    (fun (e : Registry.entry) ->
      if String.equal e.component "hugepages" && String.equal e.metric "bytes_in_use" then
        match
          (gauge_of e.value, lookup ~component:"hugepages" ~instance:e.instance ~metric:"capacity_bytes")
        with
        | Some used, Some cap when cap > 0.0 ->
            let frac = used /. cap in
            let over = frac >= rules.hugepage_used_frac in
            let was = List.mem e.instance s.s_hp_over in
            if over && not was then begin
              s.s_hp_over <- s.s_hp_over @ [ e.instance ];
              raise_alert t
                (Hugepage_pressure { host = s.s_host; region = e.instance; used_frac = frac })
            end
            else if (not over) && was then
              s.s_hp_over <- List.filter (fun r -> not (String.equal r e.instance)) s.s_hp_over
        | _ -> ())
    entries;
  (* CoreEngine deferred-queue depth: parked NQEs are the CE-side ring
     backpressure signal. *)
  List.iter
    (fun (e : Registry.entry) ->
      if String.equal e.component "coreengine" && String.equal e.metric "deferred_depth"
      then
        match gauge_of e.value with
        | Some depth ->
            let over = depth >= rules.ring_depth in
            let was = List.mem e.instance s.s_ring_over in
            if over && not was then begin
              s.s_ring_over <- s.s_ring_over @ [ e.instance ];
              raise_alert t (Ring_pressure { host = s.s_host; instance = e.instance; depth })
            end
            else if (not over) && was then
              s.s_ring_over <-
                List.filter (fun r -> not (String.equal r e.instance)) s.s_ring_over
        | None -> ())
    entries;
  (* Spine saturation: shipped-bytes delta this tick vs what the default
     link rate could carry in the elapsed window. *)
  (match lookup ~component:"nkfabric" ~instance:"spine" ~metric:"bytes_shipped" with
  | Some shipped ->
      let shipped = int_of_float shipped in
      let delta = shipped - s.s_spine_bytes in
      s.s_spine_bytes <- shipped;
      (match
         lookup ~component:"nkfabric" ~instance:"spine"
           ~metric:"link_capacity_bytes_per_sec"
       with
      | Some cap when cap > 0.0 && elapsed > 0.0 ->
          let utilization = float_of_int delta /. (cap *. elapsed) in
          let over = utilization >= rules.spine_utilization in
          if over && not s.s_spine_over then begin
            s.s_spine_over <- true;
            raise_alert t (Spine_saturation { host = s.s_host; utilization })
          end
          else if not over then s.s_spine_over <- false
      | _ -> ())
  | None -> ())

(* ---- SLO evaluation ------------------------------------------------------ *)

let eval_tenant t tn =
  let cur = tn.tn_probe () in
  match tn.tn_prev with
  | None ->
      tn.tn_prev <- Some (cur.p_requests, cur.p_errors, Histogram.copy cur.p_latency)
  | Some (req0, err0, lat0) ->
      let req_d = cur.p_requests - req0 in
      (* Windows below min_requests are left open (the snapshot is not
         advanced), so slow tenants accumulate until a window is big
         enough to judge instead of never being evaluated at all. *)
      if req_d >= tn.tn_target.min_requests && req_d > 0 then begin
        let err_d = cur.p_errors - err0 in
        let window = Histogram.diff ~newer:cur.p_latency ~older:lat0 in
        let p99 = Histogram.percentile window 99.0 in
        let err_rate = float_of_int err_d /. float_of_int req_d in
        tn.tn_windows <- tn.tn_windows + 1;
        tn.tn_last_p99 <- p99;
        tn.tn_last_err <- err_rate;
        tn.tn_last_req <- req_d;
        let violation =
          match tn.tn_target.latency_p99 with
          | Some ceiling when p99 > ceiling -> Some ("p99", p99, ceiling)
          | _ ->
              if err_rate > tn.tn_target.max_error_rate then
                Some ("error_rate", err_rate, tn.tn_target.max_error_rate)
              else None
        in
        (match violation with
        | Some (metric, value, target) ->
            tn.tn_breaches <- tn.tn_breaches + 1;
            if tn.tn_ok then begin
              tn.tn_ok <- false;
              raise_alert t (Slo_breach { tenant = tn.tn_name; metric; value; target })
            end
        | None ->
            if not tn.tn_ok then begin
              tn.tn_ok <- true;
              raise_alert t (Slo_recovered { tenant = tn.tn_name })
            end);
        tn.tn_prev <- Some (cur.p_requests, cur.p_errors, Histogram.copy cur.p_latency)
      end

(* ---- ticking ------------------------------------------------------------- *)

let tick t =
  let now = Engine.now t.engine in
  let elapsed = now -. t.last_tick in
  t.last_tick <- now;
  t.n_ticks <- t.n_ticks + 1;
  Registry.incr t.c_ticks;
  List.iter (fun s -> eval_source t ~elapsed s) t.srcs;
  List.iter (fun tn -> eval_tenant t tn) t.tenants

let rec schedule_tick t =
  ignore
    (Engine.schedule t.engine ~delay:t.period (fun () ->
         if t.running then begin
           tick t;
           schedule_tick t
         end))

let start t =
  if not t.running then begin
    t.running <- true;
    schedule_tick t
  end

let stop t = t.running <- false
