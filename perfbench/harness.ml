(* Host-side measurement of one benchmark world: the untraced, slice-driven
   run that the end-to-end metrics come from, and the traced, stepped run
   that attributes host time, allocation and simulated cycles to layers. *)

open Nkcore
module W = Workloads

(* Bechamel's CLOCK_MONOTONIC stub, bound here with an unboxed result so
   that reading the clock never allocates (pacing spins on it). *)
external monotonic_now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (monotonic_now ())

(* Words allocated so far: minor + major - promoted, as [Gc] counts them. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Quantile [q] of [a] (sorted in place), linear interpolation. *)
let quantile q (a : float array) =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

(* Host-speed reference. The machine's speed drifts by up to 1.8x over
   seconds (README.md, "Host noise"). A fixed kernel timed right after each
   measured stretch of simulation sees the same drift: random
   read-modify-writes over a 1 MiB int array, which neither allocates nor
   touches the simulator's heap. Host times are reported as
   (measured time / kernel time) x [reference_ns], the kernel's time in
   the reference machine's fast regime. *)
let reference_words = 128 * 1024

let reference_updates = 200_000

let reference_ns = 500_000.0

let reference_table = Array.make reference_words 0

(* Host ns the kernel took. *)
let reference () =
  let t0 = now_ns () in
  let x = ref 1 in
  for _ = 1 to reference_updates do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (reference_words - 1) in
    Array.unsafe_set reference_table j (Array.unsafe_get reference_table j + 1)
  done;
  now_ns () - t0

(* A host time [ns] measured just before a [reference ()] that took
   [ref_ns], in reference-machine ns. *)
let normalize ns ref_ns = ns *. reference_ns /. float_of_int ref_ns

(* Host-time estimator. A window is a run of whole slices holding at least
   [window_events] engine events (10-20 ms), followed by one reference
   kernel; the run's host cost per event is the median of its windows'
   normalized ns/event. *)
let window_events = 20_000

(* Windows are event-count based, so short selftest runs may hold only a
   few; fall back to the whole run, unnormalized, then. *)
let ns_per_event ~windows ~busy_ns ~events =
  if Array.length windows >= 10 then quantile 0.5 (Array.copy windows)
  else float_of_int busy_ns /. float_of_int (Int.max 1 events)

type drive = {
  events : int;  (** engine events executed by the run *)
  busy_ns : int;  (** host time spent driving the world *)
  wall_ns : int;  (** host time of the whole drive, pacing included *)
  windows : float array;  (** normalized ns/event of each full window *)
  pending_peak : int;  (** max [Engine.pending] at slice boundaries *)
  words : float;  (** words allocated during the run *)
}

let est_ns_per_event d = ns_per_event ~windows:d.windows ~busy_ns:d.busy_ns ~events:d.events

(* Pacing. The machine's speed regimes last seconds, so a run's windows
   should span many seconds of host time, but the simulator's heap grows
   with virtual run length. A paced drive does a fixed virtual amount of
   work and spreads its windows over [spread_ns]: after each window it
   spins until the host clock has caught up with the run's virtual
   progress towards [virtual_end]. The spin neither allocates nor enters a
   blocking section, so the GC, and with it every allocation and heap
   metric, repeats exactly. *)
type pace = { spread_ns : int; virtual_end : float }

let spin_until t = while now_ns () < t do () done

(* Drive the world to quiescence in short virtual-time slices. Each slice
   is [Testbed.run ~until], which executes exactly the events a single
   [Testbed.run] would, in the same order (checked by the selftest). A
   slice that finds nothing to do doubles the next one, so an idle tail
   (TIME_WAIT timers, cancelled RTOs) costs a handful of calls. *)
let slice = 50e-6

let max_slice = 1.0

let drive ?pace (w : W.world) =
  let tb = w.W.tb in
  let eng = tb.Testbed.engine in
  let windows = W.Samples.create () in
  let words0 = alloc_words () in
  let ev0 = Sim.Engine.events_executed eng in
  let t0 = now_ns () in
  let win_ev = ref ev0 and win_t = ref t0 and busy = ref 0 in
  let peak = ref (Sim.Engine.pending eng) in
  let span = ref slice and idle = ref 0 in
  while Sim.Engine.pending eng > 0 && !idle < 64 do
    let before = Sim.Engine.events_executed eng in
    Testbed.run tb ~until:(Testbed.now tb +. !span);
    let ev = Sim.Engine.events_executed eng in
    peak := Int.max !peak (Sim.Engine.pending eng);
    if ev = before then begin
      if !span >= max_slice then incr idle;
      span := Float.min max_slice (!span *. 2.0)
    end
    else begin
      span := slice;
      idle := 0
    end;
    if ev - !win_ev >= window_events then begin
      let t = now_ns () in
      let ns = float_of_int (t - !win_t) /. float_of_int (ev - !win_ev) in
      W.Samples.add windows (normalize ns (reference ()));
      busy := !busy + (t - !win_t);
      (match pace with
      | Some p ->
          let progress = Float.min 1.0 (Testbed.now tb /. p.virtual_end) in
          spin_until (t0 + int_of_float (progress *. float_of_int p.spread_ns))
      | None -> ());
      win_ev := ev;
      win_t := now_ns ()
    end
  done;
  (* Only events that never come due (infinite deadlines) can remain. *)
  if Sim.Engine.pending eng > 0 then Testbed.run tb;
  let t1 = now_ns () in
  {
    events = Sim.Engine.events_executed eng - ev0;
    busy_ns = !busy + (t1 - !win_t);
    wall_ns = t1 - t0;
    windows = Array.sub windows.W.Samples.a 0 windows.W.Samples.n;
    pending_peak = !peak;
    words = alloc_words () -. words0;
  }

(* ---- traced run ------------------------------------------------------- *)

(* Layers that own host time: the owner of the first core an event
   charges, or simnet for events that charge no core (links, NICs, the
   vswitch, bare timers). *)
let layers = [| "vm"; "nsm"; "coreengine"; "loadgen"; "simnet" |]

let simnet = 4

let layer_of_owner = function W.Vm -> 0 | W.Nsm -> 1 | W.Ce -> 2 | W.Client -> 3

type traced = {
  t_events : int;
  t_busy_ns : int;  (** host time of the stepped loop, reference kernels excluded *)
  t_windows : float array;  (** normalized ns/event of each full window *)
  layer_ns : float array;  (** host ns billed per layer *)
  layer_words : float array;  (** minor words billed per layer *)
  layer_events : float array;
  layer_cycles : float array;  (** simulated cycles seen by the cycle hook *)
  busy_before : float array;  (** per layer: busy cycles charged before the hook *)
  t_words : float;  (** minor words over the whole stepped loop *)
  unknown_cores : string list;  (** charged cores no layer claims *)
}

(* Step the world to quiescence with [Sim.Engine.step], billing each
   event's host ns and [Gc.minor_words] delta to its layer. Consecutive
   clock reads telescope, so the per-layer sums equal the loop's totals
   exactly. The cycle hook only observes. Windows and reference kernels
   are as in [drive]. *)
let step_traced (w : W.world) =
  let eng = w.W.tb.Testbed.engine in
  let n = Array.length layers in
  let names : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let unknown = ref [] in
  let refresh () =
    List.iter
      (fun (o, c) -> Hashtbl.replace names (Sim.Cpu.name c) (layer_of_owner o))
      (w.W.cores ())
  in
  refresh ();
  (* Set-up (listen, bind) already charged some cycles. *)
  let busy_before = Array.make n 0.0 in
  List.iter
    (fun (o, c) ->
      let l = layer_of_owner o in
      busy_before.(l) <- busy_before.(l) +. Sim.Cpu.busy_cycles c)
    (w.W.cores ());
  let layer_of core =
    match Hashtbl.find names core with
    | l -> l
    | exception Not_found -> (
        refresh ();
        match Hashtbl.find names core with
        | l -> l
        | exception Not_found ->
            unknown := core :: !unknown;
            Hashtbl.replace names core simnet;
            simnet)
  in
  let cycles = Array.make n 0.0 in
  let first = ref (-1) in
  Sim.Engine.set_cycle_hook eng
    (Some
       (fun core c ->
         let l = layer_of core in
         if !first < 0 then first := l;
         cycles.(l) <- cycles.(l) +. c));
  let ns = Array.make n 0.0 and words = Array.make n 0.0 and evs = Array.make n 0.0 in
  let windows = W.Samples.create () in
  let prev_w = Array.make 1 (Gc.minor_words ()) in
  let start_w = prev_w.(0) in
  let t0 = now_ns () in
  let prev_t = ref t0 and count = ref 0 in
  let win_t = ref t0 and win_n = ref 0 and gap = ref 0 in
  while Sim.Engine.step eng do
    let t = now_ns () in
    let wd = Gc.minor_words () in
    let l = if !first < 0 then simnet else !first in
    ns.(l) <- ns.(l) +. float_of_int (t - !prev_t);
    words.(l) <- words.(l) +. (wd -. prev_w.(0));
    evs.(l) <- evs.(l) +. 1.0;
    prev_w.(0) <- wd;
    prev_t := t;
    first := -1;
    incr count;
    incr win_n;
    if !win_n >= window_events then begin
      let ns = float_of_int (t - !win_t) /. float_of_int !win_n in
      W.Samples.add windows (normalize ns (reference ()));
      (* The kernel's time is billed to no layer. *)
      let t' = now_ns () in
      gap := !gap + (t' - t);
      prev_t := t';
      win_t := t';
      win_n := 0
    end
  done;
  Sim.Engine.set_cycle_hook eng None;
  {
    t_events = !count;
    t_busy_ns = !prev_t - t0 - !gap;
    t_windows = Array.sub windows.W.Samples.a 0 windows.W.Samples.n;
    layer_ns = ns;
    layer_words = words;
    layer_events = evs;
    layer_cycles = cycles;
    busy_before;
    t_words = prev_w.(0) -. start_w;
    unknown_cores = List.sort_uniq String.compare !unknown;
  }

(* ---- simulated-side readings ----------------------------------------- *)

let busy (w : W.world) owner =
  List.fold_left
    (fun acc (o, c) -> if o = owner then acc +. Sim.Cpu.busy_cycles c else acc)
    0.0 (w.W.cores ())

let server_cycles w = busy w W.Vm +. busy w W.Nsm +. busy w W.Ce

(* Sum a counter over every registry of the world. *)
let counter (w : W.world) ~component ~metric =
  List.fold_left
    (fun acc mon ->
      List.fold_left
        (fun acc (e : Nkmon.Registry.entry) ->
          match e.Nkmon.Registry.value with
          | Nkmon.Registry.Counter v
            when e.Nkmon.Registry.component = component && e.Nkmon.Registry.metric = metric ->
              acc + v
          | _ -> acc)
        acc
        (Nkmon.Registry.entries (Nkmon.registry mon)))
    0 w.W.mons

(* Per-stage mean virtual time (s) over every sampled span of the world,
   plus the end-to-end mean and the span count. Stages absent from a
   recorder count as zero for its spans. *)
type stages = { spans : int; e2e_mean : float; stage_mean : (string * float) list }

let stages (w : W.world) =
  let module H = Nkutil.Histogram in
  let bds = List.map Nkspan.breakdown w.W.spans in
  let spans = List.fold_left (fun acc b -> acc + b.Nkspan.b_spans) 0 bds in
  let weighted f = List.fold_left (fun acc b -> acc +. f b) 0.0 bds in
  let total h = H.mean h *. float_of_int (H.count h) in
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun b -> List.map fst b.Nkspan.b_stages) bds)
  in
  let per_span x = if spans = 0 then 0.0 else x /. float_of_int spans in
  {
    spans;
    e2e_mean = per_span (weighted (fun b -> total b.Nkspan.b_e2e));
    stage_mean =
      List.map
        (fun name ->
          ( name,
            per_span
              (weighted (fun b ->
                   match List.assoc_opt name b.Nkspan.b_stages with
                   | Some h -> total h
                   | None -> 0.0)) ))
        names;
  }

let stage_mean st name = Option.value (List.assoc_opt name st.stage_mean) ~default:0.0
