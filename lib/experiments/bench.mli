(** Committed performance baselines for `nk bench`.

    A snapshot records a quick-mode experiment's simulated result table
    (deterministic — any drift is a behaviour change, which is why CI can
    diff it with a tight tolerance) together with the run's wall-clock
    seconds (machine-dependent, so only ever reported as a ratio, never
    gated on). Snapshots live in committed BENCH_<id>.json files. *)

type entry = {
  b_id : string;
  b_headers : string list;
  b_rows : string list list;  (** rendered cells, exactly as the report prints *)
  b_percentiles : Report.pctl list;
      (** the report's latency percentile summaries, gated per metric *)
  b_wall_s : float;  (** wall-clock seconds of the quick run that produced it *)
}

val of_report : wall_s:float -> Report.t -> entry

val run_twice : (unit -> Report.t * float) -> (entry, string) result
(** Run an experiment twice; [run] returns its report and the wall-clock
    seconds it took. [Ok] holds the snapshot of the first run (its
    [wall_s] is one run's time) when both runs render byte-identical
    {!Report.to_json}: rows, percentiles and notes. [Error] quotes the
    first line where the two renderings differ. *)

val to_json : entry list -> string

val of_json : string -> (entry list, string) result
(** Parses only the JSON subset {!to_json} emits. A baseline written before
    percentile recording (no ["percentiles"] key) parses with an empty list
    rather than failing. *)

type mismatch = {
  m_id : string;
  m_where : string;  (** e.g. ["row 2, p99"] *)
  m_old : string;
  m_new : string;
}

val compare_entries :
  tolerance:float -> baseline:entry list -> fresh:entry list -> mismatch list
(** Cell-by-cell diff of every baseline entry against the fresh run with
    the same id. Cells with a numeric prefix and matching unit suffix
    compare as relative difference against [tolerance]; all other cells
    must match exactly. Baseline percentile summaries gate the fresh run's
    per metric (one mismatch per drifted [label pXX_ms]); a baseline with
    none recorded gates nothing. Wall-clock is not compared. *)

val describe : mismatch -> string
(** The one-line human rendering: metric name, old and new values, and the
    relative change in percent when both sides are numeric — e.g.
    ["tcp-before p99_ms    3087.0080 -> 2401.1200 (-22.2%)"]. *)

val wall_ratios :
  baseline:entry list -> fresh:entry list -> (string * float * float * float) list
(** [(id, old_wall_s, new_wall_s, new/old)] for every matched entry. *)
