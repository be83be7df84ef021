(** Experiment result tables, printed in the paper's layout.

    Every table/figure reproduction returns one of these; the bench driver
    prints them all, and EXPERIMENTS.md records paper-vs-measured. *)

type pctl = {
  p_label : string;  (** e.g. "e2e" or a span stage name *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
}

type t = {
  id : string;  (** e.g. "fig18" or "table4" *)
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
      (** paper reference points, substitutions, scale-down factors *)
  percentiles : pctl list;
      (** optional latency percentile summary, emitted by {!to_json} *)
}

val make :
  id:string -> title:string -> headers:string list -> ?notes:string list ->
  ?percentiles:pctl list -> string list list -> t

val percentiles_of : label:string -> Nkutil.Histogram.t -> pctl
(** Summarise a histogram of latencies in seconds as milliseconds at
    p50/p90/p99/p99.9. *)

val print : Format.formatter -> t -> unit
(** Render with aligned columns, the id/title banner and notes. *)

val to_csv : t -> string

val to_json : t -> string
(** One JSON object: id, title, headers, rows (array of arrays), notes. *)

val cell_f : ?decimals:int -> float -> string

val cell_gbps : float -> string

val cell_krps : float -> string
(** Thousands of requests per second with one decimal. *)

val cell_pct : float -> string

(** {1 Time series as text}

    Shared by the reports that draw virtual-time series (fig07, fig0708,
    fig-cluster, slo): one character per bucket, and one row per series
    with its min and max. *)

val sparkline : float array -> string
(** One character per value on an 8-level ramp scaled to the peak. *)

val digits : float array -> string
(** One digit per value, rounded and clamped to 0..9 (small counts such
    as active NSMs). *)

val bucket : k:int -> duration:float -> (float * float) list -> float array
(** Bucket a [(time, value)] series into [k] equal bins over
    [\[0, duration\]], averaging within each bin; an empty bin repeats the
    previous bin's value. *)

val series_row : string -> float array -> (float array -> string) -> string list
(** [[name; min; max; render values]], min and max with two decimals. *)
