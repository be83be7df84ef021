(** Log-linear latency histogram (HDR-histogram style).

    Values are bucketed with bounded relative error so that we can record
    millions of request latencies cheaply and then report the
    min/mean/stddev/median/max rows of the paper's Table 5 plus arbitrary
    percentiles. Values are non-negative floats (we use seconds). *)

type t

val create : ?sub_buckets:int -> ?max_value:float -> unit -> t
(** [create ()] covers [\[0, max_value\]] (default 1e6) with
    [sub_buckets] linear buckets per power-of-two magnitude (default 32,
    i.e. ~3% relative error). *)

val record : t -> float -> unit
(** [record t v] adds observation [v]; negative values count as 0, values
    above [max_value] clamp to it. *)

val count : t -> int

val min : t -> float
(** Smallest recorded value (exact, not bucketed). 0 when empty. *)

val max : t -> float
(** Largest recorded value (exact, not bucketed). 0 when empty. *)

val mean : t -> float
(** Exact running mean of recorded values. *)

val stddev : t -> float
(** Exact running standard deviation (population). *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]: upper edge of the bucket
    containing that quantile, clamped to {!max}. 0 when empty. *)

val median : t -> float

val merge_into : src:t -> dst:t -> unit
(** [merge_into ~src ~dst] adds [src]'s bucket counts into [dst]. The two
    histograms must have been created with the same parameters. *)

val copy : t -> t
(** Independent snapshot of [t]; further records on either side do not
    affect the other. *)

val diff : newer:t -> older:t -> t
(** [diff ~newer ~older] is the histogram of observations recorded between
    the [older] and [newer] cumulative snapshots of the same histogram
    (bucketwise count subtraction). Count, percentiles and mean are exact
    (percentiles to bucket resolution, as always); min/max degrade to the
    edges of the outermost non-empty buckets. Raises [Invalid_argument] if
    the histograms are incompatible or [newer] does not dominate [older].
    This is what turns a cumulative latency histogram into a rolling SLO
    window. *)
