(** Time-binned accumulator for throughput/RPS time series.

    The isolation experiment (Fig 21) samples each VM's throughput at 100 ms
    intervals; the trace figures (Fig 7) use 1-minute bins. A [t] adds
    values into fixed-width bins indexed from time 0. *)

type t

val create : bin_width:float -> unit -> t
(** [create ~bin_width ()] accumulates into bins of [bin_width] seconds. *)

val add : t -> time:float -> float -> unit
(** [add t ~time v] adds [v] into the bin containing [time]. Negative times
    are ignored. *)

val num_bins : t -> int
(** Index of the last touched bin + 1. *)

val get : t -> int -> float
(** [get t i] is the accumulated value of bin [i] (0 if untouched). *)

val rate : t -> int -> float
(** [get t i / bin_width]: per-second rate for bin [i]. *)
