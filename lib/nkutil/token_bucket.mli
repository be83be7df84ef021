(** Token-bucket rate limiter.

    CoreEngine uses one bucket per VM to cap its egress bandwidth or NQE
    rate (paper §4.4, §7.6 / Fig 21). Time is supplied by the caller so the
    same code runs under the simulator clock and the wall clock. *)

type t

val create : rate:float -> burst:float -> now:float -> t
(** [create ~rate ~burst ~now] is a bucket refilled at [rate] tokens/second
    holding at most [burst] tokens, initially full. Requires [rate > 0] and
    [burst > 0]. *)

val try_take : t -> now:float -> float -> bool
(** [try_take t ~now n] consumes [n] tokens if available; otherwise takes
    nothing and returns [false]. *)

val time_until : t -> now:float -> float -> float
(** [time_until t ~now n] is the delay after which [n] tokens will be
    available (0 if available now). *)
