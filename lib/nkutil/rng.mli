(** Deterministic pseudo-random number generation for simulations.

    xoshiro256** seeded through splitmix64: fast, high quality, and fully
    reproducible from a single integer seed, so every experiment run prints
    identical numbers. Includes the variate distributions the workload
    generators need. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator (advances [t]). *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples Exp with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp] of a Box–Muller Gaussian sample. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
