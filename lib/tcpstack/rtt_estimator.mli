(** Jacobson/Karels RTT estimation and RTO computation (RFC 6298). *)

type t

val max_rto : float
(** The RTO ceiling, 30 s; the floor is 0.2 s (Linux). *)

val create : unit -> t
(** Before the first sample the RTO is 1 s (RFC 6298). *)

val sample : t -> float -> unit
(** [sample t rtt] feeds one round-trip measurement (seconds). Negative
    samples are ignored. *)

val srtt : t -> float
(** Smoothed RTT; 0 before the first sample. *)

val rto : t -> float
(** Current retransmission timeout, clamped to [\[0.2, max_rto\]]. *)

type snapshot = { s_srtt : float; s_rttvar : float; s_has_sample : bool }
(** Serialized estimator state, for live NSM migration. *)

val snapshot : t -> snapshot

val restore : snapshot -> t
(** [restore (snapshot t)] behaves identically to [t]. *)
