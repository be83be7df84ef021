(** Jacobson/Karels RTT estimation and RTO computation (RFC 6298). *)

type t

val create : ?min_rto:float -> ?max_rto:float -> unit -> t
(** Defaults: [min_rto] 0.2 s (Linux), [max_rto] 30 s. Before the first
    sample the RTO is 1 s (RFC 6298). *)

val sample : t -> float -> unit
(** [sample t rtt] feeds one round-trip measurement (seconds). Negative
    samples are ignored. *)

val srtt : t -> float
(** Smoothed RTT; 0 before the first sample. *)

val rto : t -> float
(** Current retransmission timeout, clamped to [\[min_rto, max_rto\]]. *)

type snapshot = {
  s_min_rto : float;
  s_max_rto : float;
  s_srtt : float;
  s_rttvar : float;
  s_has_sample : bool;
}
(** Serialized estimator state, for live NSM migration. *)

val snapshot : t -> snapshot

val restore : snapshot -> t
(** [restore (snapshot t)] behaves identically to [t]. *)
