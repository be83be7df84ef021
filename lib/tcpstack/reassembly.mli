(** Receive-side sequence-space reassembly.

    Tracks which byte ranges have arrived and releases bytes as soon as they
    become contiguous with the receive-next pointer. Sequence numbers are
    unwrapped to 63-bit absolute offsets internally, so wrap-around is
    handled once at the boundary. *)

type t

type offer = {
  released : int;  (** new in-order payload bytes made available *)
  duplicate : int;  (** bytes that were already covered (retransmissions) *)
  fin_reached : bool;  (** the stream's FIN is now in order *)
}

val create : next:int -> unit -> t
(** [create ~next ()] starts expecting sequence number [next] (mod 2^32). *)

val offer : t -> seq:int -> len:int -> fin:bool -> offer
(** [offer t ~seq ~len ~fin] records an arrived segment. Data entirely below
    the expected pointer counts as duplicate; future data is buffered as
    out-of-order until the gap fills. *)

val next : t -> int
(** Current receive-next sequence number (mod 2^32) — what we ACK. *)

val ooo_bytes : t -> int
(** Bytes buffered out-of-order (they consume receive-window space). *)

type snapshot = {
  s_next_abs : int;
  s_next_mod : int;
  s_ranges : (int * int) list;
  s_fin_abs : int option;
  s_fin_delivered : bool;
}
(** Full mid-stream state, for live NSM migration — [create] cannot
    reproduce a reassembler with out-of-order ranges already buffered. *)

val snapshot : t -> snapshot

val restore : snapshot -> t
(** [restore (snapshot t)] behaves identically to [t]. *)
