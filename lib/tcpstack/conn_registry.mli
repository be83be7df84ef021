(** Payload-content channels between connection endpoints.

    Segments carry sequence metadata only; the actual byte stream of each
    direction travels through a {!Nkutil.Byte_fifo} shared by the two
    endpoints. The registry pairs an active opener's channel with the passive
    endpoint, keyed by ⟨client address, server address, initial sequence
    number⟩ so port reuse across the simulation cannot alias. One registry is
    created per simulated world and threaded into every stack. *)

type t

type channel = {
  c2s : Nkutil.Byte_fifo.t;  (** client-to-server byte stream *)
  s2c : Nkutil.Byte_fifo.t;  (** server-to-client byte stream *)
}

val create : unit -> t

val register : t -> flow:Addr.Flow.t -> isn:int -> channel
(** Called by the active opener when sending its SYN; [flow] is
    client → server. Replaces any stale entry with the same key. *)

val lookup : t -> flow:Addr.Flow.t -> isn:int -> channel option
(** Called by the passive opener when receiving the SYN. *)

val remove : t -> flow:Addr.Flow.t -> isn:int -> unit
(** Drop the entry once both endpoints hold the channel. *)
