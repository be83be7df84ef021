(** TCP segments on the simulated wire.

    A segment models one GSO/TSO unit: up to [gso_max] payload bytes handed
    to the NIC as a unit and framed on the wire as ceil(len/mss) packets.
    Payload content is not carried in the segment (the byte stream travels
    through the connection's content channel, released in order by the
    receiver's reassembler); segments carry sequence-space metadata only,
    exactly like packet-level simulators do. *)

type t = {
  flow : Addr.Flow.t;
  seq : int;  (** sequence number of the first payload byte (mod 2^32) *)
  ack : int;  (** acknowledgement number; meaningful when [ack_flag] *)
  syn : bool;
  ack_flag : bool;
  fin : bool;
  rst : bool;
  window : int;  (** advertised receive window in bytes *)
  len : int;  (** payload bytes covered by this segment *)
  ts : float;  (** sender timestamp (TCP timestamps option), for RTT *)
  ts_echo : float;  (** echoed peer timestamp; negative when absent *)
}

val mss : int
(** Wire MSS: 1448 bytes (Ethernet MTU 1500 minus IP/TCP headers with
    timestamps). *)

val gso_max : int
(** Largest payload a single segment may cover (64 KB, Linux GSO). *)

val header_bytes : int
(** Per-packet on-wire overhead: Ethernet header+FCS, preamble, inter-frame
    gap, IP and TCP headers with timestamp options = 78 bytes. This is what
    caps goodput at ~94.5 Gb/s on a 100G link, as in the paper's Table 4. *)

val make :
  flow:Addr.Flow.t ->
  seq:int ->
  ack:int ->
  syn:bool ->
  ack_flag:bool ->
  fin:bool ->
  rst:bool ->
  window:int ->
  len:int ->
  ts:float ->
  ts_echo:float ->
  t
(** [seq] and [ack] are taken mod 2^32. Every field is given: a dev build
    does not inline across modules, so each optional argument passed as a
    variable would cost a [Some] on every segment. Pass [~ts_echo:(-1.0)]
    when no peer timestamp is echoed. *)

val packets : t -> int
(** Number of wire packets this segment occupies (at least 1). *)

val wire_bytes : t -> int
(** Total on-wire bytes including per-packet framing overhead. *)

val seq_end : t -> int
(** [seq + len + (syn?1) + (fin?1)] mod 2^32 — the sequence space consumed. *)
