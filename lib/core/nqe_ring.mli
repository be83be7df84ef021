(** Single-producer single-consumer ring of NQEs, held as 32-byte slots
    inside one [bytes] (paper §3, §4.3: each queue of a queue set is shared
    memory between exactly one producer and one consumer, so it needs no
    locks, only a head and a tail index).

    An NQE enters and leaves by copy: {!push} copies 32 bytes from the
    producer's buffer into the tail slot, {!pop} and {!pop_slice} copy
    from the head into the consumer's. Nothing is allocated per NQE, and
    no pop returns an option.

    Memory is proportional to use, as in {!Nkutil.Spsc_ring}: the first
    push allocates 16 slots (or [capacity], if smaller), a push that finds
    every slot live below capacity doubles them, and the ring never
    shrinks. [capacity] is rounded up to a power of two, and [push]
    returns [false] at exactly [capacity] NQEs, as a preallocated ring
    would. Growing from the producer is not safe against a consumer on
    another domain, so a ring belongs to one domain. *)

type t

val create : capacity:int -> t
(** An empty ring holding at most [capacity] NQEs (rounded up to a power
    of two); no slot is allocated yet. Raises [Invalid_argument] if
    [capacity < 1]. *)

val capacity : t -> int

val length : t -> int

val is_empty : t -> bool

val slots : t -> int
(** Slots allocated so far. *)

val push : t -> bytes -> int -> bool
(** [push t src pos] copies the NQE at byte offset [pos] of [src] into the
    tail slot; [false] (and nothing copied) if the ring holds [capacity]
    NQEs. Producer side. *)

val pop : t -> bytes -> int -> bool
(** [pop t dst pos] moves the head NQE to byte offset [pos] of [dst];
    [false] if the ring is empty. Consumer side. *)

val pop_slice : t -> bytes -> slot:int -> max:int -> int
(** [pop_slice t dst ~slot ~max] moves up to [max] NQEs, oldest first, into
    consecutive slots of [dst] from slot index [slot] (byte
    [slot * Nqe.size_bytes]) and returns the count. [dst] must have room
    for them. *)
