(** Single-producer single-consumer lockless ring buffer.

    This is the NQE transport of the paper (§3, §4.3): each queue of a queue
    set is shared memory between exactly one producer (GuestLib or ServiceLib)
    and one consumer (CoreEngine) or vice versa, so it needs no locks — only
    a head and a tail index with release/acquire ordering. Capacity is rounded
    up to a power of two so index wrap is a mask.

    The implementation is safe for one producer domain and one consumer
    domain under OCaml 5 ([Atomic] indices); the simulator uses it
    single-threaded, and the Fig 11 microbenchmark drives it for real. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity] elements
    (rounded up to a power of two). Raises [Invalid_argument] if
    [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** [length t] is the number of queued elements (approximate under
    concurrency, exact single-threaded). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x]; [false] if the ring is full. Producer side. *)

val pop : 'a t -> 'a option
(** [pop t] dequeues the oldest element. Consumer side. *)

val pop_batch : 'a t -> max:int -> 'a list
(** [pop_batch t ~max] dequeues up to [max] elements, oldest first. *)

val pop_slice : 'a t -> 'a array -> pos:int -> max:int -> int
(** [pop_slice t buf ~pos ~max] dequeues up to [max] elements into
    [buf.(pos) ...] and returns the count. Lets a poll loop drain several
    rings into one reusable scratch buffer without lists. *)
