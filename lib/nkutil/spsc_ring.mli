(** Single-producer single-consumer ring buffer of OCaml values: the TCP
    stack's per-core receive queues. (A queue set's NQE rings are
    [Nkcore.Nqe_ring], which keeps its 32-byte NQEs in byte slots.) One
    producer and one consumer need no locks, only a head and a tail index.
    Capacity is rounded up to a power of two so index wrap is a mask.

    A ring's memory is proportional to its use: it starts with 16 slots (or
    its capacity, if smaller), and a push that finds every slot live while
    the ring is below capacity doubles the slot array. The ring never
    shrinks, so it holds an array as large as the most elements it has
    held at once. Growth changes only the cost: [push] returns [false] at
    exactly [capacity] elements, as a preallocated ring would.

    Growing the array from the producer is not safe against a consumer on
    another domain, so a ring belongs to one domain. The simulator drives
    it single-threaded. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity] elements
    (rounded up to a power of two). Raises [Invalid_argument] if
    [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** [length t] is the number of queued elements. *)

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x]; [false] if the ring holds [capacity]
    elements. Producer side. *)

val pop : 'a t -> 'a option
(** [pop t] dequeues the oldest element. Consumer side. *)

val pop_batch : 'a t -> max:int -> 'a list
(** [pop_batch t ~max] dequeues up to [max] elements, oldest first. *)
