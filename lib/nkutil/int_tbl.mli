(** Int-keyed hash table, the one table of the dataplane's bookkeeping
    (CoreEngine's connection table, GuestLib's and ServiceLib's socket
    maps, epoll membership, hugepage extents, route tables) and, through
    {!Pair}, of its address and flow demux (the vswitch, the TCP and Homa
    stacks, the content-channel registry).

    Open addressing with linear probing over unboxed int keys, in a
    power-of-two slot array allocated at the first insert and kept at most
    half full; a removal shifts the rest of its probe run back, so no
    tombstone is left. [replace], [find], [mem] and [remove] allocate
    nothing ([find] raises [Not_found]; only [find_opt] allocates its
    [Some]). The home slot is taken from the top bits of a multiplicative
    hash, so keys that share their low bits (multiples of 64, of 16,384
    or of 2^32) still spread. The first value ever bound stays alive in
    the table's free slots until [reset].

    Whole-table visits are in ascending key order only: the table exposes
    no slot-order iteration, so nklint's D2 rule holds by construction.
    Each visit snapshots and sorts the bindings (O(n log n)); the callback
    may change the table. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table with no slot array. The first insert
    allocates 8 slots, and the table doubles as it fills; the size hint
    [n] is not used. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is absent. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding (a key has at most one). *)

val remove : 'a t -> int -> unit

val reset : 'a t -> unit
(** Drop every binding and the slot arrays. *)

val bindings : 'a t -> (int * 'a) list
(** All bindings in ascending key order. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visit in ascending key order. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold in ascending key order (left fold). *)

val longest_probe : 'a t -> int
(** The most slots a lookup of a bound key inspects: one more than the
    largest distance from a key's home slot to the slot holding it. *)

(** The same table keyed by a pair of ints, e.g. a flow's packed source
    and destination addresses ([Addr.key]). Visits are in
    lexicographic key order. *)
module Pair : sig
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int

  val find : 'a t -> int -> int -> 'a
  (** @raise Not_found if the key is absent. *)

  val find_opt : 'a t -> int -> int -> 'a option
  val mem : 'a t -> int -> int -> bool
  val replace : 'a t -> int -> int -> 'a -> unit
  val remove : 'a t -> int -> int -> unit

  val bindings : 'a t -> ((int * int) * 'a) list
  (** All bindings in lexicographic key order. *)

  val fold : (int -> int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Fold in lexicographic key order (left fold). *)
end
