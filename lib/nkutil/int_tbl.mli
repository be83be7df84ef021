(** Int-keyed hash table, the one table of the dataplane's bookkeeping
    (CoreEngine's connection table, GuestLib's and ServiceLib's socket
    maps, epoll membership, hugepage extents, route tables).

    It is [Hashtbl.Make] over [int] with a multiplicative mixing hash, so a
    lookup makes no C call and allocates nothing ([find] raises
    [Not_found]; only [find_opt] allocates its [Some]). Keys that share
    their low bits (multiples of 64 or of 16,384) still spread over the
    buckets.

    Whole-table visits are in ascending key order only: the table exposes
    no bucket-order iteration, so nklint's D2 rule holds by construction.
    Each visit snapshots and sorts the bindings (O(n log n)); the callback
    may change the table. *)

type 'a t

val create : int -> 'a t
val length : 'a t -> int

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is absent. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding (a key has at most one). *)

val remove : 'a t -> int -> unit
val reset : 'a t -> unit

val stats : 'a t -> Hashtbl.statistics
(** Bucket statistics, e.g. the longest bucket ([max_bucket_length]). *)

val bindings : 'a t -> (int * 'a) list
(** All bindings in ascending key order. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visit in ascending key order. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold in ascending key order (left fold). *)
