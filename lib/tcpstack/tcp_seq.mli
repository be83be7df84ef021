(** 32-bit TCP sequence-number arithmetic.

    Sequence numbers live modulo 2^32 and compare by signed distance, so
    they order correctly across wrap-around (RFC 793 §3.3). *)

val modulus : int
(** 2^32. *)

val add : int -> int -> int
(** [add a n] is [a + n] mod 2^32 ([n] may be negative). *)

val diff : int -> int -> int
(** [diff a b] is the signed distance [a - b] in [\[-2^31, 2^31)]. *)

val lt : int -> int -> bool
(** [lt a b] iff [a] precedes [b] (signed distance negative). *)

val leq : int -> int -> bool

val gt : int -> int -> bool

val geq : int -> int -> bool

val between : low:int -> x:int -> high:int -> bool
(** [between ~low ~x ~high] iff [low <= x < high] in sequence space. *)
