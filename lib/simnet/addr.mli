(** Network addresses and flow identifiers. *)

type ip = int
(** Opaque host address; experiments allocate small integers. *)

type port = int

type t = { ip : ip; port : port }

val make : ip -> port -> t

val equal : t -> t -> bool

val hash : t -> int

(** Directed 4-tuple identifying one direction of a connection. *)
module Flow : sig
  type addr := t

  type t = { src : addr; dst : addr }

  val make : src:addr -> dst:addr -> t

  val reverse : t -> t
  (** Swap source and destination (the ACK direction). *)

  val equal : t -> t -> bool

  val hash : t -> int

  val rss_hash : t -> int
  (** Direction-independent hash: both directions of a connection map to the
      same value, so RX processing and the socket's core coincide (RSS). *)
end
