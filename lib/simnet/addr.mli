(** Network addresses and flow identifiers. *)

type ip = int
(** Host address in [0, 2^32); experiments allocate small integers. *)

type port = int
(** In [0, 2^16). *)

type t = private { ip : ip; port : port }

val make : ip -> port -> t
(** @raise Invalid_argument if [ip] or [port] is outside its range (the
    ranges [key] and the NQE address field [Nqe.pack_addr] pack). *)

val equal : t -> t -> bool

val key : t -> int
(** [ip lsl 16 lor port], below 2^48: distinct addresses have distinct
    keys, and keys order as (ip, port) pairs. The key of the dataplane's
    address tables, and a flow's is the pair (key src, key dst)
    ([Nkutil.Int_tbl.Pair]). *)

(** Directed 4-tuple identifying one direction of a connection. *)
module Flow : sig
  type addr := t

  type t = private { src : addr; dst : addr }

  val make : src:addr -> dst:addr -> t

  val reverse : t -> t
  (** Swap source and destination (the ACK direction). A lookup of the
      reverse flow swaps the key pair instead. *)

  val rss_hash : t -> int
  (** Direction-independent hash: both directions of a connection map to the
      same value, so RX processing and the socket's core coincide (RSS). *)
end
