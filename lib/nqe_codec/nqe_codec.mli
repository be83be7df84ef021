(** Reference record codec for NQEs.

    The datapath never builds a record for an NQE: producers write slots
    with {!Nkcore.Nqe.write} and consumers read them through
    {!Nkcore.Nqe.View}. This codec is the independent second reading of
    the same 32-byte layout: it encodes and decodes a whole record with
    its own stores and loads, so the tests can check the writer and the
    views against it, and Fig 11 and the microbenchmarks can drive
    ready-made NQEs. Nothing under lib/core uses it. *)

type t = {
  op : Nkcore.Nqe.op;
  vm_id : int;  (** 0–255 *)
  qset : int;  (** queue-set id; {!Nkcore.Nqe.qset_unassigned} lets CoreEngine pick *)
  sock : int;  (** VM socket id (GuestLib- or NSM-allocated) *)
  op_data : int;  (** addresses, backlog, result codes *)
  data_ptr : int;  (** hugepage offset for Send / Ev_data *)
  size : int;
  synthetic : bool;  (** payload is content-free filler *)
  span : int;  (** Nkspan span id carried end-to-end; 0 = untraced *)
}

val make :
  op:Nkcore.Nqe.op -> vm_id:int -> qset:int -> sock:int -> ?op_data:int -> ?data_ptr:int ->
  ?size:int -> ?synthetic:bool -> ?span:int -> unit -> t
(** Unset fields are 0 / [false]. *)

val encode_into : t -> bytes -> pos:int -> unit
(** Lay [t] out at byte [pos] of the buffer; [Invalid_argument] if the 32
    bytes do not fit. *)

val encode : t -> bytes
(** A fresh 32-byte buffer. *)

val decode_from : bytes -> pos:int -> (t, string) result
(** The record at byte [pos]; [Error] on a short buffer or an unknown
    opcode. *)

val decode : bytes -> (t, string) result
(** [decode_from b ~pos:0]. *)
