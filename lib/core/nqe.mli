(** NetKernel Queue Elements — the fixed 32-byte socket-semantics units.

    This is the paper's Figure 3 laid out for real: every socket operation
    and every result crossing the VM/NSM boundary is 32 bytes in a slot of
    a lockless queue ({!Nqe_ring}), switched by CoreEngine with a copy.
    There is no host record behind an NQE: a producer writes its fields
    straight into a 32-byte buffer with {!write}, the rings copy slots, and
    a consumer reads the fields where they lie through {!View}. The record
    codec the tests, Fig 11 and the benchmarks use as an independent
    reference lives outside the datapath, in [Nqe_codec].

    An NQE is named by a buffer and the byte offset of its slot. One handed
    to a callback (an owner's apply, a drain callback, a VM forwarder) is
    valid only during the call: the slot is reused by the next drain, so a
    callee that keeps an NQE copies its 32 bytes.

    Layout (little-endian):
    {v
    off len field
      0   1  op type
      1   1  VM id
      2   1  queue-set id
      3   4  VM socket id
      7   8  op_data (addresses, backlog, result codes)
     15   8  data pointer (hugepage offset)
     23   4  size
     27   1  flags (bit 0: synthetic payload)
     28   4  span id (Nkspan sample; 0 = untraced)
    v} *)

type op =
  (* VM -> NSM *)
  | Socket
  | Bind
  | Listen
  | Connect
  | Send
  | Recv_done  (** return receive-buffer credit after the app consumed data *)
  | Close
  (* NSM -> VM *)
  | Comp_socket
  | Comp_bind
  | Comp_listen
  | Comp_connect
  | Comp_send
  | Comp_close
  | Ev_accept  (** new connection on a listener (pipelined accept, §4.6) *)
  | Ev_data  (** newly received data sitting in hugepages *)
  | Ev_eof
  | Ev_err

val op_to_string : op -> string

val qset_unassigned : int
(** Placed in [qset] by the NSM for events with no VM-side history
    (e.g. [Ev_accept]); CoreEngine then picks the target queue set. *)

val nsm_sock_bit : int
(** Socket ids with this bit set were allocated by the NSM side (accepted
    connections), so the two allocators never collide. *)

val conn_key : vm_id:int -> sock:int -> int
(** ⟨VM id, socket id⟩ packed into one int, the key of the NSM-side
    connection tables: the VM id (one wire byte) above bit 32, the socket
    id (32 wire bits) below. Keys sort like the pairs. *)

val conn_key_vm : int -> int
val conn_key_sock : int -> int

val size_bytes : int
(** 32. *)

val op_to_byte : op -> int
(** The op's wire byte. *)

val op_of_byte : int -> op option
(** The op a wire byte names; [None] for a byte no op uses. *)

val write :
  bytes ->
  pos:int ->
  op:op ->
  vm_id:int ->
  qset:int ->
  sock:int ->
  op_data:int ->
  data_ptr:int ->
  size:int ->
  synthetic:bool ->
  span:int ->
  unit
(** [write buf ~pos ...] lays one NQE out in [buf] from byte [pos] (which
    must leave room for {!size_bytes}). The one writer every producer
    uses: every field is given, every field is an immediate, and nothing
    is allocated. [vm_id] and [qset] keep their low byte, [sock], [size]
    and [span] their low 32 bits. *)

(** Zero-allocation accessors over the NQE at byte offset [pos] of [buf].

    The datapath reads every field it needs here, as unboxed ints, so
    switching and applying an NQE never allocates. Every accessor agrees
    with the reference decoder field for field (test_nqe.ml checks them
    against each other across all opcodes and field bounds).

    All accessors except {!View.ok} assume a well-formed slot: [pos >= 0]
    and [pos + size_bytes <= Bytes.length buf]. Call {!View.ok} first on
    untrusted input; {!View.op} raises [Invalid_argument] on an unknown
    opcode. *)
module View : sig
  val ok : bytes -> int -> bool
  (** Bounds and opcode check. *)

  val op : bytes -> int -> op

  val vm_id : bytes -> int -> int

  val qset : bytes -> int -> int

  val set_qset : bytes -> int -> int -> unit
  (** In-place queue-set patch, used when CoreEngine assigns a queue set
      to an NSM-originated event ({!qset_unassigned}). *)

  val sock : bytes -> int -> int

  val op_data : bytes -> int -> int

  val data_ptr : bytes -> int -> int

  val size : bytes -> int -> int

  val synthetic : bytes -> int -> bool

  val span : bytes -> int -> int
end

(** {1 Field packing helpers} *)

val pack_addr : Addr.t -> int
(** The address in op_data's low 48 bits: the IP below bit 32, the port
    above. *)

val unpack_addr : int -> Addr.t

val err_code : Tcpstack.Types.err -> int

val err_of_code : int -> Tcpstack.Types.err option
(** [None] for 0 (success). *)

val ok_code : int
