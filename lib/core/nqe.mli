(** NetKernel Queue Elements — the fixed 32-byte socket-semantics units.

    This is the paper's Figure 3 laid out for real: every socket operation
    and every result crossing the VM/NSM boundary is marshalled into 32
    bytes, transmitted through the lockless queues and switched by
    CoreEngine. The codec is an actual binary serializer over [bytes] so
    the Fig 11 microbenchmark measures genuine encode/switch/decode work.

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

type t = {
  op : op;
  vm_id : int;  (** 0–255 *)
  qset : int;  (** queue-set id; {!qset_unassigned} lets CoreEngine pick *)
  sock : int;  (** VM socket id (GuestLib- or NSM-allocated) *)
  op_data : int64;
  data_ptr : int;  (** hugepage offset for Send / Ev_data *)
  size : int;
  synthetic : bool;  (** payload is content-free filler *)
  span : int;  (** Nkspan span id carried end-to-end; 0 = untraced *)
}

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

val make :
  op:op -> vm_id:int -> qset:int -> sock:int -> ?op_data:int64 -> ?data_ptr:int ->
  ?size:int -> ?synthetic:bool -> ?span:int -> unit -> t

val encode : t -> bytes
(** Always returns a fresh 32-byte buffer. *)

val decode : bytes -> (t, string) result

val span_of_raw : bytes -> int
(** Peek the span id of an encoded NQE without a full decode (for
    batch-dispatch loops that only need to open a stage). 0 on short
    buffers. *)

(** Zero-allocation accessors over an encoded NQE.

    The hot path (CoreEngine switching, queue-set routing, Nsm_shmem
    dispatch) reads at most a few fields per record; these read them
    directly from the wire bytes as unboxed ints, so switching never
    allocates a {!t} record. [decode] remains the reference codec for
    tests, tracing, and cold paths — every accessor here must agree with
    it field-for-field (enforced by test_nqe.ml across all opcodes).

    All accessors except {!View.ok} assume a well-formed buffer:
    [Bytes.length raw >= size_bytes]. Call {!View.ok} first on untrusted
    input; {!View.op} raises [Invalid_argument] on an unknown opcode. *)
module View : sig
  val ok : bytes -> bool
  (** Length and opcode check — the raw-record analogue of
      [decode raw |> Result.is_ok]. *)

  val op : bytes -> op

  val vm_id : bytes -> int

  val qset : bytes -> int

  val set_qset : bytes -> int -> unit
  (** In-place queue-set patch, used when CoreEngine assigns a queue set
      to an NSM-originated event ({!qset_unassigned}). *)

  val sock : bytes -> int

  val op_data : bytes -> int64

  val data_ptr : bytes -> int

  val size : bytes -> int

  val synthetic : bytes -> bool

  val span : bytes -> int
end

(** {1 Field packing helpers} *)

val pack_addr : Addr.t -> int64

val unpack_addr : int64 -> Addr.t

val err_code : Tcpstack.Types.err -> int64

val err_of_code : int64 -> Tcpstack.Types.err option
(** [None] for 0 (success). *)

val ok_code : int64
