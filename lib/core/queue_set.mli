(** One queue set of an NK device (paper §4.2).

    Four independent single-producer/single-consumer rings of NQEs, each
    holding its NQEs as 32-byte slots ({!Nqe_ring}): {e job} for control
    operations from the VM, {e completion} for their results, {e send} for
    data-carrying operations, and {e receive} for events of newly received
    data. Each ring is shared memory with the CoreEngine, which is what
    keeps them lockless. NQEs enter and leave every ring by copy, and no
    ring allocates a slot before its first push. *)

type queue = Nqe_ring.t

type t = {
  job : queue;
  completion : queue;
  send : queue;
  receive : queue;
}

val create : ?capacity:int -> unit -> t
(** [capacity] per ring, default 8192. *)

val of_op : Nqe.op -> [ `Job | `Completion | `Send | `Receive ]
(** The ring an NQE op rides: [Send] on send, the other VM-to-NSM ops on
    job; [Ev_accept], [Ev_data] and [Ev_eof] on receive; every [Comp_*]
    and [Ev_err] on completion. The one place an op picks its ring. *)

val queue_name : [ `Job | `Completion | `Send | `Receive ] -> string
(** Canonical lowercase ring name, used by Nkmon labels and Nkspan ring-stage
    component tags. *)

val trace_queue : [ `Job | `Completion | `Send | `Receive ] -> Nkmon.Trace.queue
(** The same ring as an Nkmon trace-event field. *)

val inbound_length : t -> toward:[ `Vm | `Nsm ] -> int
(** NQEs queued in the pair of rings flowing toward one side. *)

val drain_into : t -> toward:[ `Vm | `Nsm ] -> bytes -> budget:int -> shared:bool -> int
(** Burst-drain the pair of rings flowing toward one side into a reusable
    slot buffer, returning how many NQEs were copied from slot 0:
    completion then receive for [`Vm] (GuestLib's inbound pair), job then
    send for [`Nsm]. Ring pop order is preserved, first ring's records
    first. [budget] bounds the first ring's take; with [shared:true] the
    second ring gets the remainder ([budget - n1], one burst across the
    pair), with [shared:false] it gets its own full [budget]. The buffer
    must have a slot for every NQE the drain can take. *)

val total_queued : t -> int
