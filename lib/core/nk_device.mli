(** NK device: the virtual device pairing a VM or NSM with CoreEngine.

    Bundles one queue set per vCPU plus the hugepage region reference, and
    carries the two notification directions:
    - [kick_ce]: the device owner produced outbound NQEs (GuestLib's job and
      send queues, or ServiceLib's completion and receive queues);
    - [kick_owner]: CoreEngine delivered inbound NQEs to queue set [i].

    Outbound posting goes through a per-queue overflow buffer so a full
    ring backpressures instead of dropping (the simulated analogue of the
    producer spinning on a full lockless queue). *)

type role = Vm_side | Nsm_side

type t

val create :
  id:int ->
  role:role ->
  qsets:int ->
  ?capacity:int ->
  hugepages:Hugepages.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  unit ->
  t
(** [mon] records [nk_device/dev<id>/...] metrics (posted NQEs, ring-full
    spills, queued depth) and [Ring_full] trace events. [spans] lets the
    device mark the ring stage of traced requests at enqueue time. *)

val id : t -> int

val role : t -> role

val n_qsets : t -> int

val qset : t -> int -> Queue_set.t

val hugepages : t -> Hugepages.t

val set_kick_ce : t -> (int -> unit) -> unit
(** Installed by CoreEngine at registration; the argument is the queue-set
    index the owner posted on, so a sharded CoreEngine wakes only the
    switching shard that owns that queue set. *)

val set_kick_owner : t -> (int -> unit) -> unit
(** Installed by GuestLib / ServiceLib; argument is the queue-set index. *)

val kick_owner : t -> int -> unit

val wake_thunk : t -> qset:int -> unit -> unit
(** Preallocated [fun () -> kick_owner t qset] — the callback CoreEngine
    arms as a delayed owner wake. Shared so the per-delivery wake path
    does not allocate a closure. *)

val wake_armed_at : t -> qset:int -> float
(** Fire time of the last kick-owner wake armed for this queue set
    ([neg_infinity] before the first). When a delivery wants a wake at
    exactly this time, one is already scheduled and the new one may be
    elided: the owner-side polls are budgeted bursts, so the armed wake
    drains the whole same-instant burst. *)

val set_wake_armed_at : t -> qset:int -> float -> unit
(** Recorded by CoreEngine when it arms a wake; never cleared (virtual
    time is monotone, so a past stamp can never alias a future one). *)

val post : t -> qset:int -> [ `Job | `Completion | `Send | `Receive ] -> bytes -> unit
(** Owner-side enqueue of an encoded NQE + CE kick; spills to the overflow
    buffer when the ring is full. *)

val flush_overflow : t -> unit
(** Move spilled NQEs into their rings as space allows (CoreEngine calls
    this as it drains). *)

val outbound_pending : t -> qset:int -> int
(** Encoded NQEs waiting for the CoreEngine in [qset]: the [qset] rings this
    device's owner produces plus the overflow buffer. The overflow is
    device-wide, so it is counted in every queue set's total. *)

val has_outbound : t -> bool
(** [true] iff [outbound_pending t ~qset] is positive for some [qset]: an
    outbound ring of any queue set or the overflow holds an NQE. Early-exit
    and allocation-free; CoreEngine sweeps skip a device for which it is
    [false]. *)
