(** NK device: the virtual device pairing a VM or NSM with CoreEngine, and
    the one place the queue-set protocol lives.

    Bundles one queue set per vCPU plus the hugepage region reference, and
    carries the two notification directions:
    - the CE kick: the device owner produced outbound NQEs (GuestLib's job
      and send queues, or ServiceLib's completion and receive queues);
    - the owner wake: CoreEngine delivered inbound NQEs to queue set [i]
      ({!wake}), served by the owner's poll loop ({!serve}) or, on a relay
      device, by a handler that {!drain}s the rings.

    Outbound posting goes through a per-queue overflow buffer so a full
    ring backpressures instead of dropping (the simulated analogue of the
    producer spinning on a full lockless queue). The ring an NQE rides is
    always {!Queue_set.of_op} of its op.

    NQEs move by copy and nothing here allocates per NQE: {!post} and
    {!push} copy the caller's 32 bytes into a ring slot (an overflow entry
    keeps its own copy), the owner's poll loop drains into a slot buffer
    per queue set, and the kick, wake and burst continuations are built
    once. An NQE handed to an [apply] or a {!drain} callback, as a buffer
    and a byte offset, is valid only during the call. *)

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
    device mark the ring stage of traced requests at enqueue time and the
    owner's first stage when {!serve} dequeues them. *)

val id : t -> int

val n_qsets : t -> int

val qset : t -> int -> Queue_set.t

val hugepages : t -> Hugepages.t

val hash_qset : t -> int -> int
(** The queue set a socket (or any key) is pinned to: a multiplicative hash
    of [key] into [\[0, n_qsets t)]. *)

val set_kick_ce : t -> (int -> unit) -> unit
(** Installed by CoreEngine at registration; the argument is the queue-set
    index the owner posted on, so a sharded CoreEngine wakes only the
    switching shard that owns that queue set. *)

val set_kick_owner : t -> (int -> unit) -> unit
(** Replace the owner's wake handler (argument: the queue-set index). For
    devices with no poll loop, such as Nkfabric's relay stub and proxy,
    which {!drain} their rings on every wake. *)

val post : t -> qset:int -> bytes -> int -> unit
(** [post t ~qset buf pos]: owner-side enqueue of the NQE at byte offset
    [pos] of [buf] on its op's ring + CE kick; spills a copy to the
    overflow buffer when the ring is full. [buf] is the caller's again
    when [post] returns. *)

val push : t -> qset:int -> bytes -> int -> bool
(** CoreEngine-side enqueue (a copy) of the NQE at byte offset [pos] of
    [buf] on its op's ring; [false] if that ring is full (no overflow, no
    kick: the caller parks it and {!wake}s the owner on success). *)

val wake : t -> Sim.Engine.t -> qset:int -> delay:float -> unit
(** Arm an owner wake for queue set [qset] [delay] seconds from now. A
    wake already armed for exactly that instant absorbs this one: the
    owner's budgeted poll drains the whole same-instant burst. *)

val serve :
  t -> cores:Sim.Cpu.Set.t -> component:string -> (int -> bytes -> int -> unit) -> unit
(** Install the owner's budgeted poll loop. On a wake of queue set [i] the
    loop drains a burst from [i]'s inbound rings into [i]'s slot buffer,
    charges poll + one [nqe_decode] per NQE on core [i] of [cores], then
    applies each NQE there where it lies ([apply i buf pos], reading
    through {!Nqe.View}; an NQE with an unknown opcode is skipped) and
    polls again until a drain comes back empty. The device role sets the
    rest:
    - [Vm_side] (GuestLib): up to 64 completions, then up to 64 receive
      events; [guest_poll], plus [guest_interrupt] when the queue set had
      been idle for more than [guest_idle_window] (§4.6); span stage
      ["completion"], profiler frame ["poll"];
    - [Nsm_side] (ServiceLib, the shared-memory NSM): 64 across job then
      send; [service_poll]; span stage ["servicelib"], profiler frame
      ["dispatch"].
    [component] is the span and profiler component ([vm<id>], [nsm<id>]). *)

val stop_serving : t -> unit
(** The owner died: its poll loop drains nothing more (a burst already
    handed to [apply] still completes). *)

val drain : t -> qset:int -> toward:[ `Vm | `Nsm ] -> (bytes -> int -> unit) -> unit
(** Synchronously pop the pair of rings flowing toward one side — completion
    then receive for [`Vm], job then send for [`Nsm] — handing each NQE to
    [f] as a buffer and byte offset: the first ring completely, then the
    second. [f] must not push into the rings being drained, and copies any
    NQE it keeps past the call. The overflow buffer is left alone. *)

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
