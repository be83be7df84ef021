(** GuestLib: transparent BSD-socket redirection inside the guest (paper
    §4.1–§4.2).

    Presents the same {!Tcpstack.Socket_api.t} applications use over the
    in-VM stack, but implements every call by translating it into NQEs on
    the VM's NK device: control operations go to the job queue, sends copy
    payload into the shared hugepages and enqueue a send NQE, results and
    receive events come back through the completion and receive queues.
    I/O event notification (epoll) is served locally from GuestLib state,
    woken by the NK device's interrupt-driven polling (§4.6).

    Send-buffer semantics follow the paper's pipelining: [send] returns as
    soon as payload is in the hugepages; the NSM's completion NQE returns
    the buffer credit. *)

type t

val create :
  engine:Sim.Engine.t ->
  vm_id:int ->
  cores:Sim.Cpu.Set.t ->
  device:Nk_device.t ->
  profile:Sim.Cost_profile.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  unit ->
  t
(** [device] must have one queue set per core in [cores]. [profile] is the
    guest kernel's cost profile (syscall entry, copies, epoll wake).
    [spans] (default a disabled {!Nkspan.null}) makes [send] the span birth
    point: sampled requests get a span id stamped into their NQE and the
    guestlib/completion stages recorded here. *)

val api : t -> Tcpstack.Socket_api.t

type stats = {
  nqes_tx : int;
  nqes_rx : int;
  bytes_sent : int;
  bytes_received : int;
  send_eagain : int;  (** sends rejected for lack of buffer/extent *)
}

val stats : t -> stats
(** Immutable snapshot of the registry-backed [guestlib/vm<id>/...]
    counters. *)

val listening_socks : t -> int list
(** Guest socket ids currently in the listening state (sorted). *)

val remigrate_listeners : t -> unit
(** Replay socket/bind/listen NQEs for every listening socket. Used by the
    control plane after the listeners' routes were forgotten
    ({!Coreengine.forget_route}) and their source-NSM listeners closed: the
    replayed NQEs re-run NSM assignment, landing the listeners on the VM's
    current NSM. Clears any pending crash error on the listeners. *)
