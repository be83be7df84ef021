(** ServiceLib: the NSM-side shim between NQEs and the network stack
    (paper §4.5, §5).

    Polls the NSM device's job and send queues (busy-polling, emulated
    kick-driven), translates each NQE into the corresponding call of the
    backend transport ({!Tcpstack.Stack_ops.t} — kernel stack, mTCP, or a
    non-TCP protocol such as Homa), and translates backend results and
    received data back into NQEs:

    - accepted connections are announced eagerly ([Ev_accept], pipelined
      accept per §4.6), with NSM-allocated socket ids;
    - received data is copied into the VM's hugepages and announced with
      [Ev_data]; a per-connection receive credit bounds in-flight data and
      exerts backpressure on the transport when the VM stops reading;
    - sends drain from hugepages into the stack, buffering when the stack's
      send buffer is full, and return the credit with [Comp_send].

    One ServiceLib can serve several VMs (multiplexing, §6.1): each VM is
    registered with its device's hugepage region. *)

type t

val create :
  engine:Sim.Engine.t ->
  device:Nk_device.t ->
  ops:Tcpstack.Stack_ops.t ->
  cores:Sim.Cpu.Set.t ->
  costs:Nk_costs.t ->
  pressure:Sim.Pressure.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  unit ->
  t
(** [device] is the NSM's NK device (one queue set per core in [cores]).
    [spans] records the servicelib/stack stages of sampled requests. *)

val register_vm : t -> vm_id:int -> hugepages:Hugepages.t -> ips:Addr.ip list -> unit
(** Serve [vm_id]: its payloads live in [hugepages]; the NSM stack takes
    ownership of the VM's IPs. Idempotent: re-registering an already-served
    VM only (re-)adds IPs and never disturbs live sockets. *)

val close_vm_listeners : t -> vm_id:int -> unit
(** Release the VM's listening endpoints on this NSM (the listeners are
    being re-homed to another NSM); established connections accepted
    through them keep running. *)

val fail : t -> unit
(** Simulated crash: abort every connection (remote peers observe resets),
    close every listener, and go permanently silent — no NQE is produced
    afterwards. Its owner stops the device's poll loop
    ({!Nk_device.stop_serving}), so none is consumed either. *)

(** {1 VM export/import (live NSM migration)} *)

type pending_export = {
  x_offset : int;
  x_len : int;
  x_off : int;
  x_synthetic : bool;
  x_span : int;
}
(** A queued-but-unsent payload extent, by hugepage offset — the hugepage
    region itself is shared with the destination, so only coordinates
    travel. *)

type sock_export = {
  x_gid : int;
  x_vm_qset : int;
  x_bound : Addr.t option;
  x_recv_credit_used : int;
  x_sendq : pending_export list;
  x_closing : bool;
  x_eof_sent : bool;
  x_err_sent : bool;
  x_conn : Tcpstack.Stack_ops.export option;  (** [None] for a bare socket *)
}

type vm_export = { x_vm_id : int; x_next_gid : int; x_socks : sock_export list }

val export_vm : t -> vm_id:int -> vm_export option
(** Quietly detach every one of the VM's sockets: connections are
    serialized via the backend's [export_conn] (no parting segment, no
    events), listeners are closed silently (the migration protocol replays
    them at the destination via {!Guestlib.remigrate_listeners}), and the
    VM leaves this ServiceLib. [None] if the VM is not registered here. *)

val import_vm : t -> vm_export -> hugepages:Hugepages.t -> ips:Addr.ip list -> unit
(** Resume an exported VM here: registers it, rebuilds each socket,
    re-imports connections over their original content channels, and
    restarts the send/receive pumps. A connection whose channel vanished
    mid-flight surfaces as [Ev_err] to the VM. *)

val set_vm_forwarder : t -> vm_id:int -> (bytes -> int -> unit) -> unit
(** After [export_vm], NQEs already drained into a scratch burst but not
    yet applied would find no VM; the forwarder ships them to the
    destination instead (the migration protocol's late-NQE hook). It gets
    each NQE as a buffer and byte offset, valid only during the call. *)

val release_ips : t -> Addr.ip list -> unit
(** Disown IPs after [export_vm] (their VM now lives on another host), so
    stray in-flight segments are silently dropped by the vswitch instead of
    drawing an RST from this stack. *)

val quiesce_vm_listeners : t -> vm_id:int -> unit
(** Migration quiesce, before [export_vm]: the VM's listeners silently
    stop admitting new connections (peers retry per their protocol's own
    recovery and land on the post-cut owner) while in-flight handshakes
    finish and queued accepts drain — so the cut finds empty accept
    queues and aborts nothing. *)

type stats = {
  nqes_rx : int;
  nqes_tx : int;
  bytes_to_stack : int;
  bytes_to_vm : int;
}

val stats : t -> stats
(** Immutable snapshot of the registry-backed [servicelib/nsm<id>/...]
    counters. *)
