(** Network Stack Modules: the operator-managed stacks VMs attach to.

    An NSM is "an individual VM" on the host (paper §3) with its own vCPUs,
    a vNIC into the host vswitch, an NK device towards CoreEngine, and a
    ServiceLib driving a network stack. Three kinds are provided, mirroring
    the paper's implementation and use cases:

    - {!create_kernel}: the Linux-kernel-stack NSM (ServiceLib calls kernel
      APIs directly — no syscall cost, §5);
    - {!create_mtcp}: the mTCP NSM ({!Mtcpstack.Mtcp}, §6.3);
    - {!create_homa}: the Homa-style RPC NSM ({!Homastack.Homa}) — the
      non-TCP transport a tenant can switch to live ("changing the network
      stack on the fly", paper §3.2);
    - {!create_shmem}: the shared-memory NSM for colocated VMs (§6.4). *)

type t

val create_kernel :
  Host.t ->
  name:string ->
  vcpus:int ->
  ?cc_factory:Tcpstack.Cc.factory ->
  unit ->
  t
(** [cc_factory] defaults to CUBIC ({!Tcpstack.Cc_cubic}); fig09 passes the
    VM-level controller ({!Tcpstack.Cc_vm}). *)

val create_mtcp : Host.t -> name:string -> vcpus:int -> unit -> t

val create_homa : Host.t -> name:string -> vcpus:int -> unit -> t
(** The Homa-style RPC NSM ({!Homastack.Homa}): message-oriented,
    backlog-free, receiver-driven. The ephemeral-port slice is carved per
    NSM id exactly like the TCP NSMs'. *)

val create_shmem : Host.t -> name:string -> vcpus:int -> unit -> t

val id : t -> int

val name : t -> string

val cores : t -> Sim.Cpu.Set.t

val device : t -> Nk_device.t

val register_vm : t -> vm_id:int -> hugepages:Hugepages.t -> ips:Addr.ip list -> unit
(** Called by {!Vm.create_nk}; wires the VM's payload region and IPs. *)

val close_vm_listeners : t -> vm_id:int -> unit
(** Release the VM's listening endpoints on this NSM only (listener
    re-homing); established connections keep running. No-op for the
    shared-memory NSM. *)

(** {1 Live migration (Nkfabric)}

    These dispatch to the {!Servicelib} export/import verbs; they raise
    [Invalid_argument] on a shared-memory NSM (no serializable state). *)

val export_vm : t -> vm_id:int -> Servicelib.vm_export option

val import_vm : t -> Servicelib.vm_export -> hugepages:Hugepages.t -> ips:Addr.ip list -> unit

val set_vm_forwarder : t -> vm_id:int -> (bytes -> int -> unit) -> unit

val release_vm_ips : t -> ips:Addr.ip list -> unit
(** Disown the migrated VM's IPs on the backend stack so stray in-flight
    segments drop silently instead of drawing RSTs. No-op for the
    shared-memory NSM. *)

val quiesce_vm_listeners : t -> vm_id:int -> unit
(** Migration quiesce (before the cut): the VM's listeners silently stop
    admitting new connections (peers retry per their protocol's own
    recovery) while in-flight handshakes and queued accepts settle, so
    the later {!export_vm} finds nothing half-done to abort. *)

val fail : t -> unit
(** Inject an NSM crash: the module goes silent, every connection it
    carried is reset, and {!Coreengine.crash_nsm} errors out the affected
    VM sockets. Idempotent. *)

val retire : t -> unit
(** Graceful removal (scale-down after a completed drain): deregister from
    CoreEngine without the crash semantics. Marks the NSM {!failed} so the
    control plane stops considering it. *)

val failed : t -> bool
(** True once {!fail} or {!retire} ran. *)

val stack_stats : t -> Tcpstack.Stack.stats list
(** Per-TCP-stack (or per-shard) statistics; empty for non-TCP NSMs. *)

val proto : t -> string
(** Transport protocol id this NSM serves ("tcp", "homa", "shm") — what
    the control plane reports on a live protocol handover. *)

val servicelib_stats : t -> Servicelib.stats option

val busy_cycles : t -> float
(** Total CPU cycles consumed by the NSM's cores. *)
