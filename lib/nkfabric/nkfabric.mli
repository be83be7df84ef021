open Nkcore

(** Nkfabric: a multi-host cluster world with live NSM migration.

    The paper's thesis is that once the network stack is part of the
    virtualized infrastructure, the operator can manage it like any other
    infrastructure service (§2, §8). Nkfabric takes that across the host
    boundary: it joins N simulated {!Host.t}s into one cluster behind the
    shared {!Fabric.t}, adds a second, NQE-level interconnect (the
    spine), places VMs across hosts under a {!policy}, and — the
    centerpiece — migrates a live NSM from one host to another without
    breaking a single established connection.

    {2 Addressing}

    Every node gets a disjoint VM/NSM id range ({!Host.set_id_base}), so
    device ids are unique cluster-wide and a migrated NSM's state can exist
    on two hosts at once. IP routing stays in the shared fabric: after a
    migration, {!Fabric.add_route} re-points the VM's IPs at the
    destination host, whose NSM stack now terminates the VM's TCP flows.

    {2 Migration protocol}

    The VM itself never moves — its GuestLib, NK device and hugepage region
    stay on the {e home} host. What moves is the serving NSM state
    ({!Nsm.export_vm} / {!Nsm.import_vm}): TCBs, reassembly buffers,
    congestion state, queued payload extents and listener intents. The
    datapath is then stitched with a relay pair:

    - a {e stub} NSM-side device on the home CoreEngine inherits the
      departed NSM's connection-table routes ({!Coreengine.rehome_nsm_routes})
      and ships every VM→NSM NQE over the spine;
    - a {e proxy} VM-side device on the destination CoreEngine impersonates
      the VM (same id, same queue-set geometry, the VM's real hugepage
      region) and ships every NSM→VM NQE back.

    Late NQEs drained by the gagged source ServiceLib follow the relay via
    {!Nsm.set_vm_forwarder}; NSM→VM NQEs the CoreEngine had not yet
    consumed are re-posted into the stub on their original rings and queue
    sets (deterministic drain-and-replay), so per-connection delivery order
    is preserved end to end. Listening sockets are replayed by
    {!Guestlib.remigrate_listeners} and land on the destination host. A VM
    can be re-migrated: the standing relay is re-targeted and in-flight
    spine shipments resolve the current proxy at delivery time. A VM
    migrated back to its home node {e unwinds} instead: no proxy is built
    (it would collide with the VM's real device), the relay record is
    re-pointed at the real device so straggling shipments land in the VM's
    own rings, and the home CoreEngine serves it directly again. *)

type policy =
  | Spread  (** lowest node utilization, ties by VM count then node order *)
  | Pack  (** most-loaded node first (bin packing) *)

type node

type t

type stats = {
  migrations : int;  (** completed {!migrate_nsm} calls *)
  vms_relayed : int;  (** VMs currently served by a remote NSM *)
  nqes_shipped : int;  (** NQEs carried by the spine, both directions *)
  bytes_shipped : int;
}

val create : ?policy:policy -> Testbed.t -> t
(** A cluster over the testbed's engine, fabric and shared registry. *)

val add_node : t -> name:string -> node
(** Add a host as a cluster node with its own disjoint id range. Raises
    after 6 nodes (the one-byte NQE vm-id field bounds the id space).

    Each node gets its own {!Nkmon.t} (registry + trace ring) and
    {!Nkspan.t} (span host index [node_index + 1], so span ids are
    host-unique cluster-wide), both built with the testbed's
    {!Testbed.Config} knobs. The testbed-wide [tb.mon]/[tb.spans] keep
    serving hosts added outside the cluster and cluster-scope metrics (the
    spine, migrations); Nkobs federates all of them back into one view. *)

val testbed : t -> Testbed.t
(** The world the cluster is built over (engine, fabric, cluster-scope
    [mon]/[spans]). *)

val nodes : t -> node list
(** In add order. *)

val node_host : node -> Host.t

val node_index : node -> int

val node_mon : node -> Nkmon.t
(** The node's own observability handle (all components on the node's host
    report here). *)

val node_spans : node -> Nkspan.t
(** The node's span recorder; {!Nkspan.host_index} is [node_index + 1].
    The spine relay records the ["spine"] stage against the {e home}
    node's recorder, since that is where a migrated VM's spans are
    minted. *)

val node_nsms : node -> Nsm.t list
(** The node's serving pool, in add order. *)

val add_nsm : t -> node -> Nsm.t -> unit
(** Put an NSM (created on the node's host) into the node's serving pool. *)

val set_ctl : node -> Nkctl.t -> unit
(** Give the node a local control loop. {!place_vm} registers placed VMs
    with it; {!migrate_nsm} releases the source NSM and its VMs from it
    before migrating, so the local policy never fights the cluster. *)

val node_vm_count : t -> node -> int
(** VMs currently {e served} by this node (placed here, migrated in, minus
    migrated out). *)

val place_vm : t -> name:string -> vcpus:int -> ips:Addr.ip list -> unit -> Vm.t
(** Create a NetKernel VM on the node chosen by the cluster {!policy} and
    home it on that node's least-loaded NSM. Raises if no node has a live
    NSM. *)

val vm_node : t -> Vm.t -> node option
(** The node currently serving the VM's flows. *)

val migrate_nsm : t -> nsm:Nsm.t -> dst:node -> unit -> Nsm.t
(** Live-migrate [nsm] and every VM it serves to [dst], per the protocol
    above; returns the destination NSM, a fresh kernel-stack NSM with the
    source's vCPU count. The call starts the quiesce phase: the source
    leaves the serving pool and its VMs' listeners silently drop fresh
    SYNs (the client's SYN RTO retries against the destination) while
    in-flight handshakes and queued accepts settle; the cut itself —
    serialize, resume, relay, retire — runs 20 ms of virtual time later.
    Established connections keep flowing with zero loss; new connections
    land on the destination host. Raises [Invalid_argument] if the source
    is not in any node's pool, already retired, or [dst] is its own
    node. *)

val stats : t -> stats
