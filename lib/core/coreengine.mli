(** CoreEngine: the hypervisor-side NQE software switch (paper §4.3–§4.4).

    Runs on one or more dedicated cores, each driving one switching
    {e shard}. Every queue set of every registered NK device is owned by
    exactly one shard — the deterministic affinity function
    [(device id + queue-set index) mod n_shards] — so each SPSC ring keeps
    a single CE-side producer/consumer no matter how many shards run. A
    shard polls the outbound queues it owns round-robin in batches,
    switches each NQE to its destination device using the connection table
    ⟨VM id, socket id⟩ → ⟨NSM id, queue-set id⟩, and wakes the consumer.
    The connection table, NSM assignment and token buckets stay logically
    global; a shard touching state homed on another shard (or pushing into
    a ring another shard owns) is charged the cross-shard handoff cost
    [ce_xshard]. With a single core the engine is exactly the paper's
    single-core CoreEngine — same schedule, same cycle accounting, same
    metric names. Control-plane duties: device registration, VM→NSM
    assignment (static or round-robin across several NSMs, §7.5), and
    per-VM egress isolation with token buckets (§7.6).

    Polling is emulated event-wise: producers [kick] the engine, which then
    drains until all queues are empty, charging the owning shard's core for
    every iteration and switch — so the CE cores' cycle counters reflect
    the real switching work (Table 6/7 overhead accounting). *)

type t

val create :
  engine:Sim.Engine.t ->
  cores:Sim.Cpu.t array ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  ?instance:string ->
  Nk_costs.t ->
  t
(** One shard per element of [cores] (at least one, else [Invalid_argument]).
    [mon] is the world's observability handle (metrics under
    [coreengine/<instance>/...] for a single shard, or
    [coreengine/<instance>.shard<k>/...] per shard otherwise; switch/defer/
    drop trace events); [spans] records the ce-switch stage of sampled
    requests on the owning shard; [instance] defaults to ["ce"]. *)

val n_shards : t -> int

val scale_out : t -> cores:Sim.Cpu.t array -> unit
(** Append one fresh shard per core (CE scale-out, the Nkctl autoscaling
    verb). Queue-set ownership redistributes under the affinity function
    with the new shard count; already-parked deferred traffic drains on the
    shard that parked it. *)

val register_vm : t -> Nk_device.t -> unit

val register_nsm : t -> Nk_device.t -> unit

val deregister_vm : t -> vm_id:int -> unit
(** Forget a VM device (it departed); its table entries are dropped. *)

val deregister_nsm : t -> nsm_id:int -> unit
(** Graceful symmetric counterpart of {!deregister_vm}: stop polling the
    NSM device, drop its connection-table entries and remove it from every
    VM's round-robin pool. Sockets still routed to it afterwards complete
    with [ECONNRESET]-style errors rather than hanging. *)

val crash_nsm : t -> nsm_id:int -> unit
(** Abrupt NSM death (failover pillar): {!deregister_nsm} plus a synthetic
    [Ev_err] (connection reset) delivered to every socket the dead NSM was
    serving, so every blocked accept/connect/read observes an error. Other
    VMs' traffic is untouched. *)

val attach : t -> vm_id:int -> nsm_ids:int list -> unit
(** Declare which NSM(s) serve the VM. With several NSMs, sockets are
    assigned round-robin at their first NQE (the paper's per-socket
    mapping). *)

val detach : t -> vm_id:int -> nsm_id:int -> unit
(** Remove one NSM from the VM's assignment pool. New sockets no longer
    land on it; established connections keep their route until they
    close. *)

val drain_nsm : t -> nsm_id:int -> unit
(** Exclude the NSM from new-socket assignment everywhere while letting its
    established connections finish (live-handover drain). Deregister it
    once {!nsm_conn_count} reaches zero. *)

val nsm_conn_count : t -> nsm_id:int -> int
(** Live connection-table entries routed to the NSM (the drain-completion
    signal). *)

val forget_route : t -> vm_id:int -> sock:int -> unit
(** Drop one connection-table entry so the socket's next NQE re-runs NSM
    assignment (listener re-homing during handover). *)

val add_route : t -> vm_id:int -> sock:int -> nsm_id:int -> nsm_qset:int -> unit
(** Install one connection-table entry directly (live migration: the
    destination host pins imported sockets to the destination NSM). *)

val rehome_nsm_routes : t -> from_nsm:int -> to_nsm:int -> int
(** Atomically re-point every route at [from_nsm] to [to_nsm] (same queue
    sets; [to_nsm] must expose at least as many). Returns how many routes
    moved. Live migration uses this to hand a departing NSM's flows to the
    relay stub in one step. *)

val forget_vm_routes : t -> vm_id:int -> nsm_id:int -> int
(** Drop every route of [vm_id] still pointing at [nsm_id] (next NQE per
    socket re-runs NSM assignment); returns how many were dropped. The
    relay unwind uses this when a VM migrates back home: sockets its export
    does not cover (listeners, bare sockets) would otherwise keep routing
    into the stand-in stub forever. *)

val set_rate_limit : ?burst:float -> t -> vm_id:int -> bytes_per_sec:float -> unit
(** Token-bucket cap on the VM's egress payload bytes (Fig 21). [burst]
    defaults to 50 ms worth of tokens. *)

type stats = {
  switched : int;
  rate_deferred : int;  (** NQEs that waited for tokens *)
  ring_deferred : int;  (** NQEs that waited for ring space *)
  dropped : int;  (** undecodable or unroutable NQEs *)
  sweeps : int;  (** polling iterations executed *)
}

val stats : t -> stats
(** Immutable snapshot of the registry-backed counters, summed across
    shards. *)

val shard_stats : t -> stats array
(** Per-shard snapshots, in shard order (each shard also reports the same
    numbers under its own [coreengine/<instance>.shard<k>] metrics). *)

val conn_table_size : t -> int

val dump_conn_table : t -> string
(** Canonical rendering of the connection table, one
    ["vm=%d sock=%d -> nsm=%d qset=%d"] line per entry in ascending
    ⟨vm, sock⟩ order. Independent of hash-bucket layout and insertion
    history, so two identical runs must produce byte-identical dumps (the
    determinism suite asserts exactly that). *)
