open Nkcore

(** Nkctl: the operator control plane for NSM lifecycle.

    The paper's central promise (§2, §7.5) is that once the network stack is
    part of the virtualized infrastructure, the {e operator} can manage it
    like any other infrastructure service: scale it with load, move VMs
    between stack modules without breaking connections, and survive a stack
    module crash without taking the tenants down. Nkctl is that operator:
    a policy loop driven entirely by simulator virtual time and Nkmon
    metrics, with three pillars —

    - {b autoscaling}: sample per-NSM vCPU utilization and connection counts
      every [period]; spawn a fresh NSM above [high_watermark], drain and
      retire the newest one below [low_watermark];
    - {b live handover}: re-home a VM to a target NSM — new sockets land on
      the target immediately, established connections finish on the source,
      and listening sockets are transparently re-created on the target (the
      vswitch 4-tuple flow table keeps accepted connections flowing to the
      source stack until they close);
    - {b failover}: when an NSM crashes ({!Nsm.fail}), CoreEngine errors out
      every affected socket (ECONNRESET, never a hang), and the next tick
      re-places the orphaned VMs on surviving or freshly spawned NSMs and
      re-homes their listeners.

    All decisions are deterministic: pool and VM lists are kept in insertion
    order, and every timer is virtual. *)

module Policy : sig
  type t = {
    period : float;  (** seconds of virtual time between control ticks *)
    high_watermark : float;
        (** mean active-NSM vCPU utilization above which to scale up *)
    low_watermark : float;
        (** mean active-NSM vCPU utilization below which to scale down *)
    min_nsms : int;  (** never drain below this many active NSMs *)
    max_nsms : int;  (** never spawn above this many active NSMs *)
    cooldown : float;
        (** seconds of virtual time between consecutive scale decisions *)
    ce_scale_watermark : float;
        (** busiest-CoreEngine-shard core utilization above which to add a
            switching shard ({!Host.scale_ce}); [infinity] disables CE
            scale-out. Gated by its own [cooldown] window, independent of
            NSM decisions. *)
    max_ce_shards : int;  (** never grow the CoreEngine past this many shards *)
  }

  val default : t
  (** [{ period = 0.5; high_watermark = 0.7; low_watermark = 0.25;
        min_nsms = 1; max_nsms = 8; cooldown = 1.0;
        ce_scale_watermark = infinity; max_ce_shards = 4 }] *)
end

type t

type sample = {
  s_time : float;
  s_active : int;  (** active (non-draining) NSMs in the pool *)
  s_draining : int;
  s_utilization : float;  (** mean vCPU utilization across active NSMs *)
  s_conns : int;  (** CoreEngine connection-table entries across the pool *)
  s_ce_utilization : float;
      (** busiest CoreEngine shard's core utilization over the period
          (0.0 when NetKernel is not enabled on the host) *)
}

type stats = {
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable handovers : int;  (** VM re-homings (operator- or scale-driven) *)
  mutable failovers : int;  (** crashed NSMs detected and replaced *)
  mutable drains_completed : int;  (** drained NSMs retired at zero conns *)
  mutable ce_scale_outs : int;  (** CoreEngine shards added by the policy *)
  mutable protocol_switches : int;
      (** live protocol handovers ({!switch_protocol}) *)
}

val create :
  Host.t -> ?policy:Policy.t -> spawn:(int -> Nsm.t) -> unit -> t
(** [spawn i] must create and return the [i]-th fresh NSM (0-based over the
    controller's lifetime); Nkctl calls it for scale-ups and failover
    re-placement. *)

val manage : t -> Nsm.t -> unit
(** Put an existing NSM under control (it joins the pool as active). Raises
    [Invalid_argument] if the NSM is retired or crashed ([Nsm.failed]) —
    a dead module must never re-enter the pool. *)

val add_vm : t -> Vm.t -> home:Nsm.t -> unit
(** Track a NetKernel VM; [home] is the NSM currently serving it (it is
    added to the pool if not yet managed). *)

val handover : t -> vm:Vm.t -> target:Nsm.t -> unit
(** Live handover: new sockets from [vm] land on [target] at once;
    established connections finish on the source NSM, which is marked
    draining in CoreEngine once no tracked VM calls it home and is retired
    by the policy loop when its connection count reaches zero. Listening
    sockets are closed on the source and transparently re-created on
    [target] without the application noticing. Raises [Invalid_argument]
    if [target] is retired or crashed — handing flows to a dead NSM would
    silently pin them on a module CoreEngine no longer polls. *)

val switch_protocol : t -> vm:Vm.t -> target:Nsm.t -> unit
(** Live protocol handover: move [vm] to an NSM speaking a different
    transport ("changing the network stack on the fly", paper §3.2).
    Mechanically a {!handover} — new sockets (and replayed listeners) land
    on [target] immediately and speak its protocol, while established
    connections finish on the source stack's protocol — plus a recorded
    [protocol_switch] control event naming the two protocol ids
    ({!Nsm.proto}). Raises [Invalid_argument] if [target] is dead or the
    VM is untracked; a same-protocol target degrades to a plain
    handover. *)

val release_vm : t -> vm:Vm.t -> unit
(** Stop tracking [vm] with no side effects (no drain, no handover): the
    cross-host migration path in Nkfabric takes over its placement and must
    not race the local policy loop. No-op if the VM is untracked. *)

val release_nsm : t -> Nsm.t -> unit
(** Drop an NSM from the pool with no side effects: Nkfabric retires the
    migration source itself, and leaving it in the pool would read as a
    crash on the next tick and trigger a spurious failover. No-op if the
    NSM is unmanaged. *)

val spawn_nsm : t -> Nsm.t
(** Spawn one fresh NSM via the controller's [spawn] closure and put it in
    the pool as active (a recorded [spawn] control event, like a policy
    scale-up but on operator demand). This is the verb an Nkobs alert
    responder pairs with {!handover}: bring up capacity the moment a
    tenant SLO breaches, without waiting for the watermark loop. *)

val start : t -> unit
(** Begin the periodic policy loop (idempotent). *)

val stop : t -> unit
(** Stop ticking; the pool is left as-is. *)

val tick : t -> unit
(** Run one control iteration now: failover detection, drain completion,
    sampling, then watermark decisions. [start] calls this on a timer; tests
    and experiments may call it directly. *)

val active_nsms : t -> Nsm.t list
(** Active (non-draining, non-failed) pool members, in spawn order. *)

val pool_size : t -> int
(** All pool members including draining ones. *)

val samples : t -> sample list
(** Every sample recorded so far, oldest first. *)

val stats : t -> stats
