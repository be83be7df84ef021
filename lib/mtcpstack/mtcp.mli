(** mTCP-style userspace stack: per-core sharding with batched polling.

    mTCP (Jeong et al., NSDI 2014) gets its performance from three design
    points, all modelled here with the calibrated {!Sim.Cost_profile.mtcp}
    profile:

    - {b kernel bypass}: socket operations are library calls, no syscall or
      interrupt costs (the profile's [syscall] and [interrupt] are 0);
    - {b batched event-driven polling}: each core runs a poll loop that
      drains NIC queues in batches;
    - {b per-core sharding}: one independent stack instance per core with
      RSS steering, no shared state between cores. Outgoing connections
      pick their source port so that the RSS hash lands on the issuing
      shard, exactly like mTCP's per-core port selection.

    The facade exposes the whole shard group through one {!Stack_ops.t}, so
    NetKernel's ServiceLib drives mTCP exactly as it drives the kernel
    stack — the paper's "deploying mTCP without API change" (§6.3). *)

type t

val create :
  engine:Sim.Engine.t ->
  name:string ->
  cores:Sim.Cpu.Set.t ->
  vswitch:Vswitch.t ->
  registry:Tcpstack.Conn_registry.t ->
  rng:Nkutil.Rng.t ->
  mon:Nkmon.t ->
  unit ->
  t
(** One shard per core in [cores], each a CUBIC stack with the
    {!Sim.Cost_profile.mtcp} profile. The user copy is not charged: the
    NSM's ServiceLib charges the hugepage copy. *)

val ops : t -> Tcpstack.Stack_ops.t
(** The backend interface used by ServiceLib. [new_listener] listens on
    every shard (shared ⟨ip, port⟩, RSS-spread accepts, as with
    [SO_REUSEPORT]); [connect] picks the shard the reply RSS hash maps
    to. *)

val shards : t -> Tcpstack.Stack.t array
