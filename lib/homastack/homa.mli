(** Homa-style receiver-driven RPC transport: a message-oriented,
    backlog-free NSM backend.

    Connections are admitted on first contact — there is no SYN backlog to
    overflow, which is what removes the incast tail TCP suffers when many
    clients hit one listener at once. Each [send] is one message; the
    first 10 MSS of a message travel unscheduled and the rest is
    released by receiver GRANTs paced SRPT across all incomplete inbound
    messages (shortest remaining first), so short RPCs preempt long
    transfers.

    The stack plugs into ServiceLib through {!ops} (the protocol-neutral
    {!Tcpstack.Stack_ops} boundary) and supports full connection
    export/import for live NSM migration and protocol handover; payload
    bytes travel through {!Tcpstack.Conn_registry} content channels like
    the TCP stack's. *)

type t

val proto : string
(** ["homa"] — the protocol id stamped into exports. *)

(** The stack's constants stay out of the config: the mTCP cost profile
    ({!Sim.Cost_profile.mtcp}), CUBIC congestion control per connection,
    an unscheduled allotment of 10 MSS per message, and a REQUEST resent
    every 10 ms, at most 50 times. *)
type config = {
  grant_quantum : int;  (** bytes released per grant *)
  grant_interval : float;  (** pacer period, seconds *)
  ephemeral_base : int;
  ephemeral_count : int;
}

val default_config : config

val create :
  engine:Sim.Engine.t ->
  name:string ->
  cores:Sim.Cpu.Set.t ->
  vswitch:Vswitch.t ->
  registry:Tcpstack.Conn_registry.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  ?cfg:config ->
  unit ->
  t

val ops : t -> Tcpstack.Stack_ops.t
(** The backend boundary ServiceLib drives. *)

type Tcpstack.Stack_ops.conn += Conn of Hcb.t

type Tcpstack.Stack_ops.payload += Homa_state of Hcb.Snapshot.t

type stats = {
  segs_rx : int;
  segs_tx : int;
  payload_rx : int;
  payload_tx : int;
  msgs_rx : int;
  grants_tx : int;
  req_drops : int;  (** REQUESTs silently dropped (quiesced/absent listener) *)
  conns_established : int;
  conns_failed : int;
}

val stats : t -> stats
