(** A network-stack instance bound to a host's vswitch and a set of cores.

    One [Stack.t] models what runs inside a VM (Baseline), inside a
    kernel-stack NSM, or — with the polling profile and per-core sharding of
    {!Mtcpstack} — an mTCP process. It owns IPs, demultiplexes incoming
    segments to connections with RSS pinning to cores, runs listeners with a
    finite accept backlog (overflow drops SYNs, which is where the paper's
    Table 5 latency tail comes from), and charges every operation's CPU cost
    to the right core using its {!Sim.Cost_profile}.

    The socket operations are callback-style and non-blocking in spirit:
    [send]/[recv] return [Eagain] rather than waiting, and readiness is
    delivered through per-socket event handlers consumed by
    {!Direct_socket}'s epoll emulation or by the NetKernel ServiceLib. *)

type t

type sock

type rx_mode = Interrupt | Polling

type config = {
  profile : Sim.Cost_profile.t;
  tcb : Tcb.config;
  cc_factory : Cc.factory;
  rx_mode : rx_mode;
  charge_user_io : bool;
      (** charge a syscall per socket call and the per-byte user copy
          (default); false when ServiceLib drives the stack directly (an
          NSM calls kernel APIs without a syscall, and ServiceLib charges
          the hugepage copy itself) *)
  contention_cores : int option;
      (** effective core count for contention multipliers; defaults to the
          stack's own core count — the mTCP facade overrides it with the
          total shard count *)
  register_vswitch : bool;
      (** self-register IPs/endpoints with the vswitch (default); the mTCP
          facade turns this off and routes RSS itself *)
  ephemeral_range : int * int;
      (** source-port range for outgoing connections (default 32768–60999);
          stacks sharing a source IP must use disjoint ranges *)
}

val default_config : Sim.Cost_profile.t -> config
(** Interrupt-mode config with library defaults and a Reno-free CUBIC
    factory ([Cc_cubic]). Every stack has a 4096-descriptor RX ring per
    core, a 5 us IRQ dispatch latency in interrupt mode and a 20 us
    polling-loop sleep on an empty ring in polling mode. *)

val create :
  engine:Sim.Engine.t ->
  name:string ->
  cores:Sim.Cpu.Set.t ->
  vswitch:Vswitch.t ->
  registry:Conn_registry.t ->
  rng:Nkutil.Rng.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  config ->
  t
(** [mon] is the world's observability handle; counters land under
    [tcpstack/<name>/...] and state transitions trace as [Tcp_state]
    events. Defaults to a detached {!Nkmon.null} sink. [spans] feeds the
    cycle profiler (rx/poll frames); request stages on the stack are
    recorded by ServiceLib around its stack calls. *)

val engine : t -> Sim.Engine.t

val cores : t -> Sim.Cpu.Set.t

val config : t -> config

val add_ip : t -> Addr.ip -> unit
(** Own [ip]: the host vswitch routes its segments to this stack. *)

val remove_ip : t -> Addr.ip -> unit
(** Disown [ip] (its VM migrated to another host): the vswitch entry is
    released so stray segments fall through to the vswitch's silent drop
    instead of drawing an RST from this stack. *)

(** {1 Socket operations} *)

val socket : t -> sock

val bind : t -> sock -> Addr.t -> (unit, Types.err) result

val listen : t -> sock -> backlog:int -> (unit, Types.err) result
(** The effective backlog is capped by the profile's [accept_backlog]. *)

val pause_listener : t -> sock -> unit
(** Migration quiesce: silently drop fresh SYNs (like a backlog overflow —
    the client's SYN RTO retries) while in-flight handshakes and queued
    accepts keep settling. Irreversible; no-op on non-listeners. *)

val accept : t -> sock -> k:((sock, Types.err) result -> unit) -> unit
(** Blocks (queues the continuation) until a connection is established. *)

val connect : t -> sock -> Addr.t -> k:((unit, Types.err) result -> unit) -> unit

val send : t -> sock -> Types.payload -> k:((int, Types.err) result -> unit) -> unit
(** Accepts at most the available send-buffer space; [Eagain] when full. *)

val recv :
  t -> sock -> max:int -> mode:Types.recv_mode ->
  k:((Types.payload, Types.err) result -> unit) -> unit
(** [Eagain] when no data; a zero-length payload signals EOF. *)

val close : t -> sock -> unit

val abort : t -> sock -> unit

val set_event_handler : t -> sock -> (Types.events -> unit) -> unit
(** Invoked (from stack context) whenever the socket's readiness changes;
    use [sock_events] for the current snapshot. *)

val sock_events : t -> sock -> Types.events

val local_addr : t -> sock -> Addr.t option

val peer_addr : t -> sock -> Addr.t option

val sock_error : t -> sock -> Types.err option

val sock_core : t -> sock -> Sim.Cpu.t
(** The core this socket's processing is pinned to. *)

val time_wait_conns : t -> int
(** Connections in TIME_WAIT, whether kept as a compact record or, with
    unread bytes or a persist timer, as a whole TCB. Walks the connection
    table. *)

(** {1 Wire interface} *)

val input : t -> Segment.t -> unit
(** Entry point registered with the vswitch. *)

(** {1 Connection export/import (live NSM migration)} *)

type export = {
  e_snapshot : Tcb.Snapshot.t;
  e_registry_flow : Addr.Flow.t;  (** client → server flow (registry key) *)
  e_registry_isn : int;
  e_established : bool;
  e_endpoint_registered : bool;
  e_flow_registered : bool;
}
(** Everything the destination stack needs to resume the connection: the
    TCB image plus the content-channel key and vswitch registrations. *)

val export_conn : t -> sock -> (export, Types.err) result
(** Detach an established connection quietly: snapshot the TCB, cancel its
    timers, drop it from the flow table and the vswitch — without emitting
    a segment, firing callbacks, or removing the {!Conn_registry} channel
    (the byte streams migrate with the snapshot). The sock becomes closed.
    [Enotconn] for non-connection socks, [Eclosed] for dead ones and for
    ones in TIME_WAIT, which run out their 2*MSL on this stack. *)

val import_conn : t -> export -> (sock, Types.err) result
(** Resume an exported connection on this stack: rebuilds the TCB over the
    original content channel ({!Conn_registry.lookup}), re-registers the
    vswitch endpoint/flow pins the source held, and re-arms timers.
    [Econnreset] if the channel vanished while the snapshot was in
    flight. *)

(** {1 Statistics} *)

type stats = {
  segs_rx : int;
  segs_tx : int;
  payload_rx : int;
  payload_tx : int;
  rx_ring_drops : int;
  syn_drops : int;
  rst_tx : int;
  conns_established : int;
  conns_failed : int;
}

val stats : t -> stats
