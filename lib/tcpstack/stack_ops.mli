(** Event-driven backend interface over a network transport — the
    protocol-neutral NSM boundary.

    NetKernel's ServiceLib "translates NQEs to network stack APIs" (paper
    §5) and must work with different stacks — the kernel TCP stack, mTCP,
    or a message-oriented RPC transport. This record is that boundary:
    connection-oriented, callback-based, with eager accept (the NSM accepts
    and announces new connections immediately, per the paper's pipelining
    optimization §4.6).

    Nothing protocol-specific crosses it. Connection and listener handles
    are extensible variants each backend enlarges privately; migration
    state travels as an opaque {!payload} tagged with the backend's
    protocol id, so ServiceLib and the cluster fabric move connections
    between NSMs without knowing what is inside. {!Tcp_ops.of_stack}
    adapts a single kernel-style {!Stack}; [Mtcpstack.Mtcp.ops] adapts the
    sharded per-core mTCP facade; [Homastack.Homa.ops] adapts the
    receiver-driven RPC transport. *)

type conn = ..
(** Connection handle. Each backend adds its own constructor and only ever
    receives handles it created; passing a foreign handle is a caller bug
    and raises [Invalid_argument]. *)

type listener = ..
(** Listening endpoint handle (possibly spanning several shards). *)

type payload = ..
(** Backend-private serialized connection state carried inside an
    {!export}. Only the protocol that produced a payload can destructure
    it. *)

type export = {
  e_proto : string;  (** protocol id of the backend that produced it *)
  e_flow : Addr.Flow.t;
      (** client → server flow of the connection — enough for any sharded
          backend to steer the import (RSS) without opening the payload *)
  e_payload : payload;
}
(** A serialized connection, as carried across a live NSM migration. *)

type t = {
  add_ip : Addr.ip -> unit;
  remove_ip : Addr.ip -> unit;
      (** release an IP (live migration moved its VM off this backend) *)
  new_listener :
    addr:Addr.t -> backlog:int -> on_accept:(conn -> peer:Addr.t -> unit) ->
    (listener, Types.err) result;
      (** [backlog] bounds the queue of half-open handshakes (a TCP SYN
          backlog); a backlog-free transport admits connections on first
          contact and ignores it *)
  close_listener : listener -> unit;
  quiesce_listener : listener -> unit;
      (** migration quiesce: silently stop admitting new connections — no
          refusal reaches the peer, so clients retry per their protocol's
          own recovery (TCP retransmits the SYN, an RPC transport resends
          its request) and land on whichever NSM owns the listener after
          the cut. In-flight handshakes and queued accepts keep
          settling. *)
  connect : dst:Addr.t -> k:((conn, Types.err) result -> unit) -> unit;
  send : conn -> Types.payload -> k:((int, Types.err) result -> unit) -> unit;
  recv :
    conn -> max:int -> mode:Types.recv_mode ->
    k:((Types.payload, Types.err) result -> unit) -> unit;
  close_conn : conn -> unit;
  abort_conn : conn -> unit;
  set_conn_handler : conn -> (Types.events -> unit) -> unit;
  conn_core : conn -> Sim.Cpu.t;
  conn_error : conn -> Types.err option;
  export_conn : conn -> (export, Types.err) result;
      (** quietly detach the connection from whichever shard owns it and
          serialize it — no parting segment, no callbacks; the content
          channel survives for the importing side *)
  import_conn : export -> (conn, Types.err) result;
      (** resume a connection exported from another backend of the same
          protocol (live NSM migration); the backend picks which shard
          hosts it, and rejects payloads of a foreign protocol with
          [Einval] *)
  wake_cycles : float;
      (** what one event-loop wakeup costs on this backend (an epoll wake
          on the kernel stack, a context poll on a user-level stack) —
          charged by ServiceLib and the epoll emulation per delivered
          wake *)
}
