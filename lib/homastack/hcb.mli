(** Homa connection block: per-connection protocol state and its migration
    snapshot. The wire machinery (grants, request retry, emission) lives in
    {!Homa}; this module only holds and serializes state.

    A connection is a long-lived message channel identified by its
    client → server flow plus a connection id (the content-channel isn slot
    in {!Tcpstack.Conn_registry}). Senders stream messages strictly FIFO,
    so at most one inbound message per connection is incomplete at any
    moment; Homa's SRPT scheduling acts across connections in the
    receiver's grant pacer. *)

type role = Client | Server

type state = Opening | Open | Closed

type out_msg = {
  om_len : int;
  mutable om_hdr_sent : bool;
  mutable om_sent : int;  (** bytes already emitted *)
  mutable om_granted : int;  (** unscheduled allotment + received grants *)
}

type in_msg = {
  im_len : int;
  mutable im_rcvd : int;
  mutable im_granted : int;
}

type t = {
  flow : Addr.Flow.t;  (** client → server — the content-channel key *)
  cid : int;
  role : role;
  cc : Tcpstack.Cc.t;
  write_fifo : Nkutil.Byte_fifo.t;
  read_fifo : Nkutil.Byte_fifo.t;
  mutable state : state;
  mutable error : Tcpstack.Types.err option;
  txq : out_msg Queue.t;
  mutable tx_msg_base : int;
  mutable tx_bytes : int;
  mutable tx_acked : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable rx_cur : in_msg option;
  mutable rx_msg_count : int;
  mutable ready : int list;  (** unread remainders of completed messages *)
  mutable rx_bytes : int;
  mutable peer_closed : bool;
  mutable eof_delivered : bool;
  mutable req_retx : int;
  mutable request_timer : Sim.Engine.Timer.t option;
  mutable core : Sim.Cpu.t;
  mutable handler : (Tcpstack.Types.events -> unit) option;
  mutable connect_k : ((unit, Tcpstack.Types.err) result -> unit) option;
  mutable endpoint_registered : bool;
  mutable flow_registered : bool;
  mutable destroyed : bool;
}

val create :
  flow:Addr.Flow.t ->
  cid:int ->
  role:role ->
  cc:Tcpstack.Cc.t ->
  channel:Tcpstack.Conn_registry.channel ->
  core:Sim.Cpu.t ->
  state:state ->
  t

val tx_flow : t -> Addr.Flow.t
(** The flow this end transmits on. *)

val rx_flow : t -> Addr.Flow.t
(** The flow this end receives on — the stack's connection-table key. *)

val local_addr : t -> Addr.t

val eof_pending : t -> bool

val inflight : t -> int
(** Emitted-but-unacked bytes, bounded by the congestion window. *)

val events : t -> Tcpstack.Types.events

(** Serialized form carried across a live NSM migration. *)
module Snapshot : sig
  type msg = { sm_len : int; sm_hdr_sent : bool; sm_sent : int; sm_granted : int }

  type full = {
    s_flow : Addr.Flow.t;
    s_cid : int;
    s_role : role;
    s_state : state;
    s_error : Tcpstack.Types.err option;
    s_cc_name : string;
    s_cc_state : (string * float) list;
    s_txq : msg list;
    s_tx_msg_base : int;
    s_tx_bytes : int;
    s_tx_acked : int;
    s_fin_queued : bool;
    s_fin_sent : bool;
    s_rx_cur : msg option;  (** [sm_sent] carries [im_rcvd] *)
    s_rx_msg_count : int;
    s_ready : int list;
    s_rx_bytes : int;
    s_peer_closed : bool;
    s_eof_delivered : bool;
    s_req_retx : int;
    s_req_armed : bool;
    s_endpoint_registered : bool;
    s_flow_registered : bool;
  }

  type t = full
end

val snapshot : t -> Snapshot.t

val detach : cancel_timer:(Sim.Engine.Timer.t -> unit) -> t -> unit
(** Quiet source-side detach for migration: cancel the request timer and
    release CC shared state; no segment, no callback. *)

val restore :
  cc:Tcpstack.Cc.t ->
  channel:Tcpstack.Conn_registry.channel ->
  core:Sim.Cpu.t ->
  Snapshot.t ->
  t
(** Rebuild a connection block at the migration destination over the
    surviving content channel. Timers, the event handler and vswitch
    registrations are re-established by the importing {!Homa} stack. *)
