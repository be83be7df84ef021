(* Homa connection block: the per-connection state of the receiver-driven
   RPC transport. Pure protocol state plus its migration snapshot — the
   wire machinery (grant pacing, request retry, segment emission) lives in
   {!Homa}, which drives these records.

   A "connection" is a long-lived message channel between two endpoints,
   identified by its client → server flow and a connection id (no
   handshake state machine, no SYN backlog: the server admits a REQUEST on
   first contact). Each send is one message; the sender streams messages
   strictly FIFO, so at most one inbound message per connection is
   incomplete at any moment — Homa's SRPT scheduling happens across
   connections, at the receiver's grant pacer. *)

module Cc = Tcpstack.Cc
module Types = Tcpstack.Types
module Conn_registry = Tcpstack.Conn_registry

type role = Client | Server

type state = Opening | Open | Closed

(* One outbound message. [om_granted] includes the unscheduled first-RTT
   allotment; the receiver's grants move it toward [om_len]. *)
type out_msg = {
  om_len : int;
  mutable om_hdr_sent : bool;
  mutable om_sent : int;
  mutable om_granted : int;
}

(* The (single) inbound message currently arriving. *)
type in_msg = {
  im_len : int;
  mutable im_rcvd : int;
  mutable im_granted : int;
}

type t = {
  flow : Addr.Flow.t;  (** client → server — the content-channel key *)
  cid : int;  (** connection id (the channel's isn slot) *)
  role : role;
  cc : Cc.t;
  (* The fifos belong to the conn-registry channel [restore] is handed —
     payload bytes migrate with the channel, not the connection block. *)
  write_fifo : Nkutil.Byte_fifo.t; (* nkscope: volatile *)
  read_fifo : Nkutil.Byte_fifo.t; (* nkscope: volatile *)
  mutable state : state;
  mutable error : Types.err option;
  (* tx: FIFO of outbound messages; the head is the one being streamed. *)
  txq : out_msg Queue.t;
  mutable tx_msg_base : int;  (** message index of the txq head *)
  mutable tx_bytes : int;  (** cumulative payload bytes emitted *)
  mutable tx_acked : int;  (** cumulative bytes the peer reported received *)
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* rx *)
  mutable rx_cur : in_msg option;
  mutable rx_msg_count : int;  (** headers seen, = index of current + 1 *)
  mutable ready : int list;  (** unread remainders of completed messages *)
  mutable rx_bytes : int;  (** cumulative payload bytes arrived *)
  mutable peer_closed : bool;
  mutable eof_delivered : bool;
  (* request retry (client, [Opening]) *)
  mutable req_retx : int;
  mutable request_timer : Sim.Engine.Timer.t option;
  (* runtime wiring, rebuilt at the destination of a migration *)
  mutable core : Sim.Cpu.t; (* nkscope: volatile *)
  mutable handler : (Types.events -> unit) option; (* nkscope: volatile *)
  mutable connect_k : ((unit, Types.err) result -> unit) option; (* nkscope: volatile *)
  mutable endpoint_registered : bool;
  mutable flow_registered : bool;
  (* A restored copy is live by definition; the source side is detached. *)
  mutable destroyed : bool; (* nkscope: volatile *)
}

let fifos_of ~channel ~role =
  match role with
  | Client -> (channel.Conn_registry.c2s, channel.Conn_registry.s2c)
  | Server -> (channel.Conn_registry.s2c, channel.Conn_registry.c2s)

let create ~flow ~cid ~role ~cc ~channel ~core ~state =
  let write_fifo, read_fifo = fifos_of ~channel ~role in
  {
    flow;
    cid;
    role;
    cc;
    write_fifo;
    read_fifo;
    state;
    error = None;
    txq = Queue.create ();
    tx_msg_base = 0;
    tx_bytes = 0;
    tx_acked = 0;
    fin_queued = false;
    fin_sent = false;
    rx_cur = None;
    rx_msg_count = 0;
    ready = [];
    rx_bytes = 0;
    peer_closed = false;
    eof_delivered = false;
    req_retx = 0;
    request_timer = None;
    core;
    handler = None;
    connect_k = None;
    endpoint_registered = false;
    flow_registered = false;
    destroyed = false;
  }

(* The flow this end transmits on ([flow] is always client → server). *)
let tx_flow t = match t.role with Client -> t.flow | Server -> Addr.Flow.reverse t.flow

(* The flow this end receives on — the connection-table key. *)
let rx_flow t = match t.role with Client -> Addr.Flow.reverse t.flow | Server -> t.flow

let local_addr t =
  match t.role with Client -> t.flow.Addr.Flow.src | Server -> t.flow.Addr.Flow.dst

let eof_pending t =
  t.peer_closed && t.rx_cur = None && t.ready = [] && not t.eof_delivered

let inflight t = t.tx_bytes - t.tx_acked

let events t =
  {
    Types.readable = t.ready <> [] || eof_pending t;
    writable = t.state = Open && not t.fin_queued;
    hup = t.peer_closed || t.error <> None;
  }

(* ---- Serialization (live NSM migration) -------------------------------- *)

module Snapshot = struct
  type msg = { sm_len : int; sm_hdr_sent : bool; sm_sent : int; sm_granted : int }

  type full = {
    s_flow : Addr.Flow.t;
    s_cid : int;
    s_role : role;
    s_state : state;
    s_error : Types.err option;
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

let snapshot t =
  {
    Snapshot.s_flow = t.flow;
    s_cid = t.cid;
    s_role = t.role;
    s_state = t.state;
    s_error = t.error;
    s_cc_name = t.cc.Cc.name;
    s_cc_state = t.cc.Cc.export ();
    s_txq =
      List.rev
        (Queue.fold
           (fun acc (m : out_msg) ->
             { Snapshot.sm_len = m.om_len; sm_hdr_sent = m.om_hdr_sent;
               sm_sent = m.om_sent; sm_granted = m.om_granted }
             :: acc)
           [] t.txq);
    s_tx_msg_base = t.tx_msg_base;
    s_tx_bytes = t.tx_bytes;
    s_tx_acked = t.tx_acked;
    s_fin_queued = t.fin_queued;
    s_fin_sent = t.fin_sent;
    s_rx_cur =
      Option.map
        (fun (m : in_msg) ->
          { Snapshot.sm_len = m.im_len; sm_hdr_sent = true; sm_sent = m.im_rcvd;
            sm_granted = m.im_granted })
        t.rx_cur;
    s_rx_msg_count = t.rx_msg_count;
    s_ready = t.ready;
    s_rx_bytes = t.rx_bytes;
    s_peer_closed = t.peer_closed;
    s_eof_delivered = t.eof_delivered;
    s_req_retx = t.req_retx;
    s_req_armed = t.request_timer <> None;
    s_endpoint_registered = t.endpoint_registered;
    s_flow_registered = t.flow_registered;
  }

(* Quiet detach for the source side of a migration: stop the request timer
   and release shared CC state without emitting a segment or firing any
   callback — the connection lives on elsewhere. *)
let detach ~cancel_timer t =
  if not t.destroyed then begin
    t.destroyed <- true;
    (match t.request_timer with Some tm -> cancel_timer tm | None -> ());
    t.request_timer <- None;
    t.cc.Cc.release ()
  end

let restore ~cc ~channel ~core (s : Snapshot.t) =
  if String.equal cc.Cc.name s.Snapshot.s_cc_name then cc.Cc.import s.Snapshot.s_cc_state;
  let write_fifo, read_fifo = fifos_of ~channel ~role:s.Snapshot.s_role in
  let t =
    {
      flow = s.Snapshot.s_flow;
      cid = s.Snapshot.s_cid;
      role = s.Snapshot.s_role;
      cc;
      write_fifo;
      read_fifo;
      state = s.Snapshot.s_state;
      error = s.Snapshot.s_error;
      txq = Queue.create ();
      tx_msg_base = s.Snapshot.s_tx_msg_base;
      tx_bytes = s.Snapshot.s_tx_bytes;
      tx_acked = s.Snapshot.s_tx_acked;
      fin_queued = s.Snapshot.s_fin_queued;
      fin_sent = s.Snapshot.s_fin_sent;
      rx_cur =
        Option.map
          (fun (m : Snapshot.msg) ->
            { im_len = m.Snapshot.sm_len; im_rcvd = m.Snapshot.sm_sent;
              im_granted = m.Snapshot.sm_granted })
          s.Snapshot.s_rx_cur;
      rx_msg_count = s.Snapshot.s_rx_msg_count;
      ready = s.Snapshot.s_ready;
      rx_bytes = s.Snapshot.s_rx_bytes;
      peer_closed = s.Snapshot.s_peer_closed;
      eof_delivered = s.Snapshot.s_eof_delivered;
      req_retx = s.Snapshot.s_req_retx;
      request_timer = None (* re-armed by the importing stack *);
      core;
      handler = None;
      connect_k = None;
      endpoint_registered = s.Snapshot.s_endpoint_registered;
      flow_registered = s.Snapshot.s_flow_registered;
      destroyed = false;
    }
  in
  List.iter
    (fun (m : Snapshot.msg) ->
      Queue.add
        { om_len = m.Snapshot.sm_len; om_hdr_sent = m.Snapshot.sm_hdr_sent;
          om_sent = m.Snapshot.sm_sent; om_granted = m.Snapshot.sm_granted }
        t.txq)
    s.Snapshot.s_txq;
  t
