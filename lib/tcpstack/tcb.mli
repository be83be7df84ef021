(** TCP connection control block.

    Full connection state machine (RFC 793 states minus LISTEN, which lives
    in {!Stack}): three-way handshake with SYN retransmission and
    exponential backoff, sliding-window data transfer with GSO-sized
    segments, flow control against the peer's advertised window,
    fast retransmit on three duplicate ACKs with NewReno-style recovery,
    RTO retransmission with backoff, zero-window persist probing, delayed
    FIN/teardown handshake, TIME_WAIT, and RST handling.

    The TCB is transport-agnostic about its environment: the owning stack
    injects an {!actions} record for time, segment emission, timers and
    socket-event callbacks, which is also how CPU costs get charged (the
    stack charges its cores in [emit] and before [input]). *)

type state =
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val state_to_string : state -> string

(** The TCB's constants stay out of the config: segments of
    {!Segment.mss} bytes, Nagle's algorithm always on (sub-MSS chunks wait
    while data is in flight, so small writes coalesce), the RTO clamped to
    {!Rtt_estimator}'s bounds, 6 SYN and 10 data retransmissions before
    the connection times out, and a 50 ms (2*MSL) TIME_WAIT. *)
type config = {
  gso : int;  (** largest segment payload handed to the NIC at once *)
  rwnd_limit : int;  (** receive buffer size (drives the advertised window) *)
  sndbuf_limit : int;
  rwnd_max : int;
      (** autotuning ceiling for the receive buffer (tcp_moderate_rcvbuf);
          set equal to [rwnd_limit] to disable autotuning *)
}

val default_config : config

type actions = {
  now : unit -> float;
  emit : Segment.t -> unit;  (** hand a segment to the stack's TX path *)
  set_timer : delay:float -> (unit -> unit) -> Sim.Engine.Timer.t;
  cancel_timer : Sim.Engine.Timer.t -> unit;
  on_established : unit -> unit;
  on_readable : unit -> unit;  (** new data or EOF became readable *)
  on_writable : unit -> unit;  (** send-buffer space was freed *)
  on_error : Types.err -> unit;  (** connection failed (reset/timeout) *)
  on_destroy : unit -> unit;  (** TCB left the demux; drop references *)
  on_transition : state -> state -> unit;
      (** observes every [old -> new] state change (Nkmon tracing) *)
  on_time_wait_end : unit -> unit;
      (** runs 50 ms (2*MSL) after the TCB enters TIME_WAIT; the
          owner ends the connection then ({!destroy_quiet} if it kept the
          TCB). The TCB's timer holds this callback, not the TCB, so the
          owner may drop the TCB for a {!time_wait} record in between. *)
}

type t

(** {1 Construction} *)

val create_active :
  flow:Addr.Flow.t ->
  cfg:config ->
  act:actions ->
  cc:Cc.t ->
  isn:int ->
  channel:Conn_registry.channel ->
  t
(** Client side: builds the TCB and sends the SYN. [flow] is local → remote;
    the channel's [c2s] is this side's write stream. *)

val create_passive :
  flow:Addr.Flow.t ->
  cfg:config ->
  act:actions ->
  cc:Cc.t ->
  isn:int ->
  remote_isn:int ->
  remote_ts:float ->
  channel:Conn_registry.channel ->
  t
(** Server side, in response to a SYN: [flow] is local → remote, and the
    channel's [s2c] is this side's write stream. Sends the SYN-ACK. *)

(** {1 Wire input} *)

val input : t -> Segment.t -> unit

(** {1 Application interface} *)

val write : t -> Types.payload -> int
(** [write t p] appends as much of [p] as the send buffer accepts and
    starts transmission; returns the number of bytes accepted (0 when the
    buffer is full or the connection cannot send). *)

val read : t -> max:int -> mode:Types.recv_mode -> Types.payload option
(** [read t ~max ~mode] takes up to [max] in-order bytes. [None] when
    nothing is available yet; [Some (Data "")] / [Some (Zeros 0)] signals
    EOF after the peer's FIN drained. *)

val close : t -> unit
(** Graceful close: queue a FIN after pending data. *)

val abort : t -> unit
(** Send RST and destroy immediately. *)

val destroy_quiet : t -> unit
(** Tear the TCB down without emitting anything (e.g. when a TIME_WAIT
    incarnation is replaced by a fresh SYN, RFC 6191 style, or when
    TIME_WAIT ends). *)

(** {1 TIME_WAIT record} *)

(** What a TCB in TIME_WAIT still shows: every re-ACK it sends and the
    RST an abort sends are built from these fields alone. *)
type time_wait = {
  tw_flow : Addr.Flow.t;  (** local → remote *)
  tw_seq : int;  (** [snd_nxt], past our FIN *)
  tw_ack : int;  (** [rcv_nxt], past the peer's FIN *)
  tw_window : int;  (** the window a re-ACK advertises *)
  tw_ts_echo : float;  (** the peer timestamp a re-ACK echoes *)
  tw_sndbuf : int;  (** what {!sndbuf_available} reports *)
  tw_release : unit -> unit;  (** the CC's release, due when TIME_WAIT ends *)
}

val time_wait : t -> time_wait option
(** [Some] when the TCB is in TIME_WAIT with no unread bytes and no
    timer of its own. Then nothing but the TCB's destruction can change
    what it shows: a segment only draws {!time_wait_ack} (or, an RST, the
    destruction), [read] only hands out the EOF (when {!eof_pending}),
    [write] and [close] do nothing and [abort] sends {!time_wait_rst}. An
    owner may keep this record instead of the TCB until
    [on_time_wait_end]. [None] in any other state, or while unread bytes
    or a persist timer remain. *)

val time_wait_ack : time_wait -> now:float -> Segment.t
(** The ACK a TIME_WAIT TCB sends for a segment with payload or FIN. *)

val time_wait_rst : time_wait -> Segment.t
(** The RST {!abort} sends from TIME_WAIT. *)

(** {1 Serialization (live NSM migration)} *)

(** A complete, concrete image of the control block's mutable state. *)
module Snapshot : sig
  type retx = { rs_seq : int; rs_len : int; rs_syn : bool; rs_fin : bool; rs_retx : int }

  type full = {
    s_flow : Addr.Flow.t;
    s_cfg : config;
    s_state : state;
    s_iss : int;
    s_snd_una : int;
    s_snd_nxt : int;
    s_snd_wnd : int;
    s_reasm : Reassembly.snapshot option;
    s_rtt : Rtt_estimator.snapshot;
    s_cc_name : string;
    s_cc_state : (string * float) list;
    s_send_pending : int;
    s_fin_queued : bool;
    s_fin_sent : bool;
    s_retxq : retx list;
    s_rto_armed : bool;
    s_rto_backoff : float;
    s_persist_armed : bool;
    s_dupacks : int;
    s_recover : int;
    s_in_recovery : bool;
    s_rwnd_limit : int;
    s_recv_ready : int;
    s_fin_received : bool;
    s_eof_delivered : bool;
    s_peer_ts : float;
    s_last_adv_wnd : int;
  }

  type t = full
end

val snapshot : t -> Snapshot.t
(** Pure read of the full connection state; the TCB keeps running. *)

val detach : t -> unit
(** Quiet source-side teardown after a snapshot has been shipped: cancels
    timers and releases shared CC state without emitting a segment or
    firing [on_destroy]/[on_error] — the connection continues elsewhere. *)

val restore :
  act:actions ->
  cc:Cc.t ->
  channel:Conn_registry.channel ->
  role:[ `Client | `Server ] ->
  Snapshot.t ->
  t
(** Rebuild a TCB from a snapshot on the destination stack. [cc] must be a
    fresh controller from the same factory family; its state is imported
    when the names match. [channel] must be the original content channel
    (from {!Conn_registry.lookup} — registering anew would discard the byte
    streams); [role] says which direction this side writes ([`Client] =
    active opener writes [c2s]). RTO/persist/TIME_WAIT timers are re-armed
    as recorded. *)

(** {1 Observers} *)

val state : t -> state

val flow : t -> Addr.Flow.t

val readable_bytes : t -> int

val eof_pending : t -> bool
(** The peer FIN arrived and all data before it has been read. *)

val sndbuf_available : t -> int

val writable : t -> bool
