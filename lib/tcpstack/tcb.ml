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

let state_to_string = function
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

type config = {
  gso : int;
  rwnd_limit : int;
  sndbuf_limit : int;
  rwnd_max : int; (* receive-buffer autotuning ceiling (Linux tcp_moderate_rcvbuf) *)
}

let default_config =
  {
    gso = Segment.gso_max;
    rwnd_limit = 256 * 1024;
    sndbuf_limit = 1024 * 1024;
    rwnd_max = 6 * 1024 * 1024;
  }

(* 2*MSL residence in TIME_WAIT before the TCB is destroyed. *)
let two_msl = 0.05

(* Retransmissions of a SYN, and of a data segment, before the connection
   times out. *)
let max_syn_retx = 6

let max_data_retx = 10

type actions = {
  now : unit -> float;
  emit : Segment.t -> unit;
  set_timer : delay:float -> (unit -> unit) -> Sim.Engine.Timer.t;
  cancel_timer : Sim.Engine.Timer.t -> unit;
  on_established : unit -> unit;
  on_readable : unit -> unit;
  on_writable : unit -> unit;
  on_error : Types.err -> unit;
  on_destroy : unit -> unit;
  on_transition : state -> state -> unit;
  on_time_wait_end : unit -> unit;
}

type retx_item = {
  mutable seq : int;
  mutable len : int;
  syn : bool;
  fin : bool;
  mutable retx : int;
}

type t = {
  flow : Addr.Flow.t;
  cfg : config;
  act : actions;
  cc : Cc.t;
  rtt : Rtt_estimator.t;
  (* The fifos belong to the conn-registry channel [restore] is handed — the
     payload bytes migrate with the channel, not the TCB. *)
  write_fifo : Nkutil.Byte_fifo.t; (* nkscope: volatile *)
  read_fifo : Nkutil.Byte_fifo.t; (* nkscope: volatile *)
  mutable state : state;
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  mutable reasm : Reassembly.t option;
  mutable send_pending : int; (* bytes written by the app, not yet segmented *)
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  retxq : retx_item Queue.t;
  (* Armed timers, or [Timer.none]. Each fires its TCB's own thunk, built
     with the TCB, so arming one allocates no closure and no option. *)
  mutable rto_timer : Sim.Engine.Timer.t;
  mutable rto_backoff : float;
  mutable persist_timer : Sim.Engine.Timer.t;
  (* Set once, right after the record is built ([with_timer_thunks]): a
     [let rec] record would be built twice. A restored TCB builds its own,
     so the thunks are never part of a snapshot. *)
  mutable on_rto_timer : unit -> unit; (* nkscope: volatile *)
  mutable on_persist_timer : unit -> unit; (* nkscope: volatile *)
  mutable dupacks : int;
  mutable recover : int;
  mutable in_recovery : bool;
  mutable rwnd_limit : int; (* current receive buffer (autotuned up) *)
  mutable recv_ready : int; (* in-order bytes the app has not read yet *)
  mutable fin_received : bool;
  mutable eof_delivered : bool;
  mutable peer_ts : float; (* latest peer timestamp, echoed in our ACKs *)
  mutable last_adv_wnd : int;
  (* A restored copy is live by definition; the source side is detached. *)
  mutable destroyed : bool; (* nkscope: volatile *)
}

let state t = t.state
let flow t = t.flow
let readable_bytes t = t.recv_ready

let eof_pending t = t.fin_received && t.recv_ready = 0 && not t.eof_delivered

let inflight t = Tcp_seq.diff t.snd_nxt t.snd_una

let sndbuf_used t = t.send_pending + inflight t

let sndbuf_available t = Int.max 0 (t.cfg.sndbuf_limit - sndbuf_used t)

let can_send_state t =
  match t.state with
  | Established | Close_wait -> true
  | Syn_sent | Syn_rcvd | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed
    -> false

let writable t = can_send_state t && sndbuf_available t > 0

let rwnd_available t =
  let reasm_held = match t.reasm with None -> 0 | Some r -> Reassembly.ooo_bytes r in
  Int.max 0 (t.rwnd_limit - t.recv_ready - reasm_held)

let rcv_nxt t = match t.reasm with None -> 0 | Some r -> Reassembly.next r

let no_timer = Sim.Engine.Timer.none

let armed h = h != no_timer

let cancel_rto t =
  if armed t.rto_timer then begin
    t.act.cancel_timer t.rto_timer;
    t.rto_timer <- no_timer
  end

let cancel_persist t =
  if armed t.persist_timer then begin
    t.act.cancel_timer t.persist_timer;
    t.persist_timer <- no_timer
  end

(* All state changes funnel through here so the owning stack can observe
   them (Nkmon [Tcp_state] trace events). *)
let set_state t st =
  if t.state <> st then begin
    let old = t.state in
    t.state <- st;
    t.act.on_transition old st
  end

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    set_state t Closed;
    cancel_rto t;
    cancel_persist t;
    t.cc.Cc.release ();
    t.act.on_destroy ()
  end

(* TIME_WAIT ends through the owner: the timer holds its callback, not the
   TCB, so the owner may swap the TCB for a [time_wait] record meanwhile. *)
let arm_time_wait t = ignore (t.act.set_timer ~delay:two_msl t.act.on_time_wait_end)

let enter_time_wait t =
  set_state t Time_wait;
  cancel_rto t;
  arm_time_wait t

(* ---- Segment emission ------------------------------------------------ *)

let emit_segment t ~seq ~len ~syn ~fin =
  let ack_flag = t.state <> Syn_sent && (t.reasm <> None || syn) in
  let window = rwnd_available t in
  t.last_adv_wnd <- window;
  let seg =
    Segment.make ~flow:t.flow ~seq ~ack:(rcv_nxt t) ~syn ~ack_flag ~fin ~rst:false ~window
      ~len ~ts:(t.act.now ()) ~ts_echo:t.peer_ts
  in
  t.act.emit seg

let emit_ack t = emit_segment t ~seq:t.snd_nxt ~len:0 ~syn:false ~fin:false

(* ---- Retransmission timer -------------------------------------------- *)

let current_rto t =
  Float.min Rtt_estimator.max_rto (Rtt_estimator.rto t.rtt *. t.rto_backoff)

let rec arm_rto t =
  cancel_rto t;
  if not (Queue.is_empty t.retxq) then
    t.rto_timer <- t.act.set_timer ~delay:(current_rto t) t.on_rto_timer

and on_rto t =
  t.rto_timer <- no_timer;
  match Queue.peek_opt t.retxq with
  | None -> ()
  | Some item ->
      item.retx <- item.retx + 1;
      let too_many =
        if item.syn then item.retx > max_syn_retx else item.retx > max_data_retx
      in
      if too_many then begin
        t.act.on_error Types.Etimedout;
        destroy t
      end
      else begin
        (* Retransmit the head of the queue only (go-back-on-timeout). *)
        let len = Int.min item.len t.cfg.gso in
        emit_segment t ~seq:item.seq ~len ~syn:item.syn ~fin:(item.fin && item.len = 0);
        t.cc.Cc.on_timeout ~now:(t.act.now ());
        t.in_recovery <- false;
        t.dupacks <- 0;
        t.rto_backoff <- Float.min 64.0 (t.rto_backoff *. 2.0);
        arm_rto t
      end

(* ---- Persist (zero-window) timer ------------------------------------- *)

let rec arm_persist t =
  if (not (armed t.persist_timer)) && t.snd_wnd = 0 && (t.send_pending > 0 || t.fin_queued)
  then
    t.persist_timer <- t.act.set_timer ~delay:(Float.max 0.5 (current_rto t)) t.on_persist_timer

and on_persist t =
  t.persist_timer <- no_timer;
  if t.snd_wnd = 0 && t.send_pending > 0 && can_send_state t then begin
    (* Probe with a single byte beyond the window. *)
    let item = { seq = t.snd_nxt; len = 1; syn = false; fin = false; retx = 0 } in
    Queue.add item t.retxq;
    emit_segment t ~seq:t.snd_nxt ~len:1 ~syn:false ~fin:false;
    t.snd_nxt <- Tcp_seq.add t.snd_nxt 1;
    t.send_pending <- t.send_pending - 1;
    if not (armed t.rto_timer) then arm_rto t
  end;
  arm_persist t

(* ---- Output ----------------------------------------------------------- *)

let rec try_output t =
  if can_send_state t || ((t.state = Fin_wait_1 || t.state = Last_ack) && not t.fin_sent)
  then begin
    let inflight () = Tcp_seq.diff t.snd_nxt t.snd_una in
    let wnd () = Int.min (t.cc.Cc.cwnd ()) t.snd_wnd in
    let progress = ref false in
    let continue = ref true in
    while !continue && t.send_pending > 0 && wnd () - inflight () > 0 do
      let budget = wnd () - inflight () in
      let chunk = Int.min t.send_pending (Int.min t.cfg.gso budget) in
      if chunk <= 0 then continue := false
      else if
        (* Nagle (RFC 896) extended with TSO autocorking and deferral
           (tcp_tso_should_defer): while data is in flight, hold back until a
           burst of min(gso, window/2) can leave in one chunk — whether the
           small chunk would be limited by the application's pending bytes
           or by the ACK-clocked window budget. Keeps wire chunks large for
           bulk senders; request/response traffic (no data in flight) is
           never delayed. *)
        inflight () > 0
        && (not t.fin_queued)
        && chunk < Int.min t.cfg.gso (Int.max Segment.mss (wnd () / 2))
      then continue := false
      else begin
        let item = { seq = t.snd_nxt; len = chunk; syn = false; fin = false; retx = 0 } in
        Queue.add item t.retxq;
        emit_segment t ~seq:t.snd_nxt ~len:chunk ~syn:false ~fin:false;
        t.snd_nxt <- Tcp_seq.add t.snd_nxt chunk;
        t.send_pending <- t.send_pending - chunk;
        progress := true
      end
    done;
    if t.fin_queued && (not t.fin_sent) && t.send_pending = 0 then begin
      let item = { seq = t.snd_nxt; len = 0; syn = false; fin = true; retx = 0 } in
      Queue.add item t.retxq;
      emit_segment t ~seq:t.snd_nxt ~len:0 ~syn:false ~fin:true;
      t.snd_nxt <- Tcp_seq.add t.snd_nxt 1;
      t.fin_sent <- true;
      progress := true;
      (match t.state with
      | Established | Syn_rcvd -> set_state t Fin_wait_1
      | Close_wait -> set_state t Last_ack
      | Syn_sent | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed -> ())
    end;
    if !progress && not (armed t.rto_timer) then arm_rto t;
    if t.snd_wnd = 0 && t.send_pending > 0 then arm_persist t
  end

and send_fin_if_needed t = try_output t

(* ---- Construction ----------------------------------------------------- *)

let with_timer_thunks t =
  t.on_rto_timer <- (fun () -> on_rto t);
  t.on_persist_timer <- (fun () -> on_persist t);
  t

let base ~flow ~cfg ~act ~cc ~write_fifo ~read_fifo ~state ~iss =
  with_timer_thunks
    {
      flow;
      cfg;
      act;
      cc;
      rtt = Rtt_estimator.create ();
      write_fifo;
      read_fifo;
      state;
      iss;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = 0;
      reasm = None;
      send_pending = 0;
      rwnd_limit = cfg.rwnd_limit;
      fin_queued = false;
      fin_sent = false;
      retxq = Queue.create ();
      rto_timer = no_timer;
      rto_backoff = 1.0;
      persist_timer = no_timer;
      on_rto_timer = ignore;
      on_persist_timer = ignore;
      dupacks = 0;
      recover = 0;
      in_recovery = false;
      recv_ready = 0;
      fin_received = false;
      eof_delivered = false;
      peer_ts = -1.0;
      last_adv_wnd = 0;
      destroyed = false;
    }

let create_active ~flow ~cfg ~act ~cc ~isn ~channel =
  let t =
    base ~flow ~cfg ~act ~cc ~write_fifo:channel.Conn_registry.c2s
      ~read_fifo:channel.Conn_registry.s2c ~state:Syn_sent ~iss:isn
  in
  let item = { seq = isn; len = 0; syn = true; fin = false; retx = 0 } in
  Queue.add item t.retxq;
  emit_segment t ~seq:isn ~len:0 ~syn:true ~fin:false;
  t.snd_nxt <- Tcp_seq.add isn 1;
  arm_rto t;
  t

let create_passive ~flow ~cfg ~act ~cc ~isn ~remote_isn ~remote_ts ~channel =
  let t =
    base ~flow ~cfg ~act ~cc ~write_fifo:channel.Conn_registry.s2c
      ~read_fifo:channel.Conn_registry.c2s ~state:Syn_rcvd ~iss:isn
  in
  t.reasm <- Some (Reassembly.create ~next:(Tcp_seq.add remote_isn 1) ());
  t.peer_ts <- remote_ts;
  let item = { seq = isn; len = 0; syn = true; fin = false; retx = 0 } in
  Queue.add item t.retxq;
  emit_segment t ~seq:isn ~len:0 ~syn:true ~fin:false;
  t.snd_nxt <- Tcp_seq.add isn 1;
  arm_rto t;
  t

(* ---- ACK processing --------------------------------------------------- *)

let pop_acked t ack =
  let rec loop () =
    match Queue.peek_opt t.retxq with
    | None -> ()
    | Some item ->
        let occupied = item.len + (if item.syn then 1 else 0) + if item.fin then 1 else 0 in
        let item_end = Tcp_seq.add item.seq occupied in
        if Tcp_seq.leq item_end ack then begin
          ignore (Queue.pop t.retxq);
          loop ()
        end
        else if Tcp_seq.lt item.seq ack && item.len > 0 then begin
          (* Partial ACK within a data item: shrink it in place. *)
          let covered = Tcp_seq.diff ack item.seq in
          let covered = Int.min covered item.len in
          item.seq <- Tcp_seq.add item.seq covered;
          item.len <- item.len - covered
        end
  in
  loop ()

let fin_acked t = t.fin_sent && Tcp_seq.geq t.snd_una t.snd_nxt

let retransmit_head t =
  match Queue.peek_opt t.retxq with
  | None -> ()
  | Some item ->
      let len = Int.min item.len t.cfg.gso in
      emit_segment t ~seq:item.seq ~len ~syn:item.syn ~fin:(item.fin && item.len = 0)

let process_ack t (seg : Segment.t) =
  if seg.Segment.ack_flag then begin
    let ack = seg.Segment.ack in
    let had_inflight = inflight t > 0 in
    if Tcp_seq.gt ack t.snd_una && Tcp_seq.leq ack t.snd_nxt then begin
      let acked = Tcp_seq.diff ack t.snd_una in
      t.snd_una <- ack;
      pop_acked t ack;
      t.dupacks <- 0;
      t.rto_backoff <- 1.0;
      let now = t.act.now () in
      let rtt_sample = if seg.Segment.ts_echo >= 0.0 then now -. seg.Segment.ts_echo else -1.0 in
      if rtt_sample >= 0.0 then Rtt_estimator.sample t.rtt rtt_sample;
      if t.in_recovery && Tcp_seq.geq ack t.recover then t.in_recovery <- false
      else if t.in_recovery then retransmit_head t;
      t.cc.Cc.on_ack ~acked ~rtt:rtt_sample ~now;
      arm_rto t;
      if fin_acked t then begin
        match t.state with
        | Fin_wait_1 -> set_state t Fin_wait_2
        | Closing -> enter_time_wait t
        | Last_ack -> destroy t
        | Syn_sent | Syn_rcvd | Established | Fin_wait_2 | Close_wait | Time_wait | Closed
          -> ()
      end;
      if writable t then t.act.on_writable ()
    end
    else if
      Tcp_seq.diff ack t.snd_una = 0 && had_inflight && seg.Segment.len = 0
      && (not seg.Segment.syn) && (not seg.Segment.fin)
      && seg.Segment.window = t.snd_wnd (* window updates are not dupacks *)
    then begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 && not t.in_recovery then begin
        t.in_recovery <- true;
        t.recover <- t.snd_nxt;
        t.cc.Cc.on_loss ~now:(t.act.now ());
        retransmit_head t
      end
    end;
    t.snd_wnd <- seg.Segment.window;
    if t.snd_wnd > 0 then begin
      cancel_persist t
    end
  end

(* ---- Payload and FIN processing --------------------------------------- *)

let process_payload t (seg : Segment.t) =
  match t.reasm with
  | None -> ()
  | Some reasm ->
      if seg.Segment.ts >= 0.0 then t.peer_ts <- Float.max t.peer_ts seg.Segment.ts;
      let off =
        Reassembly.offer reasm ~seq:seg.Segment.seq ~len:seg.Segment.len
          ~fin:seg.Segment.fin
      in
      if off.Reassembly.released > 0 then begin
        t.recv_ready <- t.recv_ready + off.Reassembly.released;
        (* Receive autotuning: under buffer pressure, grow towards the
           ceiling so a slow-draining receiver does not strangle the
           sender's chunk sizes (Linux tcp_moderate_rcvbuf). *)
        if t.recv_ready > t.rwnd_limit / 2 && t.rwnd_limit < t.cfg.rwnd_max then
          t.rwnd_limit <- Int.min t.cfg.rwnd_max (2 * t.rwnd_limit)
      end;
      if off.Reassembly.fin_reached then begin
        t.fin_received <- true;
        match t.state with
        | Established -> set_state t Close_wait
        | Fin_wait_1 -> if fin_acked t then enter_time_wait t else set_state t Closing
        | Fin_wait_2 -> enter_time_wait t
        | Syn_rcvd -> set_state t Close_wait
        | Syn_sent | Close_wait | Closing | Last_ack | Time_wait | Closed -> ()
      end;
      (* Data and FIN segments are acknowledged immediately. *)
      emit_ack t;
      if off.Reassembly.released > 0 || off.Reassembly.fin_reached then t.act.on_readable ()

(* ---- Input dispatch ---------------------------------------------------- *)

let handle_rst t =
  match t.state with
  | Closed -> ()
  | Time_wait -> destroy t
  | Syn_sent ->
      t.act.on_error Types.Econnrefused;
      destroy t
  | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      t.act.on_error Types.Econnreset;
      destroy t

let handle_syn_sent t (seg : Segment.t) =
  if seg.Segment.syn && seg.Segment.ack_flag && Tcp_seq.diff seg.Segment.ack t.snd_nxt = 0
  then begin
    t.snd_una <- seg.Segment.ack;
    pop_acked t seg.Segment.ack;
    t.reasm <- Some (Reassembly.create ~next:(Tcp_seq.add seg.Segment.seq 1) ());
    t.peer_ts <- seg.Segment.ts;
    t.snd_wnd <- seg.Segment.window;
    t.rto_backoff <- 1.0;
    if seg.Segment.ts_echo >= 0.0 then
      Rtt_estimator.sample t.rtt (t.act.now () -. seg.Segment.ts_echo);
    set_state t Established;
    arm_rto t;
    emit_ack t;
    t.act.on_established ();
    try_output t
  end

let input t (seg : Segment.t) =
  if not t.destroyed then
    if seg.Segment.rst then handle_rst t
    else begin
      match t.state with
      | Closed -> ()
      | Syn_sent -> handle_syn_sent t seg
      | Time_wait ->
          (* Re-ACK whatever arrives (e.g. a retransmitted FIN). *)
          if seg.Segment.len > 0 || seg.Segment.fin then emit_ack t
      | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
        ->
          if seg.Segment.syn then begin
            (* Retransmitted SYN: re-send the SYN-ACK while handshaking,
               otherwise challenge-ACK (RFC 5961 style). *)
            if t.state = Syn_rcvd then retransmit_head t else emit_ack t
          end
          else begin
            if
              t.state = Syn_rcvd && seg.Segment.ack_flag
              && Tcp_seq.geq seg.Segment.ack (Tcp_seq.add t.iss 1)
            then begin
              set_state t Established;
              t.rto_backoff <- 1.0;
              t.act.on_established ()
            end;
            process_ack t seg;
            if not t.destroyed then begin
              if seg.Segment.len > 0 || seg.Segment.fin then process_payload t seg
              else if seg.Segment.ts >= 0.0 && seg.Segment.len = 0 then
                (* keep the freshest peer timestamp for our next echo *)
                t.peer_ts <- Float.max t.peer_ts seg.Segment.ts;
              try_output t
            end
          end
    end

(* ---- Application interface --------------------------------------------- *)

let write t payload =
  (* A detached TCB (migrated away) shares its fifo with the live copy:
     late application calls must not touch the stream. *)
  if t.destroyed || not (can_send_state t) then 0
  else begin
    let len = Types.payload_len payload in
    let accept = Int.min len (sndbuf_available t) in
    if accept > 0 then begin
      (match payload with
      | Types.Data s -> Nkutil.Byte_fifo.write_sub t.write_fifo s ~pos:0 ~len:accept
      | Types.Zeros _ -> Nkutil.Byte_fifo.write_zeros t.write_fifo accept);
      t.send_pending <- t.send_pending + accept;
      try_output t
    end;
    accept
  end

let read t ~max ~mode =
  if t.destroyed then None
  else if t.recv_ready > 0 && max > 0 then begin
    let n = Int.min max t.recv_ready in
    let payload =
      match mode with
      | `Copy -> Types.Data (Nkutil.Byte_fifo.read t.read_fifo n)
      | `Discard ->
          let dropped = Nkutil.Byte_fifo.discard t.read_fifo n in
          Types.Zeros dropped
      | `Auto -> (
          (* Take at most one homogeneous run so synthetic filler is never
             materialized and real bytes are never dropped. *)
          match Nkutil.Byte_fifo.next_run t.read_fifo with
          | Some (`Zeros run) ->
              let k = Int.min n run in
              Types.Zeros (Nkutil.Byte_fifo.discard t.read_fifo k)
          | Some (`Data run) -> Types.Data (Nkutil.Byte_fifo.read t.read_fifo (Int.min n run))
          | None -> Types.Data (Nkutil.Byte_fifo.read t.read_fifo n))
    in
    let n = Types.payload_len payload in
    t.recv_ready <- t.recv_ready - n;
    (* Window update: tell the peer when meaningful space opened up. *)
    let opened = rwnd_available t - t.last_adv_wnd in
    if opened >= Int.max (2 * Segment.mss) (t.rwnd_limit / 8) then emit_ack t;
    Some payload
  end
  else if eof_pending t then begin
    t.eof_delivered <- true;
    Some (match mode with `Copy | `Auto -> Types.Data "" | `Discard -> Types.Zeros 0)
  end
  else None

let close t =
  if t.destroyed then ()
  else
    match t.state with
  | Closed | Time_wait | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack -> ()
  | Syn_sent ->
      (* Nothing established yet: just go away. *)
      destroy t
  | Syn_rcvd | Established | Close_wait ->
      t.fin_queued <- true;
      send_fin_if_needed t

let destroy_quiet t = destroy t

(* ---- TIME_WAIT record ---------------------------------------------------- *)

type time_wait = {
  tw_flow : Addr.Flow.t;
  tw_seq : int;
  tw_ack : int;
  tw_window : int;
  tw_ts_echo : float;
  tw_sndbuf : int;
  tw_release : unit -> unit;
}

(* In TIME_WAIT only [input]'s re-ACK, [read]'s EOF, [abort] and [destroy]
   still act, and with no unread bytes and no timer of its own (the
   retransmit timer went at entry) nothing but [destroy] changes what they
   read: the record below is all of it. *)
let time_wait t =
  match t.state with
  | Time_wait when (not (armed t.rto_timer)) && (not (armed t.persist_timer)) && t.recv_ready = 0
    ->
      Some
        {
          tw_flow = t.flow;
          tw_seq = t.snd_nxt;
          tw_ack = rcv_nxt t;
          tw_window = rwnd_available t;
          tw_ts_echo = t.peer_ts;
          tw_sndbuf = sndbuf_available t;
          tw_release = t.cc.Cc.release;
        }
  | _ -> None

(* [emit_ack]'s and [abort]'s segments, field for field. *)
let time_wait_ack tw ~now =
  Segment.make ~flow:tw.tw_flow ~seq:tw.tw_seq ~ack:tw.tw_ack ~syn:false ~ack_flag:true
    ~fin:false ~rst:false ~window:tw.tw_window ~len:0 ~ts:now ~ts_echo:tw.tw_ts_echo

let time_wait_rst tw =
  Segment.make ~flow:tw.tw_flow ~seq:tw.tw_seq ~ack:tw.tw_ack ~syn:false ~ack_flag:true
    ~fin:false ~rst:true ~window:0 ~len:0 ~ts:0.0 ~ts_echo:(-1.0)

(* ---- Serialization (live NSM migration) -------------------------------- *)

module Snapshot = struct
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

let snapshot t =
  {
    Snapshot.s_flow = t.flow;
    s_cfg = t.cfg;
    s_state = t.state;
    s_iss = t.iss;
    s_snd_una = t.snd_una;
    s_snd_nxt = t.snd_nxt;
    s_snd_wnd = t.snd_wnd;
    s_reasm = Option.map Reassembly.snapshot t.reasm;
    s_rtt = Rtt_estimator.snapshot t.rtt;
    s_cc_name = t.cc.Cc.name;
    s_cc_state = t.cc.Cc.export ();
    s_send_pending = t.send_pending;
    s_fin_queued = t.fin_queued;
    s_fin_sent = t.fin_sent;
    s_retxq =
      List.rev
        (Queue.fold
           (fun acc (i : retx_item) ->
             { Snapshot.rs_seq = i.seq; rs_len = i.len; rs_syn = i.syn; rs_fin = i.fin;
               rs_retx = i.retx }
             :: acc)
           [] t.retxq);
    s_rto_armed = armed t.rto_timer;
    s_rto_backoff = t.rto_backoff;
    s_persist_armed = armed t.persist_timer;
    s_dupacks = t.dupacks;
    s_recover = t.recover;
    s_in_recovery = t.in_recovery;
    s_rwnd_limit = t.rwnd_limit;
    s_recv_ready = t.recv_ready;
    s_fin_received = t.fin_received;
    s_eof_delivered = t.eof_delivered;
    s_peer_ts = t.peer_ts;
    s_last_adv_wnd = t.last_adv_wnd;
  }

(* Quiet detach for the source side of a migration: stop all timers and
   release shared CC state without emitting a segment or firing any
   callback — the connection lives on elsewhere, so the usual destroy
   notifications would be lies. *)
let detach t =
  if not t.destroyed then begin
    t.destroyed <- true;
    cancel_rto t;
    cancel_persist t;
    t.cc.Cc.release ()
  end

let restore ~act ~cc ~channel ~role (s : Snapshot.t) =
  if String.equal cc.Cc.name s.Snapshot.s_cc_name then cc.Cc.import s.Snapshot.s_cc_state;
  let write_fifo, read_fifo =
    match role with
    | `Client -> (channel.Conn_registry.c2s, channel.Conn_registry.s2c)
    | `Server -> (channel.Conn_registry.s2c, channel.Conn_registry.c2s)
  in
  let t =
    with_timer_thunks
      {
        flow = s.Snapshot.s_flow;
        cfg = s.Snapshot.s_cfg;
        act;
        cc;
        rtt = Rtt_estimator.restore s.Snapshot.s_rtt;
        write_fifo;
        read_fifo;
        state = s.Snapshot.s_state;
        iss = s.Snapshot.s_iss;
        snd_una = s.Snapshot.s_snd_una;
        snd_nxt = s.Snapshot.s_snd_nxt;
        snd_wnd = s.Snapshot.s_snd_wnd;
        reasm = Option.map Reassembly.restore s.Snapshot.s_reasm;
        send_pending = s.Snapshot.s_send_pending;
        fin_queued = s.Snapshot.s_fin_queued;
        fin_sent = s.Snapshot.s_fin_sent;
        retxq = Queue.create ();
        rto_timer = no_timer;
        rto_backoff = s.Snapshot.s_rto_backoff;
        persist_timer = no_timer;
        on_rto_timer = ignore;
        on_persist_timer = ignore;
        dupacks = s.Snapshot.s_dupacks;
        recover = s.Snapshot.s_recover;
        in_recovery = s.Snapshot.s_in_recovery;
        rwnd_limit = s.Snapshot.s_rwnd_limit;
        recv_ready = s.Snapshot.s_recv_ready;
        fin_received = s.Snapshot.s_fin_received;
        eof_delivered = s.Snapshot.s_eof_delivered;
        peer_ts = s.Snapshot.s_peer_ts;
        last_adv_wnd = s.Snapshot.s_last_adv_wnd;
        destroyed = false;
      }
  in
  List.iter
    (fun (r : Snapshot.retx) ->
      Queue.add
        { seq = r.Snapshot.rs_seq; len = r.rs_len; syn = r.rs_syn; fin = r.rs_fin;
          retx = r.rs_retx }
        t.retxq)
    s.Snapshot.s_retxq;
  (match t.state with
  | Time_wait ->
      (* The residual 2*MSL dwell restarts from scratch; it only delays the
         TCB's disappearance, never its behaviour. *)
      arm_time_wait t
  | Syn_sent | Syn_rcvd | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Closed ->
      if s.Snapshot.s_rto_armed then arm_rto t);
  if s.Snapshot.s_persist_armed then arm_persist t;
  t

let abort t =
  if not t.destroyed then begin
    let seg =
      Segment.make ~flow:t.flow ~seq:t.snd_nxt ~ack:(rcv_nxt t) ~syn:false ~ack_flag:true
        ~fin:false ~rst:true ~window:0 ~len:0 ~ts:0.0 ~ts_echo:(-1.0)
    in
    t.act.emit seg;
    destroy t
  end
