(* Homa-style receiver-driven RPC transport behind the protocol-neutral
   {!Tcpstack.Stack_ops} boundary.

   The transport is message-oriented and backlog-free:

   - a client opens a connection with a REQUEST segment; the server admits
     it on first contact (no SYN backlog, no half-open queue) and replies
     ACCEPT. A quiesced or absent listener silently drops the REQUEST and
     the client's request timer resends it — which is exactly what a live
     listener handover between NSMs relies on;
   - each [send] is one message. The sender streams a short message header
     then DATA segments; the first [unsched_bytes] of every message are
     unscheduled (sent eagerly, Homa's one-RTT allotment) and the rest is
     released by explicit GRANTs from the receiver;
   - the receiver's grant pacer runs SRPT across its incomplete inbound
     messages: every [grant_interval] it grants [grant_quantum] more bytes
     to the message with the fewest bytes still missing (ties break toward
     the oldest), so short messages preempt long ones — the property the
     incast experiment measures;
   - grants double as cumulative acks driving the per-connection CUBIC
     congestion controller ({!Tcpstack.Cc_cubic}), which bounds
     ungranted/unacked bytes in flight.

   Like the TCP stack, segments carry metadata only: message payload bytes
   travel through the {!Tcpstack.Conn_registry} content channel keyed by
   ⟨client → server flow, connection id⟩.

   Segment encoding (reusing the TCP segment record):
   - REQUEST   [syn],            [seq] = connection id
   - ACCEPT    [syn]+[ack_flag], [seq] = connection id
   - header    plain, [len] = 0, [seq] = message index, [window] = length
   - DATA      plain, [len] > 0, [seq] = cumulative byte offset
   - GRANT/ack [ack_flag], [seq] = message index, [ack] = granted bytes
               within it, [window] = cumulative bytes received on the conn
   - FIN / RST as in TCP. *)

module Cc = Tcpstack.Cc
module Types = Tcpstack.Types
module Stack_ops = Tcpstack.Stack_ops
module Conn_registry = Tcpstack.Conn_registry
module Fifo = Nkutil.Byte_fifo
module Engine = Sim.Engine
module Cpu = Sim.Cpu
module R = Nkmon.Registry

let proto = "homa"

type config = {
  grant_quantum : int;  (** bytes released per grant *)
  grant_interval : float;  (** pacer period, seconds *)
  ephemeral_base : int;
  ephemeral_count : int;
}

let default_config =
  {
    grant_quantum = 4 * Segment.mss;
    (* 4 MSS per grant at 100G line rate: 4 * 1448 * 8 / 100e9 s. *)
    grant_interval = 4.6e-7;
    ephemeral_base = 32768;
    ephemeral_count = 16384;
  }

(* The kernel-bypass cost profile: the Homa NSM runs a polling userspace
   stack, like mTCP. *)
let profile = Sim.Cost_profile.mtcp

(* Per-connection congestion control. *)
let new_cc () = Tcpstack.Cc_cubic.create ~mss:Segment.mss ()

(* Per-message unscheduled (first-RTT) allotment. *)
let unsched_bytes = 10 * Segment.mss

(* REQUEST retransmit period. *)
let request_rto = 0.01

(* Give up connecting after this many resends. *)
let max_request_retx = 50

type listener = {
  l_addr : Addr.t;
  mutable l_open : bool;
  mutable l_quiesced : bool;
  l_on_accept : Stack_ops.conn -> peer:Addr.t -> unit;
}

module IT = Nkutil.Int_tbl

(* The conns table's key: a flow's (key src, key dst). *)
let find_conn conns (flow : Addr.Flow.t) =
  IT.Pair.find conns (Addr.key flow.src) (Addr.key flow.dst)

let add_conn conns (flow : Addr.Flow.t) h =
  IT.Pair.replace conns (Addr.key flow.src) (Addr.key flow.dst) h

let remove_conn conns (flow : Addr.Flow.t) =
  IT.Pair.remove conns (Addr.key flow.src) (Addr.key flow.dst)

type counters = {
  c_segs_rx : R.counter;
  c_segs_tx : R.counter;
  c_payload_rx : R.counter;
  c_payload_tx : R.counter;
  c_msgs_rx : R.counter;
  c_grants_tx : R.counter;
  c_req_drops : R.counter;
  c_established : R.counter;
  c_failed : R.counter;
}

type t = {
  engine : Engine.t;
  name : string;
  cores : Cpu.Set.t;
  vswitch : Vswitch.t;
  registry : Conn_registry.t;
  cfg : config;
  conns : Hcb.t IT.Pair.t;  (* keyed by the flow the conn receives on *)
  listeners : listener IT.t;  (* keyed by [Addr.key]; lookup-only: never iterated *)
  mutable ips : Addr.ip list;
  mutable next_port : int;
  mutable next_cid : int;
  mutable next_core : int;
  (* Incomplete inbound messages wanting grants, oldest first. *)
  mutable active : (Hcb.t * Hcb.in_msg) list;
  mutable pacer : Engine.Timer.t option;
  spans : Nkspan.t;
  ctr : counters;
  mutable self_input : Segment.t -> unit;
}

type Stack_ops.conn += Conn of Hcb.t

type Stack_ops.listener += Listener of listener

type Stack_ops.payload += Homa_state of Hcb.Snapshot.t

let unpack_conn = function
  | Conn h -> h
  | _ -> invalid_arg "Homa: foreign connection handle"

let unpack_listener = function
  | Listener l -> l
  | _ -> invalid_arg "Homa: foreign listener handle"

let pick_core t =
  let core = Cpu.Set.core t.cores (t.next_core mod Cpu.Set.n t.cores) in
  t.next_core <- t.next_core + 1;
  core

(* ---- Segment emission --------------------------------------------------- *)

let emit t (h : Hcb.t) seg =
  R.incr t.ctr.c_segs_tx;
  if seg.Segment.len > 0 then R.add t.ctr.c_payload_tx seg.Segment.len;
  let cycles =
    profile.Sim.Cost_profile.per_chunk_tx
    +. (profile.Sim.Cost_profile.per_byte_tx *. float_of_int seg.Segment.len)
  in
  Nkspan.enter t.spans ~component:"homastack" ~stage:"tx";
  Cpu.exec h.Hcb.core ~cycles (fun () -> Vswitch.output t.vswitch seg);
  Nkspan.leave t.spans

let send_request t (h : Hcb.t) =
  emit t h
    (Segment.make ~flow:h.Hcb.flow ~seq:h.Hcb.cid ~ack:0 ~syn:true ~ack_flag:false ~fin:false
       ~rst:false ~window:0 ~len:0 ~ts:0.0 ~ts_echo:(-1.0))

let send_accept t (h : Hcb.t) =
  emit t h
    (Segment.make ~flow:(Hcb.tx_flow h) ~seq:h.Hcb.cid ~ack:0 ~syn:true ~ack_flag:true
       ~fin:false ~rst:false ~window:0 ~len:0 ~ts:0.0 ~ts_echo:(-1.0))

let send_ack t (h : Hcb.t) ~msg_idx ~granted =
  emit t h
    (Segment.make ~flow:(Hcb.tx_flow h) ~seq:msg_idx ~ack:granted ~syn:false ~ack_flag:true
       ~fin:false ~rst:false ~window:h.Hcb.rx_bytes ~len:0 ~ts:0.0 ~ts_echo:(-1.0))

(* ---- Connection teardown ------------------------------------------------ *)

let teardown t (h : Hcb.t) =
  if not h.Hcb.destroyed then begin
    h.Hcb.destroyed <- true;
    (match h.Hcb.request_timer with
    | Some tm ->
        Engine.Timer.cancel t.engine tm;
        h.Hcb.request_timer <- None
    | None -> ());
    remove_conn t.conns (Hcb.rx_flow h);
    if h.Hcb.endpoint_registered then begin
      Vswitch.unregister_endpoint t.vswitch (Hcb.local_addr h);
      h.Hcb.endpoint_registered <- false
    end;
    if h.Hcb.flow_registered then begin
      Vswitch.unregister_flow t.vswitch h.Hcb.flow;
      h.Hcb.flow_registered <- false
    end;
    (match h.Hcb.rx_cur with
    | Some im -> t.active <- List.filter (fun (_, m) -> m != im) t.active
    | None -> ());
    if h.Hcb.role = Hcb.Client then
      Conn_registry.remove t.registry ~flow:h.Hcb.flow ~isn:h.Hcb.cid;
    h.Hcb.cc.Cc.release ();
    Cpu.charge h.Hcb.core ~cycles:profile.Sim.Cost_profile.teardown
  end

let maybe_teardown t (h : Hcb.t) =
  if h.Hcb.fin_sent && h.Hcb.peer_closed then teardown t h

let fire_events (h : Hcb.t) =
  match h.Hcb.handler with Some f -> f (Hcb.events h) | None -> ()

let conn_fail t (h : Hcb.t) err =
  if not h.Hcb.destroyed then begin
    h.Hcb.error <- Some err;
    h.Hcb.state <- Hcb.Closed;
    R.incr t.ctr.c_failed;
    let k = h.Hcb.connect_k in
    h.Hcb.connect_k <- None;
    teardown t h;
    match k with Some k -> k (Error err) | None -> fire_events h
  end

(* ---- Transmit pump ------------------------------------------------------ *)

let rec tx_pump t (h : Hcb.t) =
  if (not h.Hcb.destroyed) && not h.Hcb.fin_sent then
    match Queue.peek_opt h.Hcb.txq with
    | None ->
        if h.Hcb.fin_queued then begin
          h.Hcb.fin_sent <- true;
          h.Hcb.state <- Hcb.Closed;
          emit t h
            (Segment.make ~flow:(Hcb.tx_flow h) ~seq:h.Hcb.tx_bytes ~ack:0 ~syn:false
               ~ack_flag:false ~fin:true ~rst:false ~window:0 ~len:0 ~ts:0.0
               ~ts_echo:(-1.0));
          maybe_teardown t h
        end
    | Some m ->
        if not m.Hcb.om_hdr_sent then begin
          m.Hcb.om_hdr_sent <- true;
          emit t h
            (Segment.make ~flow:(Hcb.tx_flow h) ~seq:h.Hcb.tx_msg_base ~ack:0 ~syn:false
               ~ack_flag:false ~fin:false ~rst:false ~window:m.Hcb.om_len ~len:0 ~ts:0.0
               ~ts_echo:(-1.0))
        end;
        let cwnd = h.Hcb.cc.Cc.cwnd () in
        let budget = min (m.Hcb.om_granted - m.Hcb.om_sent) (cwnd - Hcb.inflight h) in
        if budget > 0 then begin
          let chunk = min budget Segment.gso_max in
          emit t h
            (Segment.make ~flow:(Hcb.tx_flow h) ~seq:h.Hcb.tx_bytes ~ack:0 ~syn:false
               ~ack_flag:false ~fin:false ~rst:false ~window:0 ~len:chunk ~ts:0.0
               ~ts_echo:(-1.0));
          m.Hcb.om_sent <- m.Hcb.om_sent + chunk;
          h.Hcb.tx_bytes <- h.Hcb.tx_bytes + chunk;
          if m.Hcb.om_sent >= m.Hcb.om_len then begin
            ignore (Queue.pop h.Hcb.txq);
            h.Hcb.tx_msg_base <- h.Hcb.tx_msg_base + 1
          end;
          tx_pump t h
        end

(* ---- Receiver grant pacer (SRPT across connections) --------------------- *)

let grant_wanted (h : Hcb.t) (im : Hcb.in_msg) =
  (not h.Hcb.destroyed)
  && (match h.Hcb.rx_cur with Some cur -> cur == im | None -> false)
  && im.Hcb.im_granted < im.Hcb.im_len

let rec pacer_tick t () =
  t.pacer <- None;
  t.active <- List.filter (fun (h, im) -> grant_wanted h im) t.active;
  (match t.active with
  | [] -> ()
  | (h0, im0) :: rest ->
      let remaining (im : Hcb.in_msg) = im.Hcb.im_len - im.Hcb.im_rcvd in
      let best_h, best_im =
        List.fold_left
          (fun (bh, bim) (h, im) ->
            if remaining im < remaining bim then (h, im) else (bh, bim))
          (h0, im0) rest
      in
      Nkspan.enter t.spans ~component:"homastack" ~stage:"grant";
      best_im.Hcb.im_granted <-
        min best_im.Hcb.im_len (best_im.Hcb.im_granted + t.cfg.grant_quantum);
      R.incr t.ctr.c_grants_tx;
      send_ack t best_h ~msg_idx:(best_h.Hcb.rx_msg_count - 1)
        ~granted:best_im.Hcb.im_granted;
      Nkspan.leave t.spans);
  arm_pacer t

and arm_pacer t =
  if t.pacer = None && t.active <> [] then
    t.pacer <- Some (Engine.schedule t.engine ~delay:t.cfg.grant_interval (pacer_tick t))

(* ---- Receive path ------------------------------------------------------- *)

let rx_cycles (seg : Segment.t) =
  if seg.Segment.len > 0 then
    profile.Sim.Cost_profile.per_chunk_rx
    +. (profile.Sim.Cost_profile.per_byte_rx *. float_of_int seg.Segment.len)
  else profile.Sim.Cost_profile.per_ack_rx

let conn_input t (h : Hcb.t) (seg : Segment.t) =
  if not h.Hcb.destroyed then begin
    Nkspan.enter t.spans ~component:"homastack" ~stage:"rx";
    Cpu.charge h.Hcb.core ~cycles:(rx_cycles seg);
    Nkspan.leave t.spans;
    if seg.Segment.rst then
      conn_fail t h
        (if h.Hcb.state = Hcb.Opening then Types.Econnrefused else Types.Econnreset)
    else if seg.Segment.syn && seg.Segment.ack_flag then begin
      (* ACCEPT: the client's REQUEST was admitted. *)
      if h.Hcb.state = Hcb.Opening then begin
        h.Hcb.state <- Hcb.Open;
        (match h.Hcb.request_timer with
        | Some tm ->
            Engine.Timer.cancel t.engine tm;
            h.Hcb.request_timer <- None
        | None -> ());
        R.incr t.ctr.c_established;
        let k = h.Hcb.connect_k in
        h.Hcb.connect_k <- None;
        match k with Some k -> k (Ok ()) | None -> ()
      end
    end
    else if seg.Segment.syn then
      (* Duplicate REQUEST (our ACCEPT crossed a retry): re-accept. *)
      send_accept t h
    else if seg.Segment.ack_flag then begin
      (* GRANT / cumulative ack. *)
      let delta = seg.Segment.window - h.Hcb.tx_acked in
      if delta > 0 then begin
        h.Hcb.tx_acked <- h.Hcb.tx_acked + delta;
        h.Hcb.cc.Cc.on_ack ~acked:delta ~rtt:(-1.) ~now:(Engine.now t.engine)
      end;
      (match Queue.peek_opt h.Hcb.txq with
      | Some m when seg.Segment.seq = h.Hcb.tx_msg_base ->
          if seg.Segment.ack > m.Hcb.om_granted then
            m.Hcb.om_granted <- min seg.Segment.ack m.Hcb.om_len
      | _ -> ());
      tx_pump t h
    end
    else if seg.Segment.fin then begin
      h.Hcb.peer_closed <- true;
      fire_events h;
      maybe_teardown t h
    end
    else if seg.Segment.len > 0 then begin
      (* DATA *)
      R.add t.ctr.c_payload_rx seg.Segment.len;
      match h.Hcb.rx_cur with
      | None -> ()  (* stray data for an already-completed message *)
      | Some im ->
          im.Hcb.im_rcvd <- min im.Hcb.im_len (im.Hcb.im_rcvd + seg.Segment.len);
          h.Hcb.rx_bytes <- h.Hcb.rx_bytes + seg.Segment.len;
          if im.Hcb.im_rcvd >= im.Hcb.im_len then begin
            h.Hcb.rx_cur <- None;
            h.Hcb.ready <- h.Hcb.ready @ [ im.Hcb.im_len ];
            t.active <- List.filter (fun (_, m) -> m != im) t.active;
            R.incr t.ctr.c_msgs_rx;
            send_ack t h ~msg_idx:(h.Hcb.rx_msg_count - 1) ~granted:im.Hcb.im_len;
            fire_events h
          end
          else
            (* Window-update ack: grants stop once a message is fully
               granted, but the sender may still be cwnd-limited — without
               acking received data its ack clock would go dead and the
               tail of the message would never drain. *)
            send_ack t h ~msg_idx:(h.Hcb.rx_msg_count - 1) ~granted:im.Hcb.im_granted
    end
    else begin
      (* Message header: one inbound message at a time per connection
         (senders stream messages strictly FIFO). *)
      match h.Hcb.rx_cur with
      | Some _ -> ()  (* duplicate header *)
      | None ->
          if seg.Segment.seq = h.Hcb.rx_msg_count then begin
            let len = seg.Segment.window in
            h.Hcb.rx_msg_count <- h.Hcb.rx_msg_count + 1;
            if len = 0 then begin
              h.Hcb.ready <- h.Hcb.ready @ [ 0 ];
              R.incr t.ctr.c_msgs_rx;
              send_ack t h ~msg_idx:(h.Hcb.rx_msg_count - 1) ~granted:0;
              fire_events h
            end
            else begin
              let im =
                { Hcb.im_len = len; im_rcvd = 0; im_granted = min unsched_bytes len }
              in
              h.Hcb.rx_cur <- Some im;
              if im.Hcb.im_granted < im.Hcb.im_len then begin
                t.active <- t.active @ [ (h, im) ];
                arm_pacer t
              end
            end
          end
    end
  end

let handle_request t (seg : Segment.t) =
  let dst = seg.Segment.flow.Addr.Flow.dst in
  match IT.find_opt t.listeners (Addr.key dst) with
  | Some l when l.l_open && not l.l_quiesced -> (
      match Conn_registry.lookup t.registry ~flow:seg.Segment.flow ~isn:seg.Segment.seq with
      | None -> R.incr t.ctr.c_req_drops
      | Some channel ->
          let core = pick_core t in
          let h =
            Hcb.create ~flow:seg.Segment.flow ~cid:seg.Segment.seq ~role:Hcb.Server
              ~cc:(new_cc ()) ~channel ~core ~state:Hcb.Open
          in
          add_conn t.conns seg.Segment.flow h;
          Vswitch.register_flow t.vswitch seg.Segment.flow t.self_input;
          h.Hcb.flow_registered <- true;
          Cpu.charge core ~cycles:profile.Sim.Cost_profile.accept_op;
          R.incr t.ctr.c_established;
          send_accept t h;
          l.l_on_accept (Conn h) ~peer:seg.Segment.flow.Addr.Flow.src)
  | _ ->
      (* No listener willing to admit: silent drop — the client's request
         timer retries, and after a listener handover the retry lands on
         the new owner. *)
      R.incr t.ctr.c_req_drops

let input t (seg : Segment.t) =
  R.incr t.ctr.c_segs_rx;
  match find_conn t.conns seg.Segment.flow with
  | h -> conn_input t h seg
  | exception Not_found ->
      if seg.Segment.syn && not seg.Segment.ack_flag then handle_request t seg
      (* else: stray segment for a departed connection — drop. *)

let create ~engine ~name ~cores ~vswitch ~registry ?(mon : Nkmon.t option)
    ?(spans : Nkspan.t option) ?(cfg = default_config) () =
  let mon = match mon with Some m -> m | None -> Nkmon.null () in
  let spans = match spans with Some s -> s | None -> Nkspan.null () in
  let c metric = Nkmon.counter mon ~component:"homastack" ~instance:name ~name:metric in
  let t =
    {
      engine;
      name;
      cores;
      vswitch;
      registry;
      cfg;
      conns = IT.Pair.create 64;
      listeners = IT.create 8;
      ips = [];
      next_port = cfg.ephemeral_base;
      next_cid = 1;
      next_core = 0;
      active = [];
      pacer = None;
      spans;
      ctr =
        {
          c_segs_rx = c "segs_rx";
          c_segs_tx = c "segs_tx";
          c_payload_rx = c "payload_rx";
          c_payload_tx = c "payload_tx";
          c_msgs_rx = c "msgs_rx";
          c_grants_tx = c "grants_tx";
          c_req_drops = c "req_drops";
          c_established = c "conns_established";
          c_failed = c "conns_failed";
        };
      self_input = (fun _ -> ());
    }
  in
  t.self_input <- (fun seg -> input t seg);
  t

(* ---- Connecting --------------------------------------------------------- *)

let rec arm_request_timer t (h : Hcb.t) =
  h.Hcb.request_timer <-
    Some
      (Engine.schedule t.engine ~delay:request_rto (fun () ->
           h.Hcb.request_timer <- None;
           if (not h.Hcb.destroyed) && h.Hcb.state = Hcb.Opening then begin
             h.Hcb.req_retx <- h.Hcb.req_retx + 1;
             if h.Hcb.req_retx > max_request_retx then conn_fail t h Types.Etimedout
             else begin
               send_request t h;
               arm_request_timer t h
             end
           end))

let connect t ~dst ~k =
  match t.ips with
  | [] -> k (Error Types.Einval)
  | src_ip :: _ ->
      let rec pick_port tries =
        if tries > t.cfg.ephemeral_count then None
        else begin
          let port = t.next_port in
          t.next_port <-
            t.cfg.ephemeral_base
            + ((t.next_port - t.cfg.ephemeral_base + 1) mod t.cfg.ephemeral_count);
          let src = Addr.make src_ip port in
          if IT.Pair.mem t.conns (Addr.key dst) (Addr.key src) then pick_port (tries + 1)
          else Some (src, Addr.Flow.make ~src ~dst)
        end
      in
      (match pick_port 1 with
      | None -> k (Error Types.Eaddrinuse)
      | Some (src, flow) ->
          let cid = t.next_cid in
          t.next_cid <- t.next_cid + 1;
          let channel = Conn_registry.register t.registry ~flow ~isn:cid in
          let core = pick_core t in
          let h =
            Hcb.create ~flow ~cid ~role:Hcb.Client ~cc:(new_cc ()) ~channel
              ~core ~state:Hcb.Opening
          in
          h.Hcb.connect_k <- Some (fun r -> k (Result.map (fun () -> Conn h) r));
          IT.Pair.replace t.conns (Addr.key dst) (Addr.key src) h;
          Vswitch.register_endpoint t.vswitch src t.self_input;
          h.Hcb.endpoint_registered <- true;
          Cpu.charge core ~cycles:profile.Sim.Cost_profile.handshake;
          send_request t h;
          arm_request_timer t h)

(* ---- IPs and listeners -------------------------------------------------- *)

let add_ip t ip =
  if not (List.mem ip t.ips) then begin
    t.ips <- t.ips @ [ ip ];
    Vswitch.register_ip t.vswitch ip t.self_input
  end

let remove_ip t ip =
  if List.mem ip t.ips then begin
    t.ips <- List.filter (fun i -> i <> ip) t.ips;
    if Vswitch.owns_ip t.vswitch ip then Vswitch.unregister_ip t.vswitch ip
  end

let listen t ~addr ~on_accept =
  match IT.find_opt t.listeners (Addr.key addr) with
  | Some l when l.l_open -> Error Types.Eaddrinuse
  | _ ->
      let l =
        { l_addr = addr; l_open = true; l_quiesced = false; l_on_accept = on_accept }
      in
      IT.replace t.listeners (Addr.key addr) l;
      Ok l

let close_listener t l =
  if l.l_open then begin
    l.l_open <- false;
    IT.remove t.listeners (Addr.key l.l_addr)
  end

let quiesce_listener _t l = l.l_quiesced <- true

(* ---- Socket-style verbs ------------------------------------------------- *)

let send t (h : Hcb.t) payload ~k =
  if h.Hcb.destroyed then k (Error Types.Eclosed)
  else
    match h.Hcb.error with
    | Some e -> k (Error e)
    | None ->
        if h.Hcb.state <> Hcb.Open || h.Hcb.fin_queued then k (Error Types.Eclosed)
        else begin
          let n = Types.payload_len payload in
          if n = 0 then k (Ok 0)
          else begin
            (match payload with
            | Types.Data s -> Fifo.write h.Hcb.write_fifo s
            | Types.Zeros z -> Fifo.write_zeros h.Hcb.write_fifo z);
            Queue.add
              { Hcb.om_len = n; om_hdr_sent = false; om_sent = 0;
                om_granted = min unsched_bytes n }
              h.Hcb.txq;
            Cpu.charge h.Hcb.core ~cycles:profile.Sim.Cost_profile.sockop;
            tx_pump t h;
            k (Ok n)
          end
        end

let recv (h : Hcb.t) ~max ~mode ~k =
  if h.Hcb.destroyed then k (Error Types.Eclosed)
  else
    match h.Hcb.error with
    | Some e -> k (Error e)
    | None -> (
        match h.Hcb.ready with
        | rem :: rest ->
            (* Never cross a message boundary; [`Auto] additionally takes at
               most one homogeneous fifo run (synthetic filler stays O(1)). *)
            let want = min max rem in
            let payload =
              match mode with
              | `Copy -> Types.Data (Fifo.read h.Hcb.read_fifo want)
              | `Discard -> Types.Zeros (Fifo.discard h.Hcb.read_fifo want)
              | `Auto -> (
                  match Fifo.next_run h.Hcb.read_fifo with
                  | Some (`Zeros run) ->
                      Types.Zeros (Fifo.discard h.Hcb.read_fifo (Int.min want run))
                  | Some (`Data run) ->
                      Types.Data (Fifo.read h.Hcb.read_fifo (Int.min want run))
                  | None -> Types.Data (Fifo.read h.Hcb.read_fifo want))
            in
            let n = Types.payload_len payload in
            if n = rem then h.Hcb.ready <- rest else h.Hcb.ready <- (rem - n) :: rest;
            Cpu.charge h.Hcb.core ~cycles:profile.Sim.Cost_profile.sockop;
            k (Ok payload)
        | [] ->
            if Hcb.eof_pending h then begin
              h.Hcb.eof_delivered <- true;
              k
                (Ok
                   (match mode with
                   | `Discard -> Types.Zeros 0
                   | `Copy | `Auto -> Types.Data ""))
            end
            else k (Error Types.Eagain))

let close_conn t (h : Hcb.t) =
  if (not h.Hcb.destroyed) && not h.Hcb.fin_queued then
    match h.Hcb.state with
    | Hcb.Opening -> conn_fail t h Types.Eclosed
    | Hcb.Closed -> ()
    | Hcb.Open ->
        h.Hcb.fin_queued <- true;
        tx_pump t h

let abort_conn t (h : Hcb.t) =
  if not h.Hcb.destroyed then begin
    if h.Hcb.state = Hcb.Open then
      emit t h
        (Segment.make ~flow:(Hcb.tx_flow h) ~seq:h.Hcb.tx_bytes ~ack:0 ~syn:false
           ~ack_flag:false ~fin:false ~rst:true ~window:0 ~len:0 ~ts:0.0 ~ts_echo:(-1.0));
    h.Hcb.error <- Some Types.Econnreset;
    teardown t h
  end

(* ---- Live migration ----------------------------------------------------- *)

let export_conn t (h : Hcb.t) =
  if h.Hcb.destroyed then Error Types.Eclosed
  else begin
    let snap = Hcb.snapshot h in
    (match h.Hcb.rx_cur with
    | Some im -> t.active <- List.filter (fun (_, m) -> m != im) t.active
    | None -> ());
    if h.Hcb.endpoint_registered then
      Vswitch.unregister_endpoint t.vswitch (Hcb.local_addr h);
    if h.Hcb.flow_registered then Vswitch.unregister_flow t.vswitch h.Hcb.flow;
    remove_conn t.conns (Hcb.rx_flow h);
    Hcb.detach ~cancel_timer:(Engine.Timer.cancel t.engine) h;
    Ok { Stack_ops.e_proto = proto; e_flow = h.Hcb.flow; e_payload = Homa_state snap }
  end

let import_conn t (x : Stack_ops.export) =
  match x.Stack_ops.e_payload with
  | Homa_state snap -> (
      match
        Conn_registry.lookup t.registry ~flow:snap.Hcb.Snapshot.s_flow
          ~isn:snap.Hcb.Snapshot.s_cid
      with
      | None -> Error Types.Econnreset
      | Some channel ->
          let core = pick_core t in
          let h = Hcb.restore ~cc:(new_cc ()) ~channel ~core snap in
          add_conn t.conns (Hcb.rx_flow h) h;
          if h.Hcb.endpoint_registered then
            Vswitch.register_endpoint t.vswitch (Hcb.local_addr h) t.self_input;
          if h.Hcb.flow_registered then
            Vswitch.register_flow t.vswitch h.Hcb.flow t.self_input;
          if h.Hcb.state = Hcb.Opening then arm_request_timer t h;
          (match h.Hcb.rx_cur with
          | Some im when im.Hcb.im_granted < im.Hcb.im_len ->
              t.active <- t.active @ [ (h, im) ];
              arm_pacer t
          | _ -> ());
          tx_pump t h;
          Ok (Conn h))
  | _ -> Error Types.Einval

(* ---- Stats -------------------------------------------------------------- *)

type stats = {
  segs_rx : int;
  segs_tx : int;
  payload_rx : int;
  payload_tx : int;
  msgs_rx : int;
  grants_tx : int;
  req_drops : int;
  conns_established : int;
  conns_failed : int;
}

let stats t =
  {
    segs_rx = R.counter_value t.ctr.c_segs_rx;
    segs_tx = R.counter_value t.ctr.c_segs_tx;
    payload_rx = R.counter_value t.ctr.c_payload_rx;
    payload_tx = R.counter_value t.ctr.c_payload_tx;
    msgs_rx = R.counter_value t.ctr.c_msgs_rx;
    grants_tx = R.counter_value t.ctr.c_grants_tx;
    req_drops = R.counter_value t.ctr.c_req_drops;
    conns_established = R.counter_value t.ctr.c_established;
    conns_failed = R.counter_value t.ctr.c_failed;
  }

(* ---- The Stack_ops boundary --------------------------------------------- *)

let ops t =
  {
    Stack_ops.add_ip = add_ip t;
    remove_ip = remove_ip t;
    new_listener =
      (fun ~addr ~backlog:_ ~on_accept ->
        match listen t ~addr ~on_accept with Ok l -> Ok (Listener l) | Error e -> Error e);
    close_listener = (fun l -> close_listener t (unpack_listener l));
    quiesce_listener = (fun l -> quiesce_listener t (unpack_listener l));
    connect = (fun ~dst ~k -> connect t ~dst ~k);
    send = (fun c p ~k -> send t (unpack_conn c) p ~k);
    recv = (fun c ~max ~mode ~k -> recv (unpack_conn c) ~max ~mode ~k);
    close_conn = (fun c -> close_conn t (unpack_conn c));
    abort_conn = (fun c -> abort_conn t (unpack_conn c));
    set_conn_handler = (fun c f -> (unpack_conn c).Hcb.handler <- Some f);
    conn_core = (fun c -> (unpack_conn c).Hcb.core);
    conn_error = (fun c -> (unpack_conn c).Hcb.error);
    export_conn = (fun c -> export_conn t (unpack_conn c));
    import_conn = (fun x -> import_conn t x);
    wake_cycles = profile.Sim.Cost_profile.epoll_wake;
  }
