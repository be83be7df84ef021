module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Profile = Sim.Cost_profile

type rx_mode = Interrupt | Polling

type config = {
  profile : Profile.t;
  tcb : Tcb.config;
  cc_factory : Cc.factory;
  rx_mode : rx_mode;
  charge_user_io : bool;
  contention_cores : int option;
  register_vswitch : bool;
  ephemeral_range : int * int;
      (* several stacks may originate connections from a shared IP (multiple
         NSMs serving one VM); disjoint ranges keep their ports from
         colliding *)
}

let default_config profile =
  {
    profile;
    tcb =
      {
        Tcb.default_config with
        Tcb.rwnd_limit = profile.Profile.default_rwnd;
        rwnd_max = profile.Profile.max_rwnd;
        sndbuf_limit = 2 * profile.Profile.max_rwnd;
      };
    cc_factory = Cc_cubic.factory ~mss:Segment.mss;
    rx_mode = Interrupt;
    charge_user_io = true;
    contention_cores = None;
    register_vswitch = true;
    ephemeral_range = (32768, 60999);
  }

(* Per-core NIC RX descriptor ring. *)
let rx_ring_capacity = 4096

(* IRQ dispatch latency. *)
let interrupt_delay = 5e-6

(* Polling-loop sleep when the ring is empty. *)
let poll_idle_delay = 20e-6

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

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_segs_rx : Nkmon.Registry.counter;
  c_segs_tx : Nkmon.Registry.counter;
  c_payload_rx : Nkmon.Registry.counter;
  c_payload_tx : Nkmon.Registry.counter;
  c_rx_ring_drops : Nkmon.Registry.counter;
  c_syn_drops : Nkmon.Registry.counter;
  c_rst_tx : Nkmon.Registry.counter;
  c_conns_established : Nkmon.Registry.counter;
  c_conns_failed : Nkmon.Registry.counter;
}

type listener = {
  l_addr : Addr.t;
  l_backlog : int;
  accept_q : sock Queue.t;
  accept_waiters : ((sock, Types.err) result -> unit) Queue.t;
  mutable syn_count : int;
  mutable l_endpoint_registered : bool;
  mutable l_paused : bool;  (* drop new SYNs silently (migration quiesce) *)
}

and conn = {
  tcb : Tcb.t;
  registry_key : Addr.Flow.t * int; (* client->server flow, client ISN *)
  mutable established : bool;
  mutable error : Types.err option;
  mutable c_endpoint_registered : bool;
  mutable c_flow_registered : bool;
}

(* A connection in TIME_WAIT whose TCB was dropped (see [settle]): what
   the rest of its 2*MSL can still observe. *)
and time_wait = {
  tw : Tcb.time_wait;
  tw_registry_key : Addr.Flow.t * int;
  tw_endpoint_registered : bool;
  tw_flow_registered : bool;
  mutable tw_eof_pending : bool; (* the peer's FIN is not read yet *)
  mutable tw_closed : bool; (* the TCB's [destroyed] *)
}

and sock_kind = Fresh | Listener of listener | Conn of conn | Time_wait of time_wait | Sclosed

and sock = {
  sid : int;
  mutable kind : sock_kind;
  mutable core : Cpu.t;
  mutable qidx : int; (* RX queue / core index this flow is steered to *)
  mutable local : Addr.t option;
  mutable peer : Addr.t option;
  mutable handler : (Types.events -> unit) option;
}

module IT = Nkutil.Int_tbl

type rx_queue = {
  ring : Segment.t Nkutil.Spsc_ring.t;
  mutable scheduled : bool;
  mutable batch_left : int; (* segments until the next interrupt charge *)
}

type t = {
  engine : Engine.t;
  cancel_timer : Engine.Timer.t -> unit; (* [Engine.Timer.cancel engine], shared by every TCB *)
  name : string;
  cores : Cpu.Set.t;
  vswitch : Vswitch.t;
  registry : Conn_registry.t;
  rng : Nkutil.Rng.t;
  cfg : config;
  mutable ips : Addr.ip list;
  conns : sock IT.Pair.t;
      (* keyed by the arriving remote->local flow's (key src, key dst), so a
         received segment's own flow finds its socket *)
  listeners : sock IT.t; (* keyed by [Addr.key] *)
  rx : rx_queue array;
  mon : Nkmon.t;
  spans : Nkspan.t;
  ctr : counters;
  mutable next_sid : int;
  mutable next_port : int;
  mutable next_src_ip : int; (* round-robin index into [ips] for connects *)
  mutable next_queue : int; (* RFS-style round-robin flow steering *)
  mutable self_input : Segment.t -> unit;
      (* [input t], tied after [create]: every vswitch registration (IPs,
         listeners, connects, accepted and imported flows) shares this one
         closure instead of building its own, and [handle_syn] reaches it
         without a forward reference. *)
}

let engine t = t.engine
let cores t = t.cores
let config t = t.cfg
let stats t =
  let module R = Nkmon.Registry in
  {
    segs_rx = R.counter_value t.ctr.c_segs_rx;
    segs_tx = R.counter_value t.ctr.c_segs_tx;
    payload_rx = R.counter_value t.ctr.c_payload_rx;
    payload_tx = R.counter_value t.ctr.c_payload_tx;
    rx_ring_drops = R.counter_value t.ctr.c_rx_ring_drops;
    syn_drops = R.counter_value t.ctr.c_syn_drops;
    rst_tx = R.counter_value t.ctr.c_rst_tx;
    conns_established = R.counter_value t.ctr.c_conns_established;
    conns_failed = R.counter_value t.ctr.c_conns_failed;
  }

let owns_ip t ip = List.mem ip t.ips

(* ---- cost helpers ------------------------------------------------------ *)

let ncores t = Cpu.Set.n t.cores

let contention_cores t = Option.value t.cfg.contention_cores ~default:(ncores t)

let tx_mult t = Profile.contention_mult ~factor:t.cfg.profile.tx_contention ~cores:(contention_cores t)

let rx_mult t = Profile.contention_mult ~factor:t.cfg.profile.rx_contention ~cores:(contention_cores t)

let rps_mult t =
  Profile.contention_mult ~factor:t.cfg.profile.rps_contention ~cores:(contention_cores t)

let syscall_cycles t = if t.cfg.charge_user_io then t.cfg.profile.syscall else 0.0

let user_copy_cycles t n =
  if t.cfg.charge_user_io then float_of_int n *. t.cfg.profile.per_byte_user_copy else 0.0

(* ---- event notification ------------------------------------------------ *)

let sock_events _t s =
  match s.kind with
  | Fresh -> Types.no_events
  | Sclosed -> { Types.readable = false; writable = false; hup = true }
  | Listener l ->
      { Types.readable = not (Queue.is_empty l.accept_q); writable = false; hup = false }
  | Conn c ->
      let hup = c.error <> None || Tcb.state c.tcb = Tcb.Closed in
      {
        Types.readable = Tcb.readable_bytes c.tcb > 0 || Tcb.eof_pending c.tcb || hup;
        writable = Tcb.writable c.tcb;
        hup;
      }
  | Time_wait w ->
      { Types.readable = w.tw_eof_pending || w.tw_closed; writable = false; hup = w.tw_closed }

let notify t s = match s.handler with None -> () | Some h -> h (sock_events t s)

let set_event_handler _t s h = s.handler <- Some h

(* ---- segment emission -------------------------------------------------- *)

let emit_cycles t (seg : Segment.t) =
  let p = t.cfg.profile in
  if seg.Segment.len = 0 then p.per_chunk_tx *. 0.4 *. tx_mult t
  else (p.per_chunk_tx +. (float_of_int seg.Segment.len *. p.per_byte_tx)) *. tx_mult t

let emit t s (seg : Segment.t) =
  Nkmon.Registry.incr t.ctr.c_segs_tx;
  Nkmon.Registry.add t.ctr.c_payload_tx seg.Segment.len;
  Cpu.exec s.core ~cycles:(emit_cycles t seg) (fun () -> Vswitch.output t.vswitch seg)

let send_rst t (seg : Segment.t) =
  if not seg.Segment.rst then begin
    Nkmon.Registry.incr t.ctr.c_rst_tx;
    let reply =
      Segment.make ~flow:(Addr.Flow.reverse seg.Segment.flow) ~seq:seg.Segment.ack
        ~ack:(Tcp_seq.add seg.Segment.seq (seg.Segment.len + if seg.Segment.syn then 1 else 0))
        ~syn:false ~ack_flag:true ~fin:false ~rst:true ~window:0 ~len:0 ~ts:0.0
        ~ts_echo:(-1.0)
    in
    Vswitch.output t.vswitch reply
  end

(* ---- sock and tcb plumbing --------------------------------------------- *)

let fresh_sock t ~qidx =
  let s =
    { sid = t.next_sid; kind = Fresh; core = Cpu.Set.core t.cores qidx; qidx; local = None;
      peer = None; handler = None }
  in
  t.next_sid <- t.next_sid + 1;
  s

(* Flows are spread round-robin over cores and their RX steered to the same
   core (Linux RFS / aRFS behaviour), which is what lets 8 flows use 8 vCPUs
   evenly (paper Figs 18–20). *)
let next_queue t =
  let q = t.next_queue mod ncores t in
  t.next_queue <- t.next_queue + 1;
  q

let unregister_endpoints t s =
  let unregister ~endpoint ~flow =
    (if endpoint then
       match s.local with
       | Some a -> Vswitch.unregister_endpoint t.vswitch a
       | None -> ());
    if flow then
      match (s.local, s.peer) with
      | Some l, Some p -> Vswitch.unregister_flow t.vswitch (Addr.Flow.make ~src:p ~dst:l)
      | _ -> ()
  in
  match s.kind with
  | Conn c -> unregister ~endpoint:c.c_endpoint_registered ~flow:c.c_flow_registered
  | Time_wait w -> unregister ~endpoint:w.tw_endpoint_registered ~flow:w.tw_flow_registered
  | Fresh | Sclosed -> ()
  | Listener l when l.l_endpoint_registered -> Vswitch.unregister_endpoint t.vswitch l.l_addr
  | Listener _ -> ()

let trace_transition t s old_state new_state =
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Tcp_state
         {
           stack = t.name;
           sock = s.sid;
           old_state = Tcb.state_to_string old_state;
           new_state = Tcb.state_to_string new_state;
         })

(* [Tcb.destroy] and the [on_destroy] below, in their order, for a
   TIME_WAIT record. *)
let close_time_wait t s w =
  if not w.tw_closed then begin
    w.tw_closed <- true;
    trace_transition t s Tcb.Time_wait Tcb.Closed;
    w.tw.Tcb.tw_release ();
    let flow = w.tw.Tcb.tw_flow in
    IT.Pair.remove t.conns (Addr.key flow.dst) (Addr.key flow.src);
    let rflow, isn = w.tw_registry_key in
    Conn_registry.remove t.registry ~flow:rflow ~isn;
    unregister_endpoints t s;
    notify t s
  end

(* [on_time_wait_end]: the TIME_WAIT expiry, for the record or for a TCB
   [settle] kept. *)
let time_wait_end t s =
  match s.kind with
  | Time_wait w -> close_time_wait t s w
  | Conn c -> Tcb.destroy_quiet c.tcb
  | Fresh | Listener _ | Sclosed -> ()

(* Build the TCB action record for a connection socket. [role] distinguishes
   the active opener (fires the connect continuation) from a passive one
   (feeds the listener's accept queue). *)
let make_actions t s ~(flow : Addr.Flow.t) ~role =
  let key_src = Addr.key flow.dst and key_dst = Addr.key flow.src in
  let get_conn () =
    match s.kind with Conn c -> Some c | Fresh | Listener _ | Time_wait _ | Sclosed -> None
  in
  let on_established () =
    (match get_conn () with
    | Some c when not c.established ->
        c.established <- true;
        Nkmon.Registry.incr t.ctr.c_conns_established
    | Some _ | None -> ());
    (match role with
    | `Active k -> k (Ok ())
    | `Passive lsock -> (
        match lsock.kind with
        | Listener l ->
            l.syn_count <- Int.max 0 (l.syn_count - 1);
            if Queue.is_empty l.accept_waiters then begin
              Queue.add s l.accept_q;
              notify t lsock
            end
            else begin
              let k = Queue.pop l.accept_waiters in
              let p = t.cfg.profile in
              Cpu.exec s.core
                ~cycles:(syscall_cycles t +. (p.accept_op *. rps_mult t))
                (fun () -> k (Ok s))
            end
        | Fresh | Conn _ | Time_wait _ | Sclosed -> ()));
    notify t s
  in
  let on_error err =
    (match get_conn () with
    | Some c ->
        if c.error = None then c.error <- Some err;
        if not c.established then begin
          Nkmon.Registry.incr t.ctr.c_conns_failed;
          match role with
          | `Active k -> k (Error err)
          | `Passive lsock -> (
              match lsock.kind with
              | Listener l -> l.syn_count <- Int.max 0 (l.syn_count - 1)
              | Fresh | Conn _ | Time_wait _ | Sclosed -> ())
        end
    | None -> ());
    notify t s
  in
  let on_destroy () =
    IT.Pair.remove t.conns key_src key_dst;
    (match get_conn () with
    | Some c ->
        let rflow, isn = c.registry_key in
        Conn_registry.remove t.registry ~flow:rflow ~isn
    | None -> ());
    unregister_endpoints t s;
    notify t s
  in
  {
    Tcb.now = (fun () -> Engine.now t.engine);
    emit = (fun seg -> emit t s seg);
    set_timer = (fun ~delay f -> Engine.schedule t.engine ~delay f);
    cancel_timer = t.cancel_timer;
    on_established;
    on_readable = (fun () -> notify t s);
    on_writable = (fun () -> notify t s);
    on_error;
    on_destroy;
    on_transition = (fun old_state new_state -> trace_transition t s old_state new_state);
    on_time_wait_end = (fun () -> time_wait_end t s);
  }

(* ---- SYN handling ------------------------------------------------------ *)

let handle_syn t (seg : Segment.t) =
  let dst = seg.Segment.flow.dst in
  match IT.find_opt t.listeners (Addr.key dst) with
  | None -> send_rst t seg
  | Some lsock -> (
      match lsock.kind with
      | Listener l ->
          let backlog = Int.min l.l_backlog t.cfg.profile.accept_backlog in
          if l.l_paused || l.syn_count + Queue.length l.accept_q >= backlog then
            (* Silent drop, exactly like backlog overflow: the client's SYN
               RTO retries, and a paused (migrating) listener's retry lands
               on the destination host once the cut re-points the route. *)
            Nkmon.Registry.incr t.ctr.c_syn_drops
          else begin
            match
              Conn_registry.lookup t.registry ~flow:seg.Segment.flow ~isn:seg.Segment.seq
            with
            | None ->
                (* No content channel: the SYN does not come from one of our
                   simulated stacks. Drop it. *)
                Nkmon.Registry.incr t.ctr.c_syn_drops
            | Some channel ->
                let flow = Addr.Flow.reverse seg.Segment.flow in
                let s = fresh_sock t ~qidx:(next_queue t) in
                s.local <- Some flow.src;
                s.peer <- Some flow.dst;
                l.syn_count <- l.syn_count + 1;
                let act = make_actions t s ~flow ~role:(`Passive lsock) in
                let isn = Nkutil.Rng.int t.rng Tcp_seq.modulus in
                let tcb =
                  Tcb.create_passive ~flow ~cfg:t.cfg.tcb ~act ~cc:(t.cfg.cc_factory ())
                    ~isn ~remote_isn:seg.Segment.seq ~remote_ts:seg.Segment.ts ~channel
                in
                let c =
                  {
                    tcb;
                    registry_key = (seg.Segment.flow, seg.Segment.seq);
                    established = false;
                    error = None;
                    c_endpoint_registered = false;
                    c_flow_registered = false;
                  }
                in
                s.kind <- Conn c;
                IT.Pair.replace t.conns (Addr.key seg.Segment.flow.src)
                  (Addr.key seg.Segment.flow.dst) s;
                if t.cfg.register_vswitch then begin
                  (* Pin the 4-tuple to this stack so the listener's
                     ⟨ip, port⟩ endpoint can move to another NSM without
                     stranding this established connection. *)
                  Vswitch.register_flow t.vswitch seg.Segment.flow t.self_input;
                  c.c_flow_registered <- true
                end
          end
      | Fresh | Conn _ | Time_wait _ | Sclosed -> send_rst t seg)

(* ---- RX path ------------------------------------------------------------ *)

let seg_rx_cycles t (seg : Segment.t) =
  let p = t.cfg.profile in
  if seg.Segment.syn && not seg.Segment.ack_flag then p.handshake *. rps_mult t
  else if seg.Segment.len = 0 then
    (* Pure ACKs, window updates, FINs: header-only processing. *)
    p.per_ack_rx *. tx_mult t
  else (p.per_chunk_rx +. (float_of_int seg.Segment.len *. p.per_byte_rx)) *. rx_mult t

(* Once a segment has put a connection into TIME_WAIT and [Tcb.input] is
   done with it, the socket keeps a [time_wait] record and drops the TCB:
   its CC, RTT estimator, queues, reassembly and action closures are
   garbage from then on, instead of at the expiry 2*MSL later. A TCB that
   still holds unread bytes or a persist timer stays whole.

   The owner's handler goes too. TIME_WAIT follows our FIN, which only
   [close] queues, so the owner has closed the socket, and both owners
   ignore it from then on: ServiceLib's handler returns at once once its
   sock is [closed], which it sets before closing, and Direct_socket's
   notifies an fd it has removed from its epoll table and never reuses. *)
let settle s c =
  match Tcb.time_wait c.tcb with
  | None -> ()
  | Some tw ->
      s.handler <- None;
      s.kind <-
        Time_wait
          {
            tw;
            tw_registry_key = c.registry_key;
            tw_endpoint_registered = c.c_endpoint_registered;
            tw_flow_registered = c.c_flow_registered;
            tw_eof_pending = Tcb.eof_pending c.tcb;
            tw_closed = false;
          }

let deliver t (seg : Segment.t) =
  Nkmon.Registry.add t.ctr.c_payload_rx seg.Segment.len;
  let flow = seg.Segment.flow in
  match IT.Pair.find t.conns (Addr.key flow.src) (Addr.key flow.dst) with
  | s -> (
      let fresh_syn = seg.Segment.syn && not seg.Segment.ack_flag in
      match s.kind with
      | Conn c ->
          if fresh_syn && Tcb.state c.tcb = Tcb.Time_wait then begin
            (* A fresh incarnation over a TIME_WAIT flow: replace it. *)
            Tcb.destroy_quiet c.tcb;
            handle_syn t seg
          end
          else begin
            Tcb.input c.tcb seg;
            settle s c
          end
      | Time_wait w ->
          (* The same, and [Tcb.input] in TIME_WAIT, on the record. *)
          if w.tw_closed then ()
          else if fresh_syn then begin
            close_time_wait t s w;
            handle_syn t seg
          end
          else if seg.Segment.rst then close_time_wait t s w
          else if seg.Segment.len > 0 || seg.Segment.fin then
            emit t s (Tcb.time_wait_ack w.tw ~now:(Engine.now t.engine))
      | Fresh | Listener _ | Sclosed -> send_rst t seg)
  | exception Not_found ->
      if seg.Segment.rst then ()
      else if seg.Segment.syn && not seg.Segment.ack_flag then handle_syn t seg
      else send_rst t seg

(* Process segments one at a time so ACKs leave as soon as each segment is
   handled (a per-batch barrier would stall the sender's ACK clock); the
   interrupt entry cost is charged once per [rx_batch] segments, modelling
   coalescing. *)
let rec drain_interrupt t qi =
  let q = t.rx.(qi) in
  let core = Cpu.Set.core t.cores qi in
  match Nkutil.Spsc_ring.pop q.ring with
  | None -> q.scheduled <- false
  | Some seg ->
      let interrupt_share =
        if q.batch_left <= 0 then begin
          q.batch_left <- t.cfg.profile.rx_batch;
          t.cfg.profile.interrupt
        end
        else 0.0
      in
      q.batch_left <- q.batch_left - 1;
      Nkspan.enter t.spans ~component:t.name ~stage:"rx";
      Cpu.exec core
        ~cycles:(interrupt_share +. seg_rx_cycles t seg)
        (fun () ->
          deliver t seg;
          drain_interrupt t qi);
      Nkspan.leave t.spans

let rec poll_loop t qi =
  let q = t.rx.(qi) in
  let core = Cpu.Set.core t.cores qi in
  let batch = Nkutil.Spsc_ring.pop_batch q.ring ~max:t.cfg.profile.rx_batch in
  match batch with
  | [] ->
      ignore
        (Engine.schedule t.engine ~delay:poll_idle_delay (fun () ->
             Nkspan.enter t.spans ~component:t.name ~stage:"poll";
             Cpu.exec core ~cycles:t.cfg.profile.poll_iter (fun () -> poll_loop t qi);
             Nkspan.leave t.spans))
  | segs ->
      let cycles =
        List.fold_left
          (fun acc seg -> acc +. seg_rx_cycles t seg)
          t.cfg.profile.poll_iter segs
      in
      Nkspan.enter t.spans ~component:t.name ~stage:"rx";
      Cpu.exec core ~cycles (fun () ->
          List.iter (deliver t) segs;
          poll_loop t qi);
      Nkspan.leave t.spans

let input t (seg : Segment.t) =
  Nkmon.Registry.incr t.ctr.c_segs_rx;
  let flow = seg.Segment.flow in
  let qi =
    match IT.Pair.find t.conns (Addr.key flow.src) (Addr.key flow.dst) with
    | s -> s.qidx
    | exception Not_found -> Addr.Flow.rss_hash flow mod ncores t
  in
  let q = t.rx.(qi) in
  if not (Nkutil.Spsc_ring.push q.ring seg) then
    Nkmon.Registry.incr t.ctr.c_rx_ring_drops
  else
    match t.cfg.rx_mode with
    | Polling -> () (* the per-core poll loop picks it up *)
    | Interrupt ->
        if not q.scheduled then begin
          q.scheduled <- true;
          ignore
            (Engine.schedule t.engine ~delay:interrupt_delay (fun () ->
                 drain_interrupt t qi))
        end

(* ---- construction ------------------------------------------------------- *)

let create ~engine ~name ~cores ~vswitch ~registry ~rng ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) cfg =
  let ctr =
    let c metric = Nkmon.counter mon ~component:"tcpstack" ~instance:name ~name:metric in
    {
      c_segs_rx = c "segs_rx";
      c_segs_tx = c "segs_tx";
      c_payload_rx = c "payload_rx";
      c_payload_tx = c "payload_tx";
      c_rx_ring_drops = c "rx_ring_drops";
      c_syn_drops = c "syn_drops";
      c_rst_tx = c "rst_tx";
      c_conns_established = c "conns_established";
      c_conns_failed = c "conns_failed";
    }
  in
  let n = Cpu.Set.n cores in
  let rx =
    Array.init n (fun _ ->
        { ring = Nkutil.Spsc_ring.create ~capacity:rx_ring_capacity; scheduled = false;
          batch_left = 0 })
  in
  let t =
    {
      engine;
      cancel_timer = Engine.Timer.cancel engine;
      name;
      cores;
      vswitch;
      registry;
      rng;
      cfg;
      ips = [];
      conns = IT.Pair.create 256;
      listeners = IT.create 16;
      rx;
      mon;
      spans;
      ctr;
      next_sid = 1;
      next_port = fst cfg.ephemeral_range;
      next_src_ip = 0;
      next_queue = 0;
      self_input = (fun _ -> ());
    }
  in
  t.self_input <- input t;
  (match cfg.rx_mode with
  | Interrupt -> ()
  | Polling -> Array.iteri (fun qi _ -> poll_loop t qi) rx);
  t

let add_ip t ip =
  if not (owns_ip t ip) then begin
    t.ips <- ip :: t.ips;
    if t.cfg.register_vswitch then Vswitch.register_ip t.vswitch ip t.self_input
  end

(* Release an IP this stack no longer serves (the VM it belonged to migrated
   to another host). Without this, in-flight segments for migrated flows
   would fall through to [send_rst] and reset the very connections the
   migration preserved. *)
let remove_ip t ip =
  if owns_ip t ip then begin
    t.ips <- List.filter (fun x -> x <> ip) t.ips;
    if t.cfg.register_vswitch then Vswitch.unregister_ip t.vswitch ip
  end

(* ---- socket operations --------------------------------------------------- *)

let socket t = fresh_sock t ~qidx:0

let local_addr _t s = s.local

let peer_addr _t s = s.peer

let sock_error _t s =
  match s.kind with
  | Conn c -> c.error
  | Sclosed -> Some Types.Eclosed
  | Fresh | Listener _ | Time_wait _ -> None

let sock_core _t s = s.core

let bind t s addr =
  match s.kind with
  | Fresh ->
      if IT.mem t.listeners (Addr.key addr) then Error Types.Eaddrinuse
      else begin
        s.local <- Some addr;
        Ok ()
      end
  | Listener _ | Conn _ | Time_wait _ | Sclosed -> Error Types.Einval

let listen t s ~backlog =
  match (s.kind, s.local) with
  | Fresh, Some addr ->
      if IT.mem t.listeners (Addr.key addr) then Error Types.Eaddrinuse
      else begin
        Cpu.charge s.core ~cycles:(syscall_cycles t +. t.cfg.profile.sockop);
        (* Register the exact endpoint even for owned IPs: several stacks
           (e.g. multiple NSMs serving one VM) may share an IP, and the
           vswitch endpoint table must disambiguate per port. *)
        let external_ip = t.cfg.register_vswitch in
        let l =
          {
            l_addr = addr;
            l_backlog = backlog;
            accept_q = Queue.create ();
            accept_waiters = Queue.create ();
            syn_count = 0;
            l_endpoint_registered = external_ip;
            l_paused = false;
          }
        in
        s.kind <- Listener l;
        IT.replace t.listeners (Addr.key addr) s;
        if external_ip then Vswitch.register_endpoint t.vswitch addr t.self_input;
        Ok ()
      end
  | Fresh, None -> Error Types.Einval
  | (Listener _ | Conn _ | Time_wait _ | Sclosed), _ -> Error Types.Einval

(* Migration quiesce: keep the listener serving in-flight handshakes and
   queued accepts, but silently drop fresh SYNs (their RTO retry finds the
   destination host). Irreversible by design — the socket is closed at the
   migration cut moments later. *)
let pause_listener _t s =
  match s.kind with
  | Listener l -> l.l_paused <- true
  | Fresh | Conn _ | Time_wait _ | Sclosed -> ()

let accept t s ~k =
  match s.kind with
  | Listener l ->
      if Queue.is_empty l.accept_q then Queue.add k l.accept_waiters
      else begin
        let cs = Queue.pop l.accept_q in
        let p = t.cfg.profile in
        Cpu.exec cs.core
          ~cycles:(syscall_cycles t +. (p.accept_op *. rps_mult t))
          (fun () -> k (Ok cs))
      end
  | Fresh | Conn _ | Time_wait _ | Sclosed -> k (Error Types.Einval)

let alloc_flow t ~src_ip ~dst =
  (* Find a free ephemeral port for (src_ip -> dst). *)
  let lo, hi = t.cfg.ephemeral_range in
  let rec loop attempts =
    if attempts > hi - lo + 1 then None
    else begin
      let port = t.next_port in
      t.next_port <- (if t.next_port >= hi then lo else t.next_port + 1);
      let src = Addr.make src_ip port in
      if IT.Pair.mem t.conns (Addr.key dst) (Addr.key src) then loop (attempts + 1)
      else Some (Addr.Flow.make ~src ~dst)
    end
  in
  loop 0

let pick_src_ip t s =
  match s.local with
  | Some a -> a.Addr.ip
  | None ->
      (* Rotate over owned IPs so heavy client workloads don't exhaust one
         IP's ephemeral ports. *)
      let n = List.length t.ips in
      if n = 0 then invalid_arg (t.name ^ ": no IP to connect from");
      let ip = List.nth t.ips (t.next_src_ip mod n) in
      t.next_src_ip <- t.next_src_ip + 1;
      ip

let connect t s dst ~k =
  match s.kind with
  | Fresh -> (
      let preset =
        (* A socket bound to an explicit ⟨ip, port⟩ connects from exactly
           there (mTCP-style per-core port selection relies on this). *)
        match s.local with
        | Some a when a.Addr.port <> 0 ->
            if IT.Pair.mem t.conns (Addr.key dst) (Addr.key a) then None
            else Some (Addr.Flow.make ~src:a ~dst)
        | Some _ | None ->
            let src_ip = pick_src_ip t s in
            alloc_flow t ~src_ip ~dst
      in
      match preset with
      | None -> k (Error Types.Eaddrinuse)
      | Some flow ->
          s.local <- Some flow.src;
          s.peer <- Some dst;
          s.qidx <- next_queue t;
          s.core <- Cpu.Set.core t.cores s.qidx;
          let p = t.cfg.profile in
          let cycles = syscall_cycles t +. (p.handshake *. rps_mult t /. 2.0) in
          Cpu.exec s.core ~cycles (fun () ->
              let fired = ref false in
              let k_once r =
                if not !fired then begin
                  fired := true;
                  k r
                end
              in
              let act = make_actions t s ~flow ~role:(`Active k_once) in
              let isn = Nkutil.Rng.int t.rng Tcp_seq.modulus in
              let channel = Conn_registry.register t.registry ~flow ~isn in
              let external_ip = t.cfg.register_vswitch in
              if external_ip then Vswitch.register_endpoint t.vswitch flow.src t.self_input;
              let tcb =
                Tcb.create_active ~flow ~cfg:t.cfg.tcb ~act ~cc:(t.cfg.cc_factory ()) ~isn
                  ~channel
              in
              s.kind <-
                Conn
                  {
                    tcb;
                    registry_key = (flow, isn);
                    established = false;
                    error = None;
                    c_endpoint_registered = external_ip;
                    c_flow_registered = false;
                  };
              IT.Pair.replace t.conns (Addr.key flow.dst) (Addr.key flow.src) s))
  | Listener _ | Conn _ | Time_wait _ | Sclosed -> k (Error Types.Einval)

(* On a TIME_WAIT record, [send], [recv] and [close] charge what they
   charge a TCB in TIME_WAIT, whose [write] and [close] do nothing and
   whose [read] has only the EOF to give. *)

let send t s payload ~k =
  match s.kind with
  | Sclosed -> k (Error Types.Eclosed)
  | Fresh | Listener _ -> k (Error Types.Enotconn)
  | Time_wait w ->
      let want = Types.payload_len payload in
      let accept = Int.min want w.tw.Tcb.tw_sndbuf in
      if accept = 0 && want > 0 then begin
        Cpu.charge s.core ~cycles:(syscall_cycles t);
        k (Error Types.Eclosed)
      end
      else
        Cpu.exec s.core
          ~cycles:(syscall_cycles t +. user_copy_cycles t accept)
          (fun () -> k (Error Types.Eclosed))
  | Conn c -> (
      match c.error with
      | Some e -> k (Error e)
      | None ->
          let want = Types.payload_len payload in
          let room = Tcb.sndbuf_available c.tcb in
          let accept = Int.min want room in
          if accept = 0 && want > 0 then begin
            Cpu.charge s.core ~cycles:(syscall_cycles t);
            if Tcb.writable c.tcb || Tcb.state c.tcb = Tcb.Established then
              k (Error Types.Eagain)
            else k (Error Types.Eclosed)
          end
          else begin
            let cycles = syscall_cycles t +. user_copy_cycles t accept in
            Cpu.exec s.core ~cycles (fun () ->
                let n = Tcb.write c.tcb payload in
                if n > 0 then k (Ok n)
                else if Tcb.state c.tcb = Tcb.Established || Tcb.state c.tcb = Tcb.Close_wait
                then k (Error Types.Eagain)
                else k (Error Types.Eclosed))
          end)

let recv t s ~max ~mode ~k =
  match s.kind with
  | Sclosed -> k (Error Types.Eclosed)
  | Fresh | Listener _ -> k (Error Types.Enotconn)
  | Time_wait w ->
      if not w.tw_eof_pending then begin
        Cpu.charge s.core ~cycles:(syscall_cycles t);
        k (Error Types.Eagain)
      end
      else
        Cpu.exec s.core
          ~cycles:(syscall_cycles t +. user_copy_cycles t (Int.min max 0))
          (fun () ->
            if w.tw_closed || not w.tw_eof_pending then k (Error Types.Eagain)
            else begin
              w.tw_eof_pending <- false;
              k (Ok (match mode with `Copy | `Auto -> Types.Data "" | `Discard -> Types.Zeros 0))
            end)
  | Conn c ->
      let avail = Tcb.readable_bytes c.tcb in
      if avail = 0 && not (Tcb.eof_pending c.tcb) then begin
        Cpu.charge s.core ~cycles:(syscall_cycles t);
        match c.error with Some e -> k (Error e) | None -> k (Error Types.Eagain)
      end
      else begin
        let n = Int.min max avail in
        let cycles = syscall_cycles t +. user_copy_cycles t n in
        Cpu.exec s.core ~cycles (fun () ->
            match Tcb.read c.tcb ~max ~mode with
            | Some payload -> k (Ok payload)
            | None -> k (Error Types.Eagain))
      end

let abort t s =
  match s.kind with
  | Conn c -> Tcb.abort c.tcb
  | Time_wait w ->
      if not w.tw_closed then begin
        emit t s (Tcb.time_wait_rst w.tw);
        close_time_wait t s w
      end
  | Fresh | Sclosed -> s.kind <- Sclosed
  | Listener _ -> ()

let close t s =
  match s.kind with
  | Fresh -> s.kind <- Sclosed
  | Sclosed -> ()
  | Listener l ->
      IT.remove t.listeners (Addr.key l.l_addr);
      if l.l_endpoint_registered then Vswitch.unregister_endpoint t.vswitch l.l_addr;
      Queue.iter (abort t) l.accept_q;
      Queue.iter (fun k -> k (Error Types.Eclosed)) l.accept_waiters;
      Queue.clear l.accept_q;
      Queue.clear l.accept_waiters;
      s.kind <- Sclosed
  | Conn c ->
      let p = t.cfg.profile in
      Cpu.exec s.core
        ~cycles:(syscall_cycles t +. (p.teardown *. rps_mult t))
        (fun () -> Tcb.close c.tcb)
  | Time_wait _ ->
      let p = t.cfg.profile in
      Cpu.exec s.core ~cycles:(syscall_cycles t +. (p.teardown *. rps_mult t)) ignore

let time_wait_conns t =
  IT.Pair.fold
    (fun _ _ s n ->
      match s.kind with
      | Time_wait _ -> n + 1
      | Conn c when Tcb.state c.tcb = Tcb.Time_wait -> n + 1
      | Fresh | Listener _ | Conn _ | Sclosed -> n)
    t.conns 0

(* ---- Connection export/import (live NSM migration) --------------------- *)

type export = {
  e_snapshot : Tcb.Snapshot.t;
  e_registry_flow : Addr.Flow.t; (* client -> server *)
  e_registry_isn : int;
  e_established : bool;
  e_endpoint_registered : bool;
  e_flow_registered : bool;
}

(* A connection in TIME_WAIT is not exported, whether a record or a whole
   TCB: its last 2*MSL runs out on this stack. *)
let export_conn t s =
  match s.kind with
  | Conn c when Tcb.state c.tcb <> Tcb.Closed && Tcb.state c.tcb <> Tcb.Time_wait ->
      let flow = Tcb.flow c.tcb in
      let rflow, isn = c.registry_key in
      let ex =
        {
          e_snapshot = Tcb.snapshot c.tcb;
          e_registry_flow = rflow;
          e_registry_isn = isn;
          e_established = c.established;
          e_endpoint_registered = c.c_endpoint_registered;
          e_flow_registered = c.c_flow_registered;
        }
      in
      (* Quiet teardown: the connection lives on at the destination, so no
         RST, no [on_destroy], and crucially no [Conn_registry.remove] —
         the content channel is the migrating flow's byte stream. *)
      Tcb.detach c.tcb;
      IT.Pair.remove t.conns (Addr.key flow.dst) (Addr.key flow.src);
      unregister_endpoints t s;
      s.kind <- Sclosed;
      Ok ex
  | Conn _ | Time_wait _ -> Error Types.Eclosed
  | Fresh | Listener _ | Sclosed -> Error Types.Enotconn

let import_conn t ex =
  match Conn_registry.lookup t.registry ~flow:ex.e_registry_flow ~isn:ex.e_registry_isn with
  | None ->
      (* The peer tore the channel down while the snapshot was in flight:
         nothing left to resume. *)
      Error Types.Econnreset
  | Some channel ->
      let flow = ex.e_snapshot.Tcb.Snapshot.s_flow in
      let role =
        (* The registry key is the client->server flow: when it matches the
           connection's own local->remote flow, this side is the active
           opener and writes [c2s]. *)
        let rflow = ex.e_registry_flow in
        if Addr.equal rflow.src flow.src && Addr.equal rflow.dst flow.dst then `Client
        else `Server
      in
      let s = fresh_sock t ~qidx:(next_queue t) in
      s.local <- Some flow.Addr.Flow.src;
      s.peer <- Some flow.Addr.Flow.dst;
      let act = make_actions t s ~flow ~role:(`Active (fun _ -> ())) in
      let tcb = Tcb.restore ~act ~cc:(t.cfg.cc_factory ()) ~channel ~role ex.e_snapshot in
      let c =
        {
          tcb;
          registry_key = (ex.e_registry_flow, ex.e_registry_isn);
          established = ex.e_established;
          error = None;
          c_endpoint_registered = false;
          c_flow_registered = false;
        }
      in
      s.kind <- Conn c;
      IT.Pair.replace t.conns (Addr.key flow.dst) (Addr.key flow.src) s;
      if t.cfg.register_vswitch then begin
        if ex.e_endpoint_registered then begin
          Vswitch.register_endpoint t.vswitch flow.Addr.Flow.src t.self_input;
          c.c_endpoint_registered <- true
        end;
        if ex.e_flow_registered then begin
          Vswitch.register_flow t.vswitch (Addr.Flow.reverse flow) t.self_input;
          c.c_flow_registered <- true
        end
      end;
      Ok s
