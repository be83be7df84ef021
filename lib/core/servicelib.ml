module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Types = Tcpstack.Types
module Stack_ops = Tcpstack.Stack_ops
module Int_tbl = Nkutil.Int_tbl

type pending_send = {
  extent : Hugepages.extent;
  mutable off : int;
  p_synthetic : bool;
  p_span : int; (* span id echoed on the eventual Comp_send *)
}

type vm_ctx = {
  vm_id : int;
  hugepages : Hugepages.t;
  socks : ssock Int_tbl.t;
  mutable next_gid : int;
}

and ssock = {
  gid : int;
  vm : vm_ctx;
  mutable conn : Stack_ops.conn option;
  mutable listener : Stack_ops.listener option;
  mutable bound : Addr.t option;
  mutable vm_qset : int; (* VM-side queue set echoed in replies *)
  mutable nsm_qset : int; (* NSM-side queue set this sock is pinned to *)
  sendq : pending_send Queue.t;
  mutable send_pumping : bool;
  mutable recv_credit_used : int;
  mutable recv_pumping : bool;
  mutable closing : bool;
  mutable closed : bool;
  mutable eof_sent : bool;
  mutable err_sent : bool;
}

type stats = {
  nqes_rx : int;
  nqes_tx : int;
  bytes_to_stack : int;
  bytes_to_vm : int;
}

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_nqes_rx : Nkmon.Registry.counter;
  c_nqes_tx : Nkmon.Registry.counter;
  c_bytes_to_stack : Nkmon.Registry.counter;
  c_bytes_to_vm : Nkmon.Registry.counter;
}

type t = {
  engine : Engine.t;
  device : Nk_device.t;
  ops : Stack_ops.t;
  cores : Cpu.Set.t;
  costs : Nk_costs.t;
  pressure : Sim.Pressure.t;
  vms : vm_ctx Int_tbl.t;
  vm_forwarders : (bytes -> int -> unit) Int_tbl.t;
      (* per-VM hooks for NQEs that were drained before the VM migrated
         away but applied after; they ship to the destination NSM *)
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string;
  ctr : counters;
  mutable dead : bool; (* crashed: no NQEs in or out, ever again *)
  tx : bytes; (* the slot every reply NQE is written into, then posted *)
}

let stats t =
  let module R = Nkmon.Registry in
  {
    nqes_rx = R.counter_value t.ctr.c_nqes_rx;
    nqes_tx = R.counter_value t.ctr.c_nqes_tx;
    bytes_to_stack = R.counter_value t.ctr.c_bytes_to_stack;
    bytes_to_vm = R.counter_value t.ctr.c_bytes_to_vm;
  }

let core_index t core =
  let cores = Cpu.Set.cores t.cores in
  let rec loop i = if i >= Array.length cores then 0 else if cores.(i) == core then i else loop (i + 1) in
  loop 0

(* ---- NQE replies --------------------------------------------------------- *)

(* Charge the encode, write the NQE into [t.tx] and post it on queue set
   [qset]. *)
let emit t ~qset op ~vm_id ~vm_qset ~sock ~op_data ~data_ptr ~size ~synthetic ~span =
  Nkmon.Registry.incr t.ctr.c_nqes_tx;
  Cpu.charge (Cpu.Set.core t.cores qset) ~cycles:Nk_costs.nqe_encode;
  Nqe.write t.tx ~pos:0 ~op ~vm_id ~qset:vm_qset ~sock ~op_data ~data_ptr ~size ~synthetic
    ~span;
  Nk_device.post t.device ~qset t.tx 0

let post t (ss : ssock) op ~op_data ~data_ptr ~size ~synthetic ~span =
  if not t.dead then
    emit t ~qset:ss.nsm_qset op ~vm_id:ss.vm.vm_id ~vm_qset:ss.vm_qset ~sock:ss.gid ~op_data
      ~data_ptr ~size ~synthetic ~span

(* A result or event with no payload: only op_data. *)
let post_event t ss op ~op_data =
  post t ss op ~op_data ~data_ptr:0 ~size:0 ~synthetic:false ~span:0

let post_result t ss op err =
  post_event t ss op ~op_data:(match err with None -> Nqe.ok_code | Some e -> Nqe.err_code e)

(* Return a send extent to the VM. *)
let post_comp_send t ss ~data_ptr ~size ~span =
  post t ss Nqe.Comp_send ~op_data:0 ~data_ptr ~size ~synthetic:false ~span

(* ---- send path ------------------------------------------------------------ *)

let rec pump_send t ss =
  match ss.conn with
  | None -> ()
  | Some conn ->
      if not ss.send_pumping then begin
        ss.send_pumping <- true;
        (* ServiceLib busy-polls its queues (paper §4.5); picking up send
           work costs a poll iteration, not a kernel epoll wake. *)
        Cpu.charge (t.ops.Stack_ops.conn_core conn) ~cycles:Nk_costs.service_poll;
        let rec go () =
          match Queue.peek_opt ss.sendq with
          | None ->
              ss.send_pumping <- false;
              if ss.closing then finish_close t ss
          | Some p ->
              let len = p.extent.Hugepages.len - p.off in
              let payload =
                if p.p_synthetic then Types.Zeros len
                else
                  Hugepages.read_payload ss.vm.hugepages p.extent ~pos:p.off ~len
                    ~synthetic:false
              in
              (* The request crosses into the TCP stack here. Eagain leaves
                 the stack stage open, so time blocked on the send buffer
                 accrues to the stack, not ServiceLib. *)
              Nkspan.end_stage t.spans ~id:p.p_span "servicelib";
              Nkspan.begin_stage t.spans ~id:p.p_span ~component:t.instance "stack";
              t.ops.Stack_ops.send conn payload ~k:(fun r ->
                  match r with
                  | Ok n ->
                      Nkspan.end_stage t.spans ~id:p.p_span "stack";
                      Nkspan.begin_stage t.spans ~id:p.p_span ~component:t.instance
                        "servicelib";
                      (* The "extra copy" from hugepages into the NSM stack
                         (paper Table 6), charged with memory pressure. *)
                      Cpu.charge
                        (t.ops.Stack_ops.conn_core conn)
                        ~cycles:(Nk_costs.hugepage_copy_cycles t.costs t.pressure n);
                      Nkmon.Registry.add t.ctr.c_bytes_to_stack n;
                      p.off <- p.off + n;
                      if p.off >= p.extent.Hugepages.len then begin
                        ignore (Queue.pop ss.sendq);
                        post_comp_send t ss ~data_ptr:p.extent.Hugepages.offset
                          ~size:p.extent.Hugepages.len ~span:p.p_span;
                        Nkspan.end_stage t.spans ~id:p.p_span "servicelib"
                      end;
                      go ()
                  | Error Types.Eagain -> ss.send_pumping <- false
                  | Error _ ->
                      ss.send_pumping <- false;
                      flush_sendq t ss)
        in
        go ()
      end

(* Return all queued send extents to the VM (connection died). *)
and flush_sendq t ss =
  let rec loop () =
    match Queue.pop ss.sendq with
    | exception Queue.Empty -> ()
    | p ->
        post_comp_send t ss ~data_ptr:p.extent.Hugepages.offset
          ~size:p.extent.Hugepages.len ~span:p.p_span;
        loop ()
  in
  loop ()

and finish_close t ss =
  if not ss.closed then begin
    ss.closed <- true;
    (match ss.conn with Some conn -> t.ops.Stack_ops.close_conn conn | None -> ());
    (match ss.listener with Some l -> t.ops.Stack_ops.close_listener l | None -> ());
    post_result t ss Nqe.Comp_close None;
    Int_tbl.remove ss.vm.socks ss.gid
  end

(* ---- receive path ---------------------------------------------------------- *)

let rec pump_recv t ss =
  match ss.conn with
  | None -> ()
  | Some conn ->
      if (not ss.recv_pumping) && (not ss.closing) && not ss.closed then begin
        ss.recv_pumping <- true;
        Cpu.charge (t.ops.Stack_ops.conn_core conn)
          ~cycles:t.ops.Stack_ops.wake_cycles;
        let rec go () =
          let credit = Nk_costs.nsm_rwnd - ss.recv_credit_used in
          if credit <= 0 then ss.recv_pumping <- false
          else begin
            let max = Int.min 65536 credit in
            match Hugepages.alloc ss.vm.hugepages max with
            | None ->
                (* Hugepage pressure: retry once the VM frees extents. *)
                ss.recv_pumping <- false;
                ignore (Engine.schedule t.engine ~delay:50e-6 (fun () -> pump_recv t ss))
            | Some extent ->
                t.ops.Stack_ops.recv conn ~max ~mode:`Auto ~k:(fun r ->
                    match r with
                    | Ok payload when Types.payload_len payload = 0 ->
                        Hugepages.free ss.vm.hugepages extent;
                        if not ss.eof_sent then begin
                          ss.eof_sent <- true;
                          post_event t ss Nqe.Ev_eof ~op_data:0
                        end;
                        ss.recv_pumping <- false
                    | Ok payload ->
                        let n = Types.payload_len payload in
                        let synthetic =
                          match payload with Types.Zeros _ -> true | Types.Data _ -> false
                        in
                        Hugepages.write_payload ss.vm.hugepages extent payload;
                        Cpu.charge
                          (t.ops.Stack_ops.conn_core conn)
                          ~cycles:
                            (Nk_costs.hugepage_copy_cycles t.costs t.pressure n
                            +. Nk_costs.hugepage_alloc);
                        ss.recv_credit_used <- ss.recv_credit_used + n;
                        Nkmon.Registry.add t.ctr.c_bytes_to_vm n;
                        post t ss Nqe.Ev_data ~op_data:0 ~data_ptr:extent.Hugepages.offset
                          ~size:n ~synthetic ~span:0;
                        go ()
                    | Error Types.Eagain ->
                        Hugepages.free ss.vm.hugepages extent;
                        ss.recv_pumping <- false
                    | Error e ->
                        Hugepages.free ss.vm.hugepages extent;
                        ss.recv_pumping <- false;
                        if not ss.err_sent then begin
                          ss.err_sent <- true;
                          post_event t ss Nqe.Ev_err ~op_data:(Nqe.err_code e)
                        end)
          end
        in
        go ()
      end

(* ---- connection events ------------------------------------------------------ *)

let on_conn_event t ss (ev : Types.events) =
  if (not t.dead) && not ss.closed then begin
    if ev.Types.readable then pump_recv t ss;
    if ev.Types.writable then pump_send t ss;
    if ev.Types.hup then begin
      (match ss.conn with
      | Some conn -> (
          match t.ops.Stack_ops.conn_error conn with
          | Some e ->
              if not ss.err_sent then begin
                ss.err_sent <- true;
                flush_sendq t ss;
                post_event t ss Nqe.Ev_err ~op_data:(Nqe.err_code e)
              end
          | None -> ())
      | None -> ());
      (* Remaining in-order data (before a FIN) is still pumped above. *)
      if ev.Types.readable then () else pump_recv t ss
    end
  end

let wire_conn t ss conn =
  ss.conn <- Some conn;
  ss.nsm_qset <- core_index t (t.ops.Stack_ops.conn_core conn);
  t.ops.Stack_ops.set_conn_handler conn (fun ev -> on_conn_event t ss ev);
  pump_recv t ss

(* ---- accepting ---------------------------------------------------------------- *)

let fresh_ssock vm ~gid ~qset =
  {
    gid;
    vm;
    conn = None;
    listener = None;
    bound = None;
    vm_qset = qset;
    nsm_qset = 0;
    sendq = Queue.create ();
    send_pumping = false;
    recv_credit_used = 0;
    recv_pumping = false;
    closing = false;
    closed = false;
    eof_sent = false;
    err_sent = false;
  }

let on_accept t vm (lsock : ssock) conn ~peer =
  (* NSM-allocated ids carry the NSM id so several NSMs serving one VM
     never collide (bit 30 | nsm_id | counter). *)
  let gid =
    Nqe.nsm_sock_bit
    lor (Nk_device.id t.device lsl 22)
    lor (vm.next_gid land 0x3FFFFF)
  in
  vm.next_gid <- vm.next_gid + 1;
  let ss = fresh_ssock vm ~gid ~qset:Nqe.qset_unassigned in
  Int_tbl.replace vm.socks gid ss;
  wire_conn t ss conn;
  (* Announce the pipelined accept: the VM learns the new socket id through
     the size field, the peer address through op_data. *)
  emit t ~qset:ss.nsm_qset Nqe.Ev_accept ~vm_id:vm.vm_id ~vm_qset:Nqe.qset_unassigned
    ~sock:lsock.gid ~op_data:(Nqe.pack_addr peer) ~data_ptr:0 ~size:gid ~synthetic:false
    ~span:0

(* ---- NQE dispatch ---------------------------------------------------------------- *)

(* The NQE's socket; a Socket NQE creates it. Raises [Not_found] for a
   socket this NSM never saw. *)
let lookup_or_create vm ~op ~sock ~qset =
  match Int_tbl.find vm.socks sock with
  | ss ->
      ss.vm_qset <- qset;
      ss
  | exception Not_found ->
      if op <> Nqe.Socket then raise Not_found;
      let ss = fresh_ssock vm ~gid:sock ~qset in
      Int_tbl.replace vm.socks sock ss;
      ss

(* A socket this NSM never saw — e.g. an NQE re-routed here after the
   socket's original NSM crashed. Complete it with an error so the VM never
   waits on a reply that cannot come; the reply echoes data_ptr/size so
   GuestLib reclaims a Send's payload extent. *)
let reply_unknown t qset_idx buf pos op ~op_data =
  emit t ~qset:qset_idx op ~vm_id:(Nqe.View.vm_id buf pos) ~vm_qset:(Nqe.View.qset buf pos)
    ~sock:(Nqe.View.sock buf pos) ~op_data ~data_ptr:(Nqe.View.data_ptr buf pos)
    ~size:(Nqe.View.size buf pos) ~synthetic:false ~span:(Nqe.View.span buf pos)

(* Apply the NQE at byte offset [pos] of [buf], reading its fields in
   place; a forwarder that ships it copies it. *)
let apply t qset_idx buf pos =
  Nkmon.Registry.incr t.ctr.c_nqes_rx;
  let op = Nqe.View.op buf pos in
  let vm_id = Nqe.View.vm_id buf pos in
  let sock = Nqe.View.sock buf pos in
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_deliver
         {
           component = "servicelib";
           instance = t.instance;
           qset = qset_idx;
           op = Nqe.op_to_string op;
           vm_id;
           sock;
         });
  match Int_tbl.find t.vms vm_id with
  | exception Not_found -> (
      (* The VM migrated away between this NQE's drain and its apply (the
         scratch window): forward it to wherever the VM's stack now lives
         instead of dropping or error-replying. *)
      match Int_tbl.find t.vm_forwarders vm_id with
      | forward -> forward buf pos
      | exception Not_found -> ())
  | vm -> (
      match lookup_or_create vm ~op ~sock ~qset:(Nqe.View.qset buf pos) with
      | exception Not_found -> (
          match op with
          | Nqe.Send ->
              reply_unknown t qset_idx buf pos Nqe.Comp_send
                ~op_data:(Nqe.err_code Types.Econnreset)
          | Nqe.Close -> reply_unknown t qset_idx buf pos Nqe.Comp_close ~op_data:Nqe.ok_code
          | Nqe.Connect ->
              reply_unknown t qset_idx buf pos Nqe.Comp_connect
                ~op_data:(Nqe.err_code Types.Econnreset)
          | _ -> ())
      | ss -> (
          if ss.conn = None && ss.listener = None then ss.nsm_qset <- qset_idx;
          match op with
          | Nqe.Socket -> post_result t ss Nqe.Comp_socket None
          | Nqe.Bind ->
              ss.bound <- Some (Nqe.unpack_addr (Nqe.View.op_data buf pos));
              post_result t ss Nqe.Comp_bind None
          | Nqe.Listen -> (
              match ss.bound with
              | None -> post_result t ss Nqe.Comp_listen (Some Types.Einval)
              | Some addr -> (
                  match
                    t.ops.Stack_ops.new_listener ~addr
                      ~backlog:(Nqe.View.op_data buf pos)
                      ~on_accept:(fun conn ~peer -> on_accept t vm ss conn ~peer)
                  with
                  | Ok l ->
                      ss.listener <- Some l;
                      post_result t ss Nqe.Comp_listen None
                  | Error e -> post_result t ss Nqe.Comp_listen (Some e)))
          | Nqe.Connect ->
              let dst = Nqe.unpack_addr (Nqe.View.op_data buf pos) in
              t.ops.Stack_ops.connect ~dst ~k:(fun r ->
                  match r with
                  | Ok conn ->
                      if ss.closing || ss.closed then t.ops.Stack_ops.abort_conn conn
                      else begin
                        wire_conn t ss conn;
                        post_result t ss Nqe.Comp_connect None
                      end
                  | Error e -> post_result t ss Nqe.Comp_connect (Some e))
          | Nqe.Send ->
              Queue.add
                {
                  extent =
                    { Hugepages.offset = Nqe.View.data_ptr buf pos; len = Nqe.View.size buf pos };
                  off = 0;
                  p_synthetic = Nqe.View.synthetic buf pos;
                  p_span = Nqe.View.span buf pos;
                }
                ss.sendq;
              pump_send t ss
          | Nqe.Recv_done ->
              ss.recv_credit_used <- Int.max 0 (ss.recv_credit_used - Nqe.View.size buf pos);
              pump_recv t ss
          | Nqe.Close ->
              ss.closing <- true;
              if Queue.is_empty ss.sendq then finish_close t ss
          | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect
          | Nqe.Comp_send | Nqe.Comp_close | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof
          | Nqe.Ev_err ->
              (* NSM-bound queues never carry NSM-to-VM results. *)
              ()))

(* ---- construction -------------------------------------------------------------------- *)

let create ~engine ~device ~ops ~cores ~costs ~pressure ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  let instance = Printf.sprintf "nsm%d" (Nk_device.id device) in
  let c name = Nkmon.counter mon ~component:"servicelib" ~instance ~name in
  let t =
    {
      engine;
      device;
      ops;
      cores;
      costs;
      pressure;
      vms = Int_tbl.create 8;
      vm_forwarders = Int_tbl.create 4;
      mon;
      spans;
      instance;
      dead = false;
      tx = Bytes.create Nqe.size_bytes;
      ctr =
        {
          c_nqes_rx = c "nqes_rx";
          c_nqes_tx = c "nqes_tx";
          c_bytes_to_stack = c "bytes_to_stack";
          c_bytes_to_vm = c "bytes_to_vm";
        };
    }
  in
  Nk_device.serve device ~cores ~component:instance (apply t);
  t

let register_vm t ~vm_id ~hugepages ~ips =
  (* Idempotent: re-registering (e.g. a control-plane re-attach) must not
     wipe the VM's live sockets. *)
  if not (Int_tbl.mem t.vms vm_id) then
    Int_tbl.replace t.vms vm_id
      { vm_id; hugepages; socks = Int_tbl.create 256; next_gid = 1 };
  List.iter t.ops.Stack_ops.add_ip ips

(* Disown IPs whose VM migrated away: in-flight segments for its flows must
   fall through to the vswitch's silent drop rather than draw an RST from
   this stack at the peer (which would reset the very connections the
   migration preserved). *)
let release_ips t ips = List.iter t.ops.Stack_ops.remove_ip ips

let close_vm_listeners t ~vm_id =
  match Int_tbl.find_opt t.vms vm_id with
  | None -> ()
  | Some vm ->
      let listeners =
        Int_tbl.fold
          (fun gid ss acc ->
            match ss.listener with Some l -> (gid, ss, l) :: acc | None -> acc)
          vm.socks []
      in
      List.iter
        (fun (gid, ss, l) ->
          (* Silent close: the listener is moving to another NSM, the VM's
             socket stays listening. Established connections accepted here
             keep running — only the endpoint registration is released. *)
          t.ops.Stack_ops.close_listener l;
          ss.listener <- None;
          ss.closed <- true;
          Int_tbl.remove vm.socks gid)
        listeners

(* Migration quiesce: stop the VM's listeners from admitting fresh
   connections while in-flight handshakes finish and queued accepts drain,
   so the cut moments later finds nothing half-done to abort. Peers retry
   per their protocol's own recovery and land on the post-cut owner. *)
let quiesce_vm_listeners t ~vm_id =
  match Int_tbl.find_opt t.vms vm_id with
  | None -> ()
  | Some vm ->
      Int_tbl.iter
        (fun _ ss ->
          match ss.listener with
          | Some l -> t.ops.Stack_ops.quiesce_listener l
          | None -> ())
        vm.socks

let fail t =
  if not t.dead then begin
    t.dead <- true;
    (* Kill the stack state under every VM's sockets: aborts send RSTs so
       remote peers observe resets, exactly like a crashed middlebox. *)
    (* Abort order is externally visible (RSTs on the wire), so walk VMs
       and sockets in id order. *)
    Int_tbl.iter
      (fun _ vm ->
        Int_tbl.iter
          (fun _ ss ->
            (match ss.conn with
            | Some conn -> t.ops.Stack_ops.abort_conn conn
            | None -> ());
            match ss.listener with
            | Some l -> t.ops.Stack_ops.close_listener l
            | None -> ())
          vm.socks)
      t.vms;
    Int_tbl.reset t.vms
  end

(* ---- VM export/import (live NSM migration) ------------------------------ *)

type pending_export = {
  x_offset : int;
  x_len : int;
  x_off : int;
  x_synthetic : bool;
  x_span : int;
}

type sock_export = {
  x_gid : int;
  x_vm_qset : int;
  x_bound : Addr.t option;
  x_recv_credit_used : int;
  x_sendq : pending_export list;
  x_closing : bool;
  x_eof_sent : bool;
  x_err_sent : bool;
  x_conn : Stack_ops.export option;
}

type vm_export = { x_vm_id : int; x_next_gid : int; x_socks : sock_export list }

let set_vm_forwarder t ~vm_id forward = Int_tbl.replace t.vm_forwarders vm_id forward

let export_vm t ~vm_id =
  match Int_tbl.find_opt t.vms vm_id with
  | None -> None
  | Some vm ->
      let socks =
        Int_tbl.fold
          (fun gid ss acc ->
            if ss.closed then acc
            else
              match ss.listener with
              | Some l ->
                  (* Listeners are not serialized: the migration protocol
                     replays the VM's Socket/Bind/Listen sequence at the
                     destination ({!Guestlib.remigrate_listeners}), which
                     re-creates them there with fresh accept plumbing. *)
                  t.ops.Stack_ops.close_listener l;
                  ss.listener <- None;
                  ss.closed <- true;
                  acc
              | None -> (
                  let finish x_conn =
                    let was_eof = ss.eof_sent and was_err = ss.err_sent in
                    let sendq =
                      List.rev
                        (Queue.fold
                           (fun acc (p : pending_send) ->
                             {
                               x_offset = p.extent.Hugepages.offset;
                               x_len = p.extent.Hugepages.len;
                               x_off = p.off;
                               x_synthetic = p.p_synthetic;
                               x_span = p.p_span;
                             }
                             :: acc)
                           [] ss.sendq)
                    in
                    Queue.clear ss.sendq;
                    (* Gag the husk: callbacks already in flight (deferred
                       behind [Cpu.exec]) find a closed sock and post
                       nothing. *)
                    ss.closed <- true;
                    ss.eof_sent <- true;
                    ss.err_sent <- true;
                    {
                      x_gid = gid;
                      x_vm_qset = ss.vm_qset;
                      x_bound = ss.bound;
                      x_recv_credit_used = ss.recv_credit_used;
                      x_sendq = sendq;
                      x_closing = ss.closing;
                      x_eof_sent = was_eof;
                      x_err_sent = was_err;
                      x_conn;
                    }
                    :: acc
                  in
                  match ss.conn with
                  | None -> finish None
                  | Some conn -> (
                      match t.ops.Stack_ops.export_conn conn with
                      | Ok ex -> finish (Some ex)
                      | Error _ ->
                          (* Connection already dead on the stack side; its
                             error event was delivered (or never will be).
                             Nothing to move. *)
                          ss.closed <- true;
                          acc)))
          vm.socks []
      in
      let x = { x_vm_id = vm_id; x_next_gid = vm.next_gid; x_socks = List.rev socks } in
      Int_tbl.remove t.vms vm_id;
      Some x

let import_vm t (x : vm_export) ~hugepages ~ips =
  register_vm t ~vm_id:x.x_vm_id ~hugepages ~ips;
  match Int_tbl.find_opt t.vms x.x_vm_id with
  | None -> ()
  | Some vm ->
      vm.next_gid <- Int.max vm.next_gid x.x_next_gid;
      List.iter
        (fun sx ->
          let ss = fresh_ssock vm ~gid:sx.x_gid ~qset:sx.x_vm_qset in
          ss.bound <- sx.x_bound;
          ss.recv_credit_used <- sx.x_recv_credit_used;
          ss.closing <- sx.x_closing;
          ss.eof_sent <- sx.x_eof_sent;
          ss.err_sent <- sx.x_err_sent;
          List.iter
            (fun p ->
              Queue.add
                {
                  extent = { Hugepages.offset = p.x_offset; len = p.x_len };
                  off = p.x_off;
                  p_synthetic = p.x_synthetic;
                  p_span = p.x_span;
                }
                ss.sendq)
            sx.x_sendq;
          Int_tbl.replace vm.socks sx.x_gid ss;
          match sx.x_conn with
          | None -> ()
          | Some ex -> (
              match t.ops.Stack_ops.import_conn ex with
              | Ok conn ->
                  wire_conn t ss conn;
                  if not (Queue.is_empty ss.sendq) then pump_send t ss
              | Error e ->
                  (* The peer vanished while the snapshot was in flight:
                     surface it exactly like a reset on an owned conn. *)
                  if not ss.err_sent then begin
                    ss.err_sent <- true;
                    post_event t ss Nqe.Ev_err ~op_data:(Nqe.err_code e)
                  end))
        x.x_socks
