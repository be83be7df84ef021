module Cpu = Sim.Cpu
module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api
module Epoll_core = Tcpstack.Epoll_core
module Int_tbl = Nkutil.Int_tbl

type rx_chunk = { extent : Hugepages.extent; mutable off : int; synthetic : bool }

type gstate = Gfresh | Gconnecting | Gconnected | Glistening | Gclosed

type gsock = {
  gid : int;
  mutable qset : int;
  mutable state : gstate;
  mutable local : Addr.t option;
  mutable peer : Addr.t option;
  mutable backlog : int; (* remembered for listener re-homing *)
  mutable err : Types.err option;
  recvq : rx_chunk Queue.t;
  mutable recv_avail : int;
  mutable eof : bool;
  mutable eof_delivered : bool;
  mutable sendbuf_used : int;
  acceptq : (int * Addr.t) Queue.t;
  accept_waiters : ((Socket_api.sock * Addr.t, Types.err) result -> unit) Queue.t;
  mutable on_connect : ((unit, Types.err) result -> unit) option;
  mutable close_pending : bool;
}

type stats = {
  nqes_tx : int;
  nqes_rx : int;
  bytes_sent : int;
  bytes_received : int;
  send_eagain : int;
}

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_nqes_tx : Nkmon.Registry.counter;
  c_nqes_rx : Nkmon.Registry.counter;
  c_bytes_sent : Nkmon.Registry.counter;
  c_bytes_received : Nkmon.Registry.counter;
  c_send_eagain : Nkmon.Registry.counter;
}

type t = {
  vm_id : int;
  cores : Cpu.Set.t;
  device : Nk_device.t;
  profile : Sim.Cost_profile.t;
  socks : gsock Int_tbl.t;
  epoll : Epoll_core.t;
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string; (* "vm<id>", the span/metric component instance *)
  ctr : counters;
  mutable next_gid : int;
  tx : bytes; (* the slot every outbound NQE is written into, then posted *)
}

let stats t =
  let module R = Nkmon.Registry in
  {
    nqes_tx = R.counter_value t.ctr.c_nqes_tx;
    nqes_rx = R.counter_value t.ctr.c_nqes_rx;
    bytes_sent = R.counter_value t.ctr.c_bytes_sent;
    bytes_received = R.counter_value t.ctr.c_bytes_received;
    send_eagain = R.counter_value t.ctr.c_send_eagain;
  }

let core_for t gs = Cpu.Set.core t.cores gs.qset

let find t gid = Int_tbl.find_opt t.socks gid

(* ---- epoll plumbing ----------------------------------------------------- *)

(* What a closed (or never opened) socket reports. *)
let hup_only = { Types.readable = false; writable = false; hup = true }

let gsock_events gs =
  match gs.state with
  | Gfresh | Gconnecting -> Types.no_events
  | Gclosed -> hup_only
  | Glistening ->
      let hup = gs.err <> None in
      { Types.readable = (not (Queue.is_empty gs.acceptq)) || hup; writable = false; hup }
  | Gconnected ->
      let hup = gs.err <> None in
      {
        Types.readable = gs.recv_avail > 0 || (gs.eof && not gs.eof_delivered) || hup;
        writable = gs.sendbuf_used < Nk_costs.guest_sendbuf;
        hup;
      }

(* A socket with nothing queued, sent or received yet. *)
let new_gsock gid ~qset ~state ~local ~peer =
  {
    gid;
    qset;
    state;
    local;
    peer;
    backlog = 0;
    err = None;
    recvq = Queue.create ();
    recv_avail = 0;
    eof = false;
    eof_delivered = false;
    sendbuf_used = 0;
    acceptq = Queue.create ();
    accept_waiters = Queue.create ();
    on_connect = None;
    close_pending = false;
  }

(* ---- NQE posting -------------------------------------------------------- *)

(* Write the NQE into [t.tx] and post it on the socket's queue set. *)
let post t gs op ~op_data ~data_ptr ~size ~synthetic ~span =
  Nkmon.Registry.incr t.ctr.c_nqes_tx;
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_enqueue
         {
           device = Nk_device.id t.device;
           qset = gs.qset;
           queue = Queue_set.trace_queue (Queue_set.of_op op);
           op = Nqe.op_to_string op;
           vm_id = t.vm_id;
           sock = gs.gid;
         });
  Nqe.write t.tx ~pos:0 ~op ~vm_id:t.vm_id ~qset:gs.qset ~sock:gs.gid ~op_data ~data_ptr
    ~size ~synthetic ~span;
  Nk_device.post t.device ~qset:gs.qset t.tx 0

(* A control NQE: no payload, no span. *)
let post_ctl t gs op ~op_data =
  post t gs op ~op_data ~data_ptr:0 ~size:0 ~synthetic:false ~span:0

(* ---- inbound NQE processing ---------------------------------------------- *)

let free_send_extent t buf pos =
  Hugepages.free (Nk_device.hugepages t.device)
    { Hugepages.offset = Nqe.View.data_ptr buf pos; len = Nqe.View.size buf pos }

(* Apply the NQE at byte offset [pos] of [buf], reading its fields in
   place; nothing here keeps the slot. *)
let apply t buf pos =
  Nkmon.Registry.incr t.ctr.c_nqes_rx;
  let op = Nqe.View.op buf pos in
  let sock = Nqe.View.sock buf pos in
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_deliver
         {
           component = "guestlib";
           instance = Printf.sprintf "vm%d" t.vm_id;
           qset = Nqe.View.qset buf pos;
           op = Nqe.op_to_string op;
           vm_id = t.vm_id;
           sock;
         });
  let err = Nqe.err_of_code (Nqe.View.op_data buf pos) in
  match op with
  | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | gs ->
          (match err with Some e -> gs.err <- Some e | None -> ());
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Comp_connect -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | gs ->
          (match err with
          | None -> gs.state <- Gconnected
          | Some e ->
              gs.err <- Some e;
              gs.state <- Gclosed);
          (match gs.on_connect with
          | None -> ()
          | Some k ->
              gs.on_connect <- None;
              k (match err with None -> Ok () | Some e -> Error e));
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Comp_send -> (
      free_send_extent t buf pos;
      let span = Nqe.View.span buf pos in
      Nkspan.end_stage t.spans ~id:span "completion";
      Nkspan.finish t.spans ~id:span;
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | gs ->
          gs.sendbuf_used <- Int.max 0 (gs.sendbuf_used - Nqe.View.size buf pos);
          (match err with Some e -> gs.err <- Some e | None -> ());
          if gs.close_pending && gs.sendbuf_used = 0 then begin
            gs.close_pending <- false;
            post_ctl t gs Nqe.Close ~op_data:0
          end;
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Comp_close -> Int_tbl.remove t.socks sock
  | Nqe.Ev_accept -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | lsock when lsock.state = Glistening ->
          let gid = Nqe.View.size buf pos in
          let peer = Nqe.unpack_addr (Nqe.View.op_data buf pos) in
          (* The queue set the NSM named, or the socket's hash when it
             named none of this VM's. *)
          let qset =
            let hint = Nqe.View.qset buf pos in
            if hint < Cpu.Set.n t.cores then hint else Nk_device.hash_qset t.device gid
          in
          let gs =
            new_gsock gid ~qset ~state:Gconnected ~local:lsock.local ~peer:(Some peer)
          in
          Int_tbl.replace t.socks gid gs;
          if Queue.is_empty lsock.accept_waiters then begin
            Queue.add (gid, peer) lsock.acceptq;
            Epoll_core.notify t.epoll lsock.gid
          end
          else begin
            let k = Queue.pop lsock.accept_waiters in
            Cpu.exec (core_for t gs) ~cycles:Nk_costs.nk_syscall (fun () ->
                k (Ok (gid, peer)))
          end
      | _ -> ())
  | Nqe.Ev_data -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found ->
          (* Socket already closed locally: return the extent. *)
          free_send_extent t buf pos
      | gs ->
          let size = Nqe.View.size buf pos in
          Queue.add
            {
              extent = { Hugepages.offset = Nqe.View.data_ptr buf pos; len = size };
              off = 0;
              synthetic = Nqe.View.synthetic buf pos;
            }
            gs.recvq;
          gs.recv_avail <- gs.recv_avail + size;
          Nkmon.Registry.add t.ctr.c_bytes_received size;
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Ev_eof -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | gs ->
          gs.eof <- true;
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Ev_err -> (
      match Int_tbl.find t.socks sock with
      | exception Not_found -> ()
      | gs ->
          (match err with Some e -> gs.err <- Some e | None -> gs.err <- Some Types.Econnreset);
          let e = Option.value gs.err ~default:Types.Econnreset in
          (match gs.on_connect with
          | None -> ()
          | Some k ->
              gs.on_connect <- None;
              k (Error e));
          (* A dying listener must fail its parked accepts, not strand them. *)
          Queue.iter (fun k -> k (Error e)) gs.accept_waiters;
          Queue.clear gs.accept_waiters;
          Epoll_core.notify t.epoll gs.gid)
  | Nqe.Socket | Nqe.Bind | Nqe.Listen | Nqe.Connect | Nqe.Send | Nqe.Recv_done | Nqe.Close
    ->
      (* VM-bound queues never carry VM-to-NSM ops. *)
      ()

(* ---- API ------------------------------------------------------------------ *)

let alloc_gsock t =
  let gid = t.next_gid in
  t.next_gid <- t.next_gid + 1;
  new_gsock gid
    ~qset:(Nk_device.hash_qset t.device gid)
    ~state:Gfresh ~local:None ~peer:None

let control_cycles = Nk_costs.nk_syscall +. Nk_costs.nqe_encode

let api t =
  let socket () =
    let gs = alloc_gsock t in
    Int_tbl.replace t.socks gs.gid gs;
    Cpu.charge (core_for t gs) ~cycles:control_cycles;
    post_ctl t gs Nqe.Socket ~op_data:0;
    Ok gs.gid
  in
  let bind gid addr =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> Error Types.Einval
    | gs ->
        gs.local <- Some addr;
        Cpu.charge (core_for t gs) ~cycles:control_cycles;
        post_ctl t gs Nqe.Bind ~op_data:(Nqe.pack_addr addr);
        Ok ()
  in
  let listen gid ~backlog =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> Error Types.Einval
    | gs -> (
        match gs.local with
        | None -> Error Types.Einval
        | Some _ ->
            gs.state <- Glistening;
            gs.backlog <- backlog;
            Cpu.charge (core_for t gs) ~cycles:control_cycles;
            post_ctl t gs Nqe.Listen ~op_data:backlog;
            Ok ())
  in
  let accept gid ~k =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> k (Error Types.Einval)
    | gs when gs.state = Glistening && gs.err <> None ->
        k (Error (Option.value gs.err ~default:Types.Econnreset))
    | gs when gs.state = Glistening ->
        if Queue.is_empty gs.acceptq then Queue.add k gs.accept_waiters
        else begin
          let cgid, peer = Queue.pop gs.acceptq in
          Cpu.exec (core_for t gs) ~cycles:control_cycles (fun () -> k (Ok (cgid, peer)))
        end
    | _ -> k (Error Types.Einval)
  in
  let connect gid dst ~k =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> k (Error Types.Einval)
    | gs when gs.state = Gfresh ->
        gs.state <- Gconnecting;
        gs.peer <- Some dst;
        gs.on_connect <- Some k;
        Cpu.charge (core_for t gs) ~cycles:control_cycles;
        post_ctl t gs Nqe.Connect ~op_data:(Nqe.pack_addr dst)
    | _ -> k (Error Types.Einval)
  in
  let send gid payload ~k =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> k (Error Types.Eclosed)
    | gs -> (
        match (gs.state, gs.err) with
        | _, Some e -> k (Error e)
        | Gconnected, None -> (
            let want = Types.payload_len payload in
            let room = Nk_costs.guest_sendbuf - gs.sendbuf_used in
            let n = Int.min want room in
            if n <= 0 then begin
              Nkmon.Registry.incr t.ctr.c_send_eagain;
              Cpu.charge (core_for t gs) ~cycles:Nk_costs.nk_syscall;
              k (Error Types.Eagain)
            end
            else
              match Hugepages.alloc (Nk_device.hugepages t.device) n with
              | None ->
                  Nkmon.Registry.incr t.ctr.c_send_eagain;
                  Cpu.charge (core_for t gs) ~cycles:Nk_costs.nk_syscall;
                  k (Error Types.Eagain)
              | Some extent ->
                  let synthetic =
                    match payload with Types.Zeros _ -> true | Types.Data _ -> false
                  in
                  let cycles =
                    Nk_costs.nk_syscall +. Nk_costs.nqe_encode
                    +. Nk_costs.hugepage_alloc
                    +. (float_of_int n *. t.profile.Sim.Cost_profile.per_byte_user_copy)
                  in
                  gs.sendbuf_used <- gs.sendbuf_used + n;
                  (* Span birth: the request is stamped here and the span id
                     rides the NQE through the whole datapath. *)
                  let span = Nkspan.sample t.spans ~vm:t.instance in
                  Nkspan.begin_stage t.spans ~id:span ~component:t.instance "guestlib";
                  Nkspan.enter t.spans ~component:t.instance ~stage:"send";
                  Cpu.exec (core_for t gs) ~cycles (fun () ->
                      (match payload with
                      | Types.Data s ->
                          Hugepages.write_prefix (Nk_device.hugepages t.device) extent s
                      | Types.Zeros _ -> ());
                      Nkmon.Registry.add t.ctr.c_bytes_sent n;
                      Nkspan.end_stage t.spans ~id:span "guestlib";
                      post t gs Nqe.Send ~op_data:0 ~data_ptr:extent.Hugepages.offset ~size:n
                        ~synthetic ~span;
                      k (Ok n));
                  Nkspan.leave t.spans)
        | (Gfresh | Gconnecting | Glistening | Gclosed), None -> k (Error Types.Enotconn))
  in
  let recv gid ~max ~mode ~k =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> k (Error Types.Eclosed)
    | gs ->
        if gs.recv_avail > 0 && max > 0 then begin
          (* Charge an estimate now; the chunk state is re-read at execution
             time because concurrent recv calls may race on this socket. *)
          let est = Int.min max gs.recv_avail in
          let cycles =
            Nk_costs.nk_syscall +. Nk_costs.nqe_encode
            +. (float_of_int est *. t.profile.Sim.Cost_profile.per_byte_user_copy)
          in
          Cpu.exec (core_for t gs) ~cycles (fun () ->
              match Queue.peek_opt gs.recvq with
              | None ->
                  if gs.eof && not gs.eof_delivered then begin
                    gs.eof_delivered <- true;
                    k (Ok (match mode with
                          | `Discard -> Types.Zeros 0
                          | `Copy | `Auto -> Types.Data ""))
                  end
                  else k (Error Types.Eagain)
              | Some chunk ->
                  let n = Int.min max (chunk.extent.Hugepages.len - chunk.off) in
                  let finished = chunk.off + n = chunk.extent.Hugepages.len in
                  let payload =
                    match mode with
                    | `Discard -> Types.Zeros n
                    | `Copy | `Auto ->
                        Hugepages.read_payload (Nk_device.hugepages t.device) chunk.extent
                          ~pos:chunk.off ~len:n ~synthetic:chunk.synthetic
                  in
                  chunk.off <- chunk.off + n;
                  gs.recv_avail <- gs.recv_avail - n;
                  if finished then begin
                    Hugepages.free (Nk_device.hugepages t.device) chunk.extent;
                    ignore (Queue.pop gs.recvq)
                  end;
                  (* Return the receive credit to the NSM. *)
                  post t gs Nqe.Recv_done ~op_data:0 ~data_ptr:0 ~size:n ~synthetic:false
                    ~span:0;
                  k (Ok payload))
        end
        else if gs.eof && not gs.eof_delivered then begin
          gs.eof_delivered <- true;
          k (Ok (match mode with `Discard -> Types.Zeros 0 | `Copy | `Auto -> Types.Data ""))
        end
        else begin
          Cpu.charge (core_for t gs) ~cycles:Nk_costs.nk_syscall;
          match gs.err with Some e -> k (Error e) | None -> k (Error Types.Eagain)
        end
  in
  let close gid =
    match Int_tbl.find t.socks gid with
    | exception Not_found -> ()
    | gs ->
        Cpu.charge (core_for t gs) ~cycles:control_cycles;
        (* Free any unread receive extents; the NSM stops delivering after
           the close NQE. *)
        Queue.iter
          (fun chunk -> Hugepages.free (Nk_device.hugepages t.device) chunk.extent)
          gs.recvq;
        Queue.clear gs.recvq;
        gs.recv_avail <- 0;
        Queue.iter (fun k -> k (Error Types.Eclosed)) gs.accept_waiters;
        Queue.clear gs.accept_waiters;
        gs.state <- Gclosed;
        (* Job and send queues have no mutual ordering; defer the close NQE
           until every in-flight send has been acknowledged so it cannot
           overtake data. *)
        if gs.sendbuf_used > 0 then gs.close_pending <- true
        else post_ctl t gs Nqe.Close ~op_data:0;
        Epoll_core.remove t.epoll gid
  in
  let local_addr gid = Option.bind (find t gid) (fun gs -> gs.local) in
  let peer_addr gid = Option.bind (find t gid) (fun gs -> gs.peer) in
  {
    Socket_api.socket;
    bind;
    listen;
    accept;
    connect;
    send;
    recv;
    close;
    epoll_create = Epoll_core.epoll_create t.epoll;
    epoll_add = Epoll_core.epoll_add t.epoll;
    epoll_del = Epoll_core.epoll_del t.epoll;
    epoll_wait = Epoll_core.epoll_wait t.epoll;
    local_addr;
    peer_addr;
  }

(* ---- listener re-homing (control plane) --------------------------------- *)

let listening_socks t =
  Int_tbl.bindings t.socks
  |> List.filter_map (fun (gid, gs) -> if gs.state = Glistening then Some gid else None)

let remigrate_listeners t =
  List.iter
    (fun gid ->
      match find t gid with
      | Some gs when gs.state = Glistening -> (
          match gs.local with
          | None -> ()
          | Some addr ->
              (* The listener is being re-homed: its route was forgotten, so
                 replaying the socket/bind/listen NQEs re-runs NSM assignment
                 and re-registers the endpoint on the new NSM. A crash error
                 is wiped — the reborn listener starts clean. *)
              gs.err <- None;
              Cpu.charge (core_for t gs) ~cycles:(3.0 *. control_cycles);
              post_ctl t gs Nqe.Socket ~op_data:0;
              post_ctl t gs Nqe.Bind ~op_data:(Nqe.pack_addr addr);
              post_ctl t gs Nqe.Listen ~op_data:gs.backlog;
              Epoll_core.notify t.epoll gs.gid)
      | _ -> ())
    (listening_socks t)

let create ~engine ~vm_id ~cores ~device ~profile ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  let instance = Printf.sprintf "vm%d" vm_id in
  let c name = Nkmon.counter mon ~component:"guestlib" ~instance ~name in
  let socks = Int_tbl.create 256 in
  let epoll =
    Epoll_core.create ~engine
      ~events_of:(fun gid ->
        match Int_tbl.find socks gid with
        | gs -> gsock_events gs
        | exception Not_found -> hup_only)
      ~core_of:(fun gid ->
        match Int_tbl.find socks gid with
        | gs -> Cpu.Set.core cores gs.qset
        | exception Not_found -> Cpu.Set.core cores 0)
      ~wake_cycles:Nk_costs.guest_epoll_wake
  in
  let t =
    {
      vm_id;
      cores;
      device;
      profile;
      socks;
      epoll;
      mon;
      spans;
      instance;
      ctr =
        {
          c_nqes_tx = c "nqes_tx";
          c_nqes_rx = c "nqes_rx";
          c_bytes_sent = c "bytes_sent";
          c_bytes_received = c "bytes_received";
          c_send_eagain = c "send_eagain";
        };
      next_gid = 1;
      tx = Bytes.create Nqe.size_bytes;
    }
  in
  Nk_device.serve device ~cores ~component:instance (fun _ buf pos -> apply t buf pos);
  t
