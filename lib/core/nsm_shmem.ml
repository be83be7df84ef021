module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Types = Tcpstack.Types
module Int_tbl = Nkutil.Int_tbl

type vm_ctx = { vm_id : int; hugepages : Hugepages.t; mutable next_gid : int }

type pending = { extent : Hugepages.extent; synthetic : bool; pd_span : int }

type endpoint = {
  ep_vm : vm_ctx;
  ep_gid : int;
  mutable nsm_qset : int;
  mutable vm_qset : int;
  mutable peer : endpoint option;
  outbox : pending Queue.t; (* sent extents awaiting peer credit *)
  mutable credit_used : int; (* bytes delivered to this endpoint's VM *)
  mutable bound : Addr.t option;
  mutable closed : bool;
  mutable eof_sent : bool; (* we told this endpoint's VM about peer close *)
}

type listener = { l_vm : vm_ctx; l_gid : int; l_ep : endpoint }

(* Live registry-backed counters. *)
type counters = {
  c_bytes_copied : Nkmon.Registry.counter;
  c_conns : Nkmon.Registry.counter;
}

(* Cross-region memcpy cost, calibrated so a 2-core shared-memory NSM
   sustains ~100 Gb/s as in the paper's Fig 10. *)
let copy_cycles_per_byte = 0.3

type t = {
  engine : Engine.t;
  device : Nk_device.t;
  cores : Cpu.Set.t;
  vms : vm_ctx Int_tbl.t;
  socks : endpoint Int_tbl.t; (* Nqe.conn_key of (vm_id, gid) -> endpoint *)
  listeners : listener Int_tbl.t; (* keyed by [Addr.key] *)
  spans : Nkspan.t;
  instance : string;
  ctr : counters;
  mutable dead : bool; (* crashed: moves and posts nothing, ever again *)
  tx : bytes; (* the slot every reply NQE is written into, then posted *)
}

let register_vm t ~vm_id ~hugepages ~ips =
  ignore ips;
  Int_tbl.replace t.vms vm_id { vm_id; hugepages; next_gid = 1 }

(* ---- replies ------------------------------------------------------------- *)

(* Charge the encode, write the NQE into [t.tx] and post it on queue set
   [qset]. *)
let emit t ~qset op ~vm_id ~vm_qset ~sock ~op_data ~data_ptr ~size ~synthetic ~span =
  Cpu.charge (Cpu.Set.core t.cores qset) ~cycles:Nk_costs.nqe_encode;
  Nqe.write t.tx ~pos:0 ~op ~vm_id ~qset:vm_qset ~sock ~op_data ~data_ptr ~size ~synthetic
    ~span;
  Nk_device.post t.device ~qset t.tx 0

let post t (ep : endpoint) op ~op_data ~data_ptr ~size ~synthetic ~span =
  emit t ~qset:ep.nsm_qset op ~vm_id:ep.ep_vm.vm_id ~vm_qset:ep.vm_qset ~sock:ep.ep_gid
    ~op_data ~data_ptr ~size ~synthetic ~span

let post_result t ep op err =
  post t ep op
    ~op_data:(match err with None -> Nqe.ok_code | Some e -> Nqe.err_code e)
    ~data_ptr:0 ~size:0 ~synthetic:false ~span:0

(* Return a sent extent to its VM. *)
let post_comp_send t ep ~data_ptr ~size ~span =
  post t ep Nqe.Comp_send ~op_data:0 ~data_ptr ~size ~synthetic:false ~span

(* ---- data movement --------------------------------------------------------- *)

(* Move queued chunks from [src]'s outbox into [dst]'s VM while credit and
   hugepage space allow. *)
let rec drain t (src : endpoint) (dst : endpoint) =
  match Queue.peek_opt src.outbox with
  | None ->
      if src.closed && not dst.eof_sent then begin
        dst.eof_sent <- true;
        if not dst.closed then
          post t dst Nqe.Ev_eof ~op_data:0 ~data_ptr:0 ~size:0 ~synthetic:false ~span:0
      end
  | Some p ->
      if dst.closed then begin
        (* Peer is gone: return the extents to the sender. *)
        ignore (Queue.pop src.outbox);
        post_comp_send t src ~data_ptr:p.extent.Hugepages.offset
          ~size:p.extent.Hugepages.len ~span:p.pd_span;
        Nkspan.end_stage t.spans ~id:p.pd_span "servicelib";
        drain t src dst
      end
      else begin
        let len = p.extent.Hugepages.len in
        if dst.credit_used + len > Nk_costs.nsm_rwnd then ()
        else
          match Hugepages.alloc dst.ep_vm.hugepages len with
          | None ->
              (* Retry once the VM frees extents, unless the NSM has crashed
                 by then: its device no longer drains, so this retry is the
                 one way a dead NSM could still post. *)
              ignore
                (Engine.schedule t.engine ~delay:50e-6 (fun () ->
                     if not t.dead then drain t src dst))
          | Some dst_extent ->
              ignore (Queue.pop src.outbox);
              if not p.synthetic then
                Hugepages.blit_between ~src:src.ep_vm.hugepages ~src_extent:p.extent
                  ~dst:dst.ep_vm.hugepages ~dst_extent ~len;
              Cpu.charge
                (Cpu.Set.core t.cores dst.nsm_qset)
                ~cycles:(float_of_int len *. copy_cycles_per_byte);
              Nkmon.Registry.add t.ctr.c_bytes_copied len;
              dst.credit_used <- dst.credit_used + len;
              post t dst Nqe.Ev_data ~op_data:0 ~data_ptr:dst_extent.Hugepages.offset
                ~size:len ~synthetic:p.synthetic ~span:0;
              post_comp_send t src ~data_ptr:p.extent.Hugepages.offset ~size:len
                ~span:p.pd_span;
              Nkspan.end_stage t.spans ~id:p.pd_span "servicelib";
              drain t src dst
      end

(* ---- NQE dispatch ------------------------------------------------------------ *)

let fresh_endpoint vm ~gid ~nsm_qset ~vm_qset =
  {
    ep_vm = vm;
    ep_gid = gid;
    nsm_qset;
    vm_qset;
    peer = None;
    outbox = Queue.create ();
    credit_used = 0;
    bound = None;
    closed = false;
    eof_sent = false;
  }

(* The NQE's endpoint; a Socket NQE creates it. Raises [Not_found] for a
   socket this NSM never saw. *)
let lookup_or_create t vm ~op ~sock ~qset ~qset_idx =
  let key = Nqe.conn_key ~vm_id:vm.vm_id ~sock in
  match Int_tbl.find t.socks key with
  | ep ->
      ep.vm_qset <- qset;
      ep
  | exception Not_found ->
      if op <> Nqe.Socket then raise Not_found;
      let ep = fresh_endpoint vm ~gid:sock ~nsm_qset:qset_idx ~vm_qset:qset in
      Int_tbl.replace t.socks key ep;
      ep

(* Apply the NQE at byte offset [pos] of [buf], reading its fields in
   place; nothing here keeps the slot. *)
let apply t qset_idx buf pos =
  match Int_tbl.find t.vms (Nqe.View.vm_id buf pos) with
  | exception Not_found -> ()
  | vm -> (
      let op = Nqe.View.op buf pos in
      match
        lookup_or_create t vm ~op ~sock:(Nqe.View.sock buf pos) ~qset:(Nqe.View.qset buf pos)
          ~qset_idx
      with
      | exception Not_found -> ()
      | ep -> (
          match op with
          | Nqe.Socket -> post_result t ep Nqe.Comp_socket None
          | Nqe.Bind ->
              ep.bound <- Some (Nqe.unpack_addr (Nqe.View.op_data buf pos));
              post_result t ep Nqe.Comp_bind None
          | Nqe.Listen -> (
              match ep.bound with
              | None -> post_result t ep Nqe.Comp_listen (Some Types.Einval)
              | Some addr ->
                  Int_tbl.replace t.listeners (Addr.key addr)
                    { l_vm = vm; l_gid = ep.ep_gid; l_ep = ep };
                  post_result t ep Nqe.Comp_listen None)
          | Nqe.Connect -> (
              let dst = Nqe.unpack_addr (Nqe.View.op_data buf pos) in
              match Int_tbl.find_opt t.listeners (Addr.key dst) with
              | None -> post_result t ep Nqe.Comp_connect (Some Types.Econnrefused)
              | Some l ->
                  let sgid =
                    Nqe.nsm_sock_bit
                    lor (Nk_device.id t.device lsl 22)
                    lor (l.l_vm.next_gid land 0x3FFFFF)
                  in
                  l.l_vm.next_gid <- l.l_vm.next_gid + 1;
                  let server =
                    fresh_endpoint l.l_vm ~gid:sgid
                      ~nsm_qset:(Nk_device.hash_qset t.device sgid)
                      ~vm_qset:Nqe.qset_unassigned
                  in
                  Int_tbl.replace t.socks
                    (Nqe.conn_key ~vm_id:l.l_vm.vm_id ~sock:sgid)
                    server;
                  ep.peer <- Some server;
                  server.peer <- Some ep;
                  Nkmon.Registry.incr t.ctr.c_conns;
                  (* Announce the connection to the listener's VM. *)
                  emit t ~qset:server.nsm_qset Nqe.Ev_accept ~vm_id:l.l_vm.vm_id
                    ~vm_qset:Nqe.qset_unassigned ~sock:l.l_gid
                    ~op_data:
                      (Nqe.pack_addr
                         (match ep.bound with Some a -> a | None -> Addr.make vm.vm_id 0))
                    ~data_ptr:0 ~size:sgid ~synthetic:false ~span:0;
                  post_result t ep Nqe.Comp_connect None)
          | Nqe.Send -> (
              Queue.add
                {
                  extent =
                    { Hugepages.offset = Nqe.View.data_ptr buf pos; len = Nqe.View.size buf pos };
                  synthetic = Nqe.View.synthetic buf pos;
                  pd_span = Nqe.View.span buf pos;
                }
                ep.outbox;
              match ep.peer with Some peer -> drain t ep peer | None -> ())
          | Nqe.Recv_done -> (
              ep.credit_used <- Int.max 0 (ep.credit_used - Nqe.View.size buf pos);
              match ep.peer with Some peer -> drain t peer ep | None -> ())
          | Nqe.Close ->
              ep.closed <- true;
              (match ep.bound with
              | Some addr -> (
                  match Int_tbl.find_opt t.listeners (Addr.key addr) with
                  | Some l when l.l_gid = ep.ep_gid ->
                      Int_tbl.remove t.listeners (Addr.key addr)
                  | Some _ | None -> ())
              | None -> ());
              (match ep.peer with
              | Some peer ->
                  drain t ep peer;
                  (* Anything the peer still owes us can be dropped. *)
                  Queue.iter
                    (fun p ->
                      post_comp_send t peer ~data_ptr:p.extent.Hugepages.offset
                        ~size:p.extent.Hugepages.len ~span:p.pd_span;
                      Nkspan.end_stage t.spans ~id:p.pd_span "servicelib")
                    peer.outbox;
                  Queue.clear peer.outbox
              | None -> ());
              post_result t ep Nqe.Comp_close None;
              Int_tbl.remove t.socks (Nqe.conn_key ~vm_id:vm.vm_id ~sock:ep.ep_gid)
          | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect
          | Nqe.Comp_send | Nqe.Comp_close | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof
          | Nqe.Ev_err ->
              ()))

let create ~engine ~device ~cores ?(mon = Nkmon.null ()) ?(spans = Nkspan.null ()) () =
  let instance = Printf.sprintf "nsm%d" (Nk_device.id device) in
  let c name = Nkmon.counter mon ~component:"nsm_shmem" ~instance ~name in
  let t =
    {
      engine;
      device;
      cores;
      vms = Int_tbl.create 8;
      socks = Int_tbl.create 256;
      listeners = Int_tbl.create 16;
      spans;
      instance;
      ctr = { c_bytes_copied = c "bytes_copied"; c_conns = c "conns" };
      dead = false;
      tx = Bytes.create Nqe.size_bytes;
    }
  in
  Nk_device.serve device ~cores ~component:instance (apply t);
  t

let fail t = t.dead <- true
