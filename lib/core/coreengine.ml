module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Ring = Nqe_ring
module Types = Tcpstack.Types
module Int_tbl = Nkutil.Int_tbl

type route = { nsm_id : int; nsm_qset : int }

(* A parked NQE keeps its own copy of the 32 bytes (at offset 0): the
   sweep slot it came from is reused by the next sweep. *)
type deferred_entry =
  | To_nsm of bytes
  | To_vm of { src_nsm : int; src_qset : int; raw : bytes }

(* Per-VM FIFO of NQEs awaiting tokens or ring space; once non-empty all of
   that VM's traffic dispatched by the owning shard flows through it to
   preserve ordering. The per-direction pending counters are maintained on
   every enqueue/dequeue so the hot dispatch path never scans the queue to
   learn whether a direction is parked. *)
type dq = {
  entries : deferred_entry Queue.t;
  mutable to_vm_pending : int;
  mutable to_nsm_pending : int;
}

type stats = {
  switched : int;
  rate_deferred : int;
  ring_deferred : int;
  dropped : int;
  sweeps : int;
}

(* Live registry-backed counters; [stats] snapshots them. *)
type counters = {
  c_switched : Nkmon.Registry.counter;
  c_rate_deferred : Nkmon.Registry.counter;
  c_ring_deferred : Nkmon.Registry.counter;
  c_dropped : Nkmon.Registry.counter;
  c_sweeps : Nkmon.Registry.counter;
  c_error_completions : Nkmon.Registry.counter;
  c_xshard : Nkmon.Registry.counter;
}

(* One switching shard: its own polling core, run state, deferred queues and
   counters. Queue sets are assigned to shards by the deterministic affinity
   function [(dev_id + qset) mod n_shards], so every SPSC ring has exactly
   one consuming (outbound) / producing (inbound) shard. *)
type shard = {
  idx : int;
  sinstance : string; (* "ce" or "ce.shard<k>", also the span component *)
  cpu : Cpu.t;
  mutable running : bool;
  mutable release_scheduled : bool;
  deferred : dq Int_tbl.t; (* vm_id -> parked traffic *)
  ctr : counters;
  sweep_batch : Nkutil.Histogram.t;
  (* Reusable sweep work buffers: the popped NQEs as 32-byte slots of
     [sweep_buf], and each one's source in [sweep_src], packed into one
     int: -1 for VM-originated, else [(nsm_dev_id lsl 16) lor src_qset].
     Both double when a sweep takes more NQEs than they hold. Safe to
     reuse per shard: the deferred dispatch always runs before the next
     sweep of this shard ([running] stays true until a sweep comes back
     empty). *)
  mutable sweep_src : int array;
  mutable sweep_buf : bytes;
  mutable sweep_len : int;
  (* Where the shard writes the NQEs it synthesizes (error completions,
     crash resets) before delivering them by copy. *)
  reply : bytes;
  (* The shard's continuations, built once ([set_thunks]) so a kick, a
     sweep's switch and a release schedule no fresh closure. *)
  mutable poll_thunk : unit -> unit;
  mutable switch_thunk : unit -> unit;
  mutable release_thunk : unit -> unit;
}

type t = {
  engine : Engine.t;
  costs : Nk_costs.t;
  mutable shards : shard array;
  vms : Nk_device.t Int_tbl.t;
  nsms : Nk_device.t Int_tbl.t;
  mutable device_order : (Nk_device.t * [ `Vm | `Nsm ]) list;
  assignment : (int array * int ref) Int_tbl.t; (* vm_id -> nsms, rr *)
  conn_table : route Int_tbl.t; (* Nqe.conn_key of (vm_id, sock) -> route *)
  nsm_conns : int ref Int_tbl.t; (* nsm_id -> live table entries *)
  draining : unit Int_tbl.t; (* NSMs excluded from new assignments *)
  buckets : Nkutil.Token_bucket.t Int_tbl.t;
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string;
}

let make_counters mon ~instance =
  let c name = Nkmon.counter mon ~component:"coreengine" ~instance ~name in
  {
    c_switched = c "switched";
    c_rate_deferred = c "rate_deferred";
    c_ring_deferred = c "ring_deferred";
    c_dropped = c "dropped";
    c_sweeps = c "sweeps";
    c_error_completions = c "error_completions";
    c_xshard = c "xshard";
  }

(* A lone shard keeps the engine's base instance name (bit-compatible with
   the pre-sharding metric namespace); shards of a multi-core engine — and
   any shard added later by [scale_out] — report as [<instance>.shard<k>]. *)
let shard_instance ~instance ~solo idx =
  if solo then instance else Printf.sprintf "%s.shard%d" instance idx

let make_shard mon ~instance ~solo ~idx cpu =
  let instance = shard_instance ~instance ~solo idx in
  let sh =
    {
      idx;
      sinstance = instance;
      cpu;
      running = false;
      release_scheduled = false;
      deferred = Int_tbl.create 16;
      ctr = make_counters mon ~instance;
      sweep_batch =
        Nkmon.histogram mon ~component:"coreengine" ~instance ~name:"sweep_batch";
      sweep_src = Array.make 64 (-1);
      sweep_buf = Bytes.create (64 * Nqe.size_bytes);
      sweep_len = 0;
      reply = Bytes.create Nqe.size_bytes;
      poll_thunk = ignore;
      switch_thunk = ignore;
      release_thunk = ignore;
    }
  in
  (* Instantaneous parked-NQE depth across this shard's deferred queues:
     the CE-side backpressure signal the Nkobs ring-pressure alert reads.
     Evaluated only when a registry snapshot is taken. *)
  Nkmon.sampler mon ~component:"coreengine" ~instance ~name:"deferred_depth" (fun () ->
      float_of_int
        (Int_tbl.fold (fun _ dq acc -> acc + Queue.length dq.entries) sh.deferred 0));
  sh

let n_shards t = Array.length t.shards

(* Deterministic queue-set affinity: shard [(dev_id + qset) mod n_shards]
   owns device [dev_id]'s queue set [qset] — it alone pops the outbound
   rings of that queue set. VM and NSM id spaces overlap; that only spreads
   ownership, it never aliases a ring. *)
let owner_idx t ~dev_id ~qset = (dev_id + qset) mod Array.length t.shards

let owner_shard t dev qset =
  t.shards.(owner_idx t ~dev_id:(Nk_device.id dev) ~qset)

(* Per-VM global state (conn-table entries, assignment row, token bucket)
   is owned by the VM's home shard; other shards touching it pay the
   cross-shard cacheline cost. *)
let vm_home_idx t vm_id = vm_id mod Array.length t.shards

let vm_home_shard t vm_id = t.shards.(vm_home_idx t vm_id)

let charge_xshard (sh : shard) =
  Cpu.charge sh.cpu ~cycles:Nk_costs.ce_xshard;
  Nkmon.Registry.incr sh.ctr.c_xshard

let snapshot ctr =
  let module R = Nkmon.Registry in
  {
    switched = R.counter_value ctr.c_switched;
    rate_deferred = R.counter_value ctr.c_rate_deferred;
    ring_deferred = R.counter_value ctr.c_ring_deferred;
    dropped = R.counter_value ctr.c_dropped;
    sweeps = R.counter_value ctr.c_sweeps;
  }

let shard_stats t = Array.map (fun sh -> snapshot sh.ctr) t.shards

let stats t =
  Array.fold_left
    (fun acc sh ->
      let s = snapshot sh.ctr in
      {
        switched = acc.switched + s.switched;
        rate_deferred = acc.rate_deferred + s.rate_deferred;
        ring_deferred = acc.ring_deferred + s.ring_deferred;
        dropped = acc.dropped + s.dropped;
        sweeps = acc.sweeps + s.sweeps;
      })
    { switched = 0; rate_deferred = 0; ring_deferred = 0; dropped = 0; sweeps = 0 }
    t.shards

(* The trace names the NQE's ⟨vm, sock⟩ when its opcode is readable, else
   (-1, -1). *)
let drop (sh : shard) t buf pos reason =
  Nkmon.Registry.incr sh.ctr.c_dropped;
  if Nkmon.tracing t.mon then
    let ok = Nqe.View.ok buf pos in
    let vm_id = if ok then Nqe.View.vm_id buf pos else -1 in
    let sock = if ok then Nqe.View.sock buf pos else -1 in
    Nkmon.event t.mon (Nkmon.Trace.Nqe_drop { vm_id; sock; reason })

(* [dst_kind] ("vm" or "nsm") and [dst_id] name the destination device. *)
let switched (sh : shard) t buf pos dst_kind dst_id =
  (* The ce-switch stage opened when the owning shard popped the NQE; any
     deferral retries in between kept it open, so parked time counts as
     switching latency. *)
  Nkspan.end_stage t.spans ~id:(Nqe.View.span buf pos) "ce-switch";
  Nkmon.Registry.incr sh.ctr.c_switched;
  if Nkmon.tracing t.mon then
    Nkmon.event t.mon
      (Nkmon.Trace.Nqe_switch
         {
           vm_id = Nqe.View.vm_id buf pos;
           sock = Nqe.View.sock buf pos;
           op = Nqe.op_to_string (Nqe.View.op buf pos);
           dst = dst_kind ^ string_of_int dst_id;
         })

let conn_table_size t = Int_tbl.length t.conn_table

let dump_conn_table t =
  let buf = Buffer.create 256 in
  Int_tbl.iter
    (fun key r ->
      Buffer.add_string buf
        (Printf.sprintf "vm=%d sock=%d -> nsm=%d qset=%d\n" (Nqe.conn_key_vm key)
           (Nqe.conn_key_sock key) r.nsm_id r.nsm_qset))
    t.conn_table;
  Buffer.contents buf

(* All connection-table mutations go through these two so the per-NSM entry
   counts (the drain-completion signal) can never desynchronize. Mutations
   from a shard that is not the VM's home shard pay the cross-shard cost
   ([sh] is absent on control-plane paths, which run on no CE core). *)
let conn_counter t nsm_id =
  match Int_tbl.find t.nsm_conns nsm_id with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      (* Internal to the accessors: the cross-shard charge happened at the
         table_add/table_remove entry point. (* nkscope: ce-owner *) *)
      Int_tbl.replace t.nsm_conns nsm_id r;
      r

let table_add ?sh t key route =
  (match sh with
  | Some sh when vm_home_idx t (Nqe.conn_key_vm key) <> sh.idx -> charge_xshard sh
  | _ -> ());
  (match Int_tbl.find t.conn_table key with
  | prev -> decr (conn_counter t prev.nsm_id)
  | exception Not_found -> ());
  Int_tbl.replace t.conn_table key route;
  incr (conn_counter t route.nsm_id)

let table_remove ?sh t key =
  match Int_tbl.find t.conn_table key with
  | exception Not_found -> ()
  | r ->
      (match sh with
      | Some sh when vm_home_idx t (Nqe.conn_key_vm key) <> sh.idx -> charge_xshard sh
      | _ -> ());
      Int_tbl.remove t.conn_table key;
      decr (conn_counter t r.nsm_id)

let nsm_conn_count t ~nsm_id =
  match Int_tbl.find_opt t.nsm_conns nsm_id with Some r -> !r | None -> 0

let ctl_event t name detail =
  Nkmon.event t.mon (Nkmon.Trace.Custom { component = "coreengine"; name; detail })

let attach t ~vm_id ~nsm_ids =
  if nsm_ids = [] then invalid_arg "Coreengine.attach: need at least one NSM";
  Int_tbl.replace t.assignment vm_id (Array.of_list nsm_ids, ref 0)

let detach t ~vm_id ~nsm_id =
  match Int_tbl.find_opt t.assignment vm_id with
  | None -> ()
  | Some (nsms, _rr) ->
      let rest = List.filter (fun id -> id <> nsm_id) (Array.to_list nsms) in
      if List.length rest < Array.length nsms then begin
        if rest = [] then Int_tbl.remove t.assignment vm_id
        else Int_tbl.replace t.assignment vm_id (Array.of_list rest, ref 0);
        ctl_event t "detach" (Printf.sprintf "vm=%d nsm=%d" vm_id nsm_id)
      end

let drain_nsm t ~nsm_id =
  if not (Int_tbl.mem t.draining nsm_id) then begin
    Int_tbl.replace t.draining nsm_id ();
    ctl_event t "drain_nsm" (Printf.sprintf "nsm=%d conns=%d" nsm_id (nsm_conn_count t ~nsm_id))
  end

let forget_route t ~vm_id ~sock = table_remove t (Nqe.conn_key ~vm_id ~sock)

let add_route t ~vm_id ~sock ~nsm_id ~nsm_qset =
  table_add t (Nqe.conn_key ~vm_id ~sock) { nsm_id; nsm_qset }

let rehome_nsm_routes t ~from_nsm ~to_nsm =
  (* Re-point every route at [from_nsm] to [to_nsm], keeping queue-set
     targets (the replacement device must expose at least as many queue
     sets). Used by live migration: the stub device standing in for a
     departed NSM inherits its flows atomically. *)
  let moved =
    Int_tbl.fold
      (fun key r acc -> if r.nsm_id = from_nsm then (key, r.nsm_qset) :: acc else acc)
      t.conn_table []
  in
  List.iter
    (fun (key, qset) -> table_add t key { nsm_id = to_nsm; nsm_qset = qset })
    moved;
  ctl_event t "rehome"
    (Printf.sprintf "from_nsm=%d to_nsm=%d routes=%d" from_nsm to_nsm
       (List.length moved));
  List.length moved

let forget_vm_routes t ~vm_id ~nsm_id =
  (* Drop every route of [vm_id] still pointing at [nsm_id] so each affected
     socket's next NQE re-runs NSM assignment. The relay unwind (Nkfabric)
     needs this: a VM migrating back home still routes sockets its export
     does not cover (listeners, bare sockets) at the stand-in stub — left in
     place, their replayed NQEs would bounce home CE -> stub forever. *)
  let keys =
    Int_tbl.fold
      (fun key r acc ->
        if Nqe.conn_key_vm key = vm_id && r.nsm_id = nsm_id then key :: acc else acc)
      t.conn_table []
  in
  List.iter (table_remove t) keys;
  (* No routes matched (nothing pointed at [nsm_id], or a second call after
     the first already cleared them): a true no-op, including the trace — a
     spurious ctl event would make repeated unwinds non-idempotent in the
     Nkmon stream. *)
  if keys <> [] then
    ctl_event t "forget_vm_routes"
      (Printf.sprintf "vm=%d nsm=%d routes=%d" vm_id nsm_id (List.length keys));
  List.length keys

let set_rate_limit ?burst t ~vm_id ~bytes_per_sec =
  let burst = match burst with Some b -> b | None -> bytes_per_sec *. 0.05 in
  Int_tbl.replace t.buckets vm_id
    (Nkutil.Token_bucket.create ~rate:bytes_per_sec ~burst ~now:(Engine.now t.engine))

(* ---- switching --------------------------------------------------------- *)

(* Push an inbound NQE into [dev]'s queue set [qset] and wake the owner
   after [wake_latency]; false if the ring is full. A destination queue set
   owned by another shard is a cross-shard handoff and pays [ce_xshard] on
   the pushing shard. *)
let push_inbound t (sh : shard) dev ~qset buf pos =
  if owner_idx t ~dev_id:(Nk_device.id dev) ~qset <> sh.idx then charge_xshard sh;
  if Nk_device.push dev ~qset buf pos then begin
    Nk_device.wake dev t.engine ~qset ~delay:Nk_costs.wake_latency;
    true
  end
  else false

(* With SmartNIC offload only table misses consume CE cycles (§7.8): the
   hardware switches known connections by itself. *)
let charge_table_miss t (sh : shard) =
  if t.costs.Nk_costs.ce_hw_offload then
    Cpu.charge sh.cpu ~cycles:Nk_costs.ce_switch

let route_nsm_to_vm t (sh : shard) ~src_nsm ~src_qset buf pos =
  let vm_id = Nqe.View.vm_id buf pos in
  match Int_tbl.find t.vms vm_id with
  | exception Not_found ->
      drop sh t buf pos "vm_gone";
      true
  | dev ->
      let op = Nqe.View.op buf pos in
      let sock = Nqe.View.sock buf pos in
      (* An accept event introduces the new socket id (in the size field):
         it keys both the queue-set pick and the table entry. *)
      let table_sock = match op with Nqe.Ev_accept -> Nqe.View.size buf pos | _ -> sock in
      let qset =
        let q0 = Nqe.View.qset buf pos in
        if q0 < Nk_device.n_qsets dev then q0
        else begin
          let q = Nk_device.hash_qset dev table_sock in
          (* Complete the NQE with the chosen queue set before delivery. *)
          Nqe.View.set_qset buf pos q;
          q
        end
      in
      (* Keep the table complete for NSM-allocated sockets (paper step 4),
         pinned to the ServiceLib queue set that emitted the event, but never
         resurrect routes towards an NSM that has since departed (its
         parting completions are still in flight). *)
      let table_key = Nqe.conn_key ~vm_id ~sock:table_sock in
      if Int_tbl.mem t.nsms src_nsm && not (Int_tbl.mem t.conn_table table_key) then
        table_add ~sh t table_key { nsm_id = src_nsm; nsm_qset = src_qset };
      if op = Nqe.Comp_close then table_remove ~sh t (Nqe.conn_key ~vm_id ~sock);
      if push_inbound t sh dev ~qset buf pos then begin
        switched sh t buf pos "vm" vm_id;
        true
      end
      else false

let deferred_queue (sh : shard) vm_id =
  match Int_tbl.find sh.deferred vm_id with
  | q -> q
  | exception Not_found ->
      let q = { entries = Queue.create (); to_vm_pending = 0; to_nsm_pending = 0 } in
      Int_tbl.replace sh.deferred vm_id q;
      q

let dq_add (dq : dq) entry =
  Queue.add entry dq.entries;
  match entry with
  | To_vm _ -> dq.to_vm_pending <- dq.to_vm_pending + 1
  | To_nsm _ -> dq.to_nsm_pending <- dq.to_nsm_pending + 1

(* Drop the head entry (the caller just routed or discarded it). *)
let dq_pop_head (dq : dq) =
  match Queue.pop dq.entries with
  | To_vm _ -> dq.to_vm_pending <- dq.to_vm_pending - 1
  | To_nsm _ -> dq.to_nsm_pending <- dq.to_nsm_pending - 1

let rec schedule_release t (sh : shard) delay =
  if not sh.release_scheduled then begin
    sh.release_scheduled <- true;
    ignore (Engine.schedule t.engine ~delay sh.release_thunk)
  end

and drain_deferred t (sh : shard) =
  Nkspan.enter t.spans ~component:sh.sinstance ~stage:"drain";
  let next_delay = ref infinity in
  (* VM-id order: which VM's parked traffic gets tokens / ring space first
     must not depend on hash-bucket layout. *)
  Int_tbl.iter
    (fun vm_id dq ->
      let rec loop () =
        match Queue.peek_opt dq.entries with
        | None -> ()
        | Some entry -> (
            let raw =
              match entry with To_nsm raw -> raw | To_vm { raw; _ } -> raw
            in
            if not (Nqe.View.ok raw 0) then begin
              dq_pop_head dq;
              drop sh t raw 0 "decode";
              loop ()
            end
            else
              match entry with
              | To_vm { src_nsm; src_qset; _ } ->
                  if route_nsm_to_vm t sh ~src_nsm ~src_qset raw 0 then begin
                    dq_pop_head dq;
                    Cpu.charge sh.cpu ~cycles:Nk_costs.ce_switch;
                    loop ()
                  end
                  else
                    next_delay :=
                      Float.min !next_delay Nk_costs.ce_ring_release_delay
              | To_nsm _ ->
                  let tokens_ok =
                    match (Nqe.View.op raw 0, Int_tbl.find_opt t.buckets vm_id) with
                    | Nqe.Send, Some bucket ->
                        let now = Engine.now t.engine in
                        let need = float_of_int (Nqe.View.size raw 0) in
                        if Nkutil.Token_bucket.try_take bucket ~now need then true
                        else begin
                          next_delay :=
                            Float.min !next_delay
                              (Nkutil.Token_bucket.time_until bucket ~now need);
                          false
                        end
                    | _, _ -> true
                  in
                  if tokens_ok then
                    if route_vm_to_nsm t sh raw 0 then begin
                      dq_pop_head dq;
                      Cpu.charge sh.cpu ~cycles:Nk_costs.ce_switch;
                      loop ()
                    end
                    else
                      next_delay :=
                        Float.min !next_delay Nk_costs.ce_ring_release_delay)
      in
      loop ())
    sh.deferred;
  if !next_delay < infinity then schedule_release t sh (Float.max 1e-6 !next_delay);
  Nkspan.leave t.spans

(* Deliver a CE-synthesized NSM->VM NQE, parking a copy with the VM's
   deferred traffic when the inbound ring is full (same ordering rules as
   dispatch). *)
and deliver_to_vm t (sh : shard) ~src_nsm ~src_qset buf pos =
  let dq = deferred_queue sh (Nqe.View.vm_id buf pos) in
  if dq.to_vm_pending > 0 || not (route_nsm_to_vm t sh ~src_nsm ~src_qset buf pos)
  then begin
    dq_add dq (To_vm { src_nsm; src_qset; raw = Bytes.sub buf pos Nqe.size_bytes });
    schedule_release t sh Nk_costs.ce_ring_release_delay
  end

(* The socket's NSM is gone (crash or deregistration): complete the job NQE
   with an error instead of dropping it, so GuestLib never hangs on a reply
   that cannot come. Close acknowledges success — the socket is gone either
   way; Send keeps data_ptr/size so the VM reclaims the payload extent. The
   reply is written into the shard's [reply] slot. *)
and reply_error t (sh : shard) buf pos err =
  match Nqe.View.op buf pos with
  | Nqe.Socket -> write_reply t sh buf pos Nqe.Comp_socket err
  | Nqe.Bind -> write_reply t sh buf pos Nqe.Comp_bind err
  | Nqe.Listen -> write_reply t sh buf pos Nqe.Comp_listen err
  | Nqe.Connect -> write_reply t sh buf pos Nqe.Comp_connect err
  | Nqe.Send -> write_reply t sh buf pos Nqe.Comp_send err
  | Nqe.Close -> write_reply t sh buf pos Nqe.Comp_close err
  | _ -> ()

and write_reply t (sh : shard) buf pos op err =
  Nkmon.Registry.incr sh.ctr.c_error_completions;
  let op_data = if op = Nqe.Comp_close then Nqe.ok_code else Nqe.err_code err in
  Nqe.write sh.reply ~pos:0 ~op ~vm_id:(Nqe.View.vm_id buf pos) ~qset:(Nqe.View.qset buf pos)
    ~sock:(Nqe.View.sock buf pos) ~op_data ~data_ptr:(Nqe.View.data_ptr buf pos)
    ~size:(Nqe.View.size buf pos) ~synthetic:false ~span:(Nqe.View.span buf pos);
  deliver_to_vm t sh ~src_nsm:(-1) ~src_qset:0 sh.reply 0

and route_vm_to_nsm t (sh : shard) buf pos =
  let vm_id = Nqe.View.vm_id buf pos in
  let sock = Nqe.View.sock buf pos in
  let op = Nqe.View.op buf pos in
  let key = Nqe.conn_key ~vm_id ~sock in
  match Int_tbl.find t.conn_table key with
  | r -> (
      match Int_tbl.find t.nsms r.nsm_id with
      | exception Not_found ->
          table_remove ~sh t key;
          drop sh t buf pos "nsm_gone";
          reply_error t sh buf pos Types.Econnreset;
          true
      | dev ->
          if op = Nqe.Close then table_remove ~sh t key;
          if push_inbound t sh dev ~qset:r.nsm_qset buf pos then begin
            switched sh t buf pos "nsm" r.nsm_id;
            true
          end
          else false)
  | exception Not_found -> (
      (* First NQE of this socket: assign an NSM and a queue set, skipping
         NSMs that are draining or gone (falling back to the raw pick if
         nothing else is available, so a misconfigured drain-all still
         yields a deterministic error path). *)
      match Int_tbl.find t.assignment vm_id with
      | exception Not_found ->
          drop sh t buf pos "no_nsm_assignment";
          reply_error t sh buf pos Types.Econnreset;
          true
      | nsms, rr -> (
          charge_table_miss t sh;
          let n = Array.length nsms in
          let base = !rr in
          incr rr;
          let nsm_id =
            let rec pick i =
              if i >= n then nsms.(base mod n)
              else
                let cand = nsms.((base + i) mod n) in
                if Int_tbl.mem t.nsms cand && not (Int_tbl.mem t.draining cand) then cand
                else pick (i + 1)
            in
            pick 0
          in
          match Int_tbl.find t.nsms nsm_id with
          | exception Not_found ->
              drop sh t buf pos "nsm_gone";
              reply_error t sh buf pos Types.Econnreset;
              true
          | dev ->
              let nsm_qset = Nk_device.hash_qset dev sock in
              table_add ~sh t key { nsm_id; nsm_qset };
              if push_inbound t sh dev ~qset:nsm_qset buf pos then begin
                switched sh t buf pos "nsm" nsm_id;
                true
              end
              else false))

(* Pop up to [batch] NQEs from [ring] into [sh]'s reusable work buffers,
   tagged with [src]. *)
let take (sh : shard) ~batch src ring =
  let k = Int.min batch (Ring.length ring) in
  if k > 0 then begin
    let n = sh.sweep_len in
    let cap = Array.length sh.sweep_src in
    if n + k > cap then begin
      let rec size c = if c >= n + k then c else size (2 * c) in
      let cap' = size (2 * cap) in
      let src' = Array.make cap' (-1) and buf' = Bytes.create (cap' * Nqe.size_bytes) in
      Array.blit sh.sweep_src 0 src' 0 n;
      Bytes.blit sh.sweep_buf 0 buf' 0 (n * Nqe.size_bytes);
      sh.sweep_src <- src';
      sh.sweep_buf <- buf'
    end;
    ignore (Ring.pop_slice ring sh.sweep_buf ~slot:n ~max:k);
    Array.fill sh.sweep_src n k src;
    sh.sweep_len <- n + k
  end

(* One full sweep by shard [sh] over the queue sets it owns, popping at most
   [ce_batch] NQEs per outbound ring into the shard's reusable work
   buffers. Queue sets of the same devices owned by other shards are
   cross-kicked when they have pending outbound NQEs (e.g. overflow
   entries this shard just flushed into their rings).
   Sets [sh.sweep_len].
   Devices without outbound work are skipped, which is exact: visiting one
   would flush nothing, pop nothing and kick no shard. The walk is
   top-level recursion because, without flambda, every local function with
   free variables costs a closure each time it is defined. *)
let rec sweep t (sh : shard) =
  sh.sweep_len <- 0;
  sweep_devices t sh t.device_order

and sweep_devices t sh = function
  | [] -> ()
  | (dev, side) :: rest ->
      if Nk_device.has_outbound dev then sweep_device t sh dev side;
      sweep_devices t sh rest

and sweep_device t sh dev side =
  let dev_id = Nk_device.id dev in
  let nq = Nk_device.n_qsets dev in
  let owns_any = ref false in
  for i = 0 to nq - 1 do
    if owner_idx t ~dev_id ~qset:i = sh.idx then owns_any := true
  done;
  if !owns_any then begin
    let batch = t.costs.Nk_costs.ce_batch in
    Nk_device.flush_overflow dev;
    for i = 0 to nq - 1 do
      if owner_idx t ~dev_id ~qset:i = sh.idx then begin
        let s = Nk_device.qset dev i in
        match side with
        | `Vm ->
            take sh ~batch (-1) s.Queue_set.job;
            take sh ~batch (-1) s.Queue_set.send
        | `Nsm ->
            let src = (dev_id lsl 16) lor i in
            take sh ~batch src s.Queue_set.completion;
            take sh ~batch src s.Queue_set.receive
      end
      else if Nk_device.outbound_pending dev ~qset:i > 0 then
        kick_shard t t.shards.(owner_idx t ~dev_id ~qset:i)
    done
  end

(* Switch the NQE in sweep slot [i]; one that must wait is parked as a
   copy. *)
and dispatch t (sh : shard) src i =
  let buf = sh.sweep_buf and pos = i * Nqe.size_bytes in
  if not (Nqe.View.ok buf pos) then drop sh t buf pos "decode"
  else if src >= 0 then begin
    let src_nsm = src lsr 16 and src_qset = src land 0xFFFF in
    (* NSM->VM results must not jump ahead of deferred ones for the
       same VM, and a full VM ring parks them too. *)
    let dq = deferred_queue sh (Nqe.View.vm_id buf pos) in
    if dq.to_vm_pending > 0 || not (route_nsm_to_vm t sh ~src_nsm ~src_qset buf pos)
    then begin
      Nkmon.Registry.incr sh.ctr.c_ring_deferred;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon (Nkmon.Trace.Ring_defer { vm_id = Nqe.View.vm_id buf pos });
      dq_add dq (To_vm { src_nsm; src_qset; raw = Bytes.sub buf pos Nqe.size_bytes });
      schedule_release t sh Nk_costs.ce_ring_release_delay
    end
  end
  else begin
    let vm_id = Nqe.View.vm_id buf pos in
    let dq = deferred_queue sh vm_id in
    let must_defer =
      dq.to_nsm_pending > 0
      ||
      match Nqe.View.op buf pos with
      | Nqe.Send -> (
          match Int_tbl.find t.buckets vm_id with
          | bucket ->
              not
                (Nkutil.Token_bucket.try_take bucket ~now:(Engine.now t.engine)
                   (float_of_int (Nqe.View.size buf pos)))
          | exception Not_found -> false)
      | _ -> false
    in
    if must_defer then begin
      Nkmon.Registry.incr sh.ctr.c_rate_deferred;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon
          (Nkmon.Trace.Rate_limit_defer { vm_id; bytes = Nqe.View.size buf pos });
      dq_add dq (To_nsm (Bytes.sub buf pos Nqe.size_bytes));
      schedule_release t sh Nk_costs.ce_rate_recheck_delay
    end
    else if not (route_vm_to_nsm t sh buf pos) then begin
      Nkmon.Registry.incr sh.ctr.c_ring_deferred;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon (Nkmon.Trace.Ring_defer { vm_id });
      dq_add dq (To_nsm (Bytes.sub buf pos Nqe.size_bytes));
      schedule_release t sh Nk_costs.ce_ring_release_delay
    end
  end

and process t (sh : shard) =
  sweep t sh;
  let n = sh.sweep_len in
  if n = 0 then begin
    sh.running <- false;
    Nkspan.enter t.spans ~component:sh.sinstance ~stage:"poll";
    Cpu.charge sh.cpu ~cycles:Nk_costs.ce_poll_iter;
    Nkspan.leave t.spans
  end
  else begin
    Nkmon.Registry.incr sh.ctr.c_sweeps;
    Nkutil.Histogram.record sh.sweep_batch (float_of_int n);
    (* Traced NQEs enter this shard's switch here: the ce-switch stage
       runs from ring pop until [switched] delivers them (including any
       time parked in the deferred queues). *)
    if Nkspan.enabled t.spans then
      for i = 0 to n - 1 do
        let span = Nqe.View.span sh.sweep_buf (i * Nqe.size_bytes) in
        Nkspan.end_stage t.spans ~id:span "ring";
        Nkspan.begin_stage t.spans ~id:span ~component:sh.sinstance "ce-switch"
      done;
    let cycles =
      (* hardware-offloaded switching leaves only a residual descriptor
         cost on the CE core — no software queue sweeps either; table
         misses are charged where they occur *)
      if t.costs.Nk_costs.ce_hw_offload then 10.0 +. (float_of_int n *. 4.0)
      else Nk_costs.ce_poll_iter +. (float_of_int n *. Nk_costs.ce_switch)
    in
    Nkspan.enter t.spans ~component:sh.sinstance ~stage:"switch";
    Cpu.exec sh.cpu ~cycles sh.switch_thunk;
    Nkspan.leave t.spans
  end

(* The sweep's switch, run when its cycles are spent: the sweep slots stay
   untouched until then ([running] keeps every other sweep of the shard
   out). *)
and switch t (sh : shard) =
  for i = 0 to sh.sweep_len - 1 do
    dispatch t sh sh.sweep_src.(i) i
  done;
  process t sh

and kick_shard t (sh : shard) =
  if not sh.running then begin
    sh.running <- true;
    ignore (Engine.schedule t.engine ~delay:Nk_costs.ce_poll_latency sh.poll_thunk)
  end

let set_thunks t (sh : shard) =
  sh.poll_thunk <- (fun () -> process t sh);
  sh.switch_thunk <- (fun () -> switch t sh);
  sh.release_thunk <-
    (fun () ->
      sh.release_scheduled <- false;
      drain_deferred t sh)

let create ~engine ~cores ?(mon = Nkmon.null ()) ?(spans = Nkspan.null ())
    ?(instance = "ce") costs =
  let n = Array.length cores in
  if n = 0 then invalid_arg "Coreengine.create: need at least one CE core";
  let solo = n = 1 in
  let t =
    {
      engine;
      costs;
      shards = Array.mapi (fun idx cpu -> make_shard mon ~instance ~solo ~idx cpu) cores;
      vms = Int_tbl.create 16;
      nsms = Int_tbl.create 16;
      device_order = [];
      assignment = Int_tbl.create 16;
      conn_table = Int_tbl.create 1024;
      nsm_conns = Int_tbl.create 16;
      draining = Int_tbl.create 4;
      buckets = Int_tbl.create 16;
      mon;
      spans;
      instance;
    }
  in
  Array.iter (set_thunks t) t.shards;
  Nkmon.sampler mon ~component:"coreengine" ~instance ~name:"conn_table_size" (fun () ->
      float_of_int (Int_tbl.length t.conn_table));
  t

let kick t = Array.iter (fun sh -> kick_shard t sh) t.shards

(* Add fresh switching shards (CE scale-out): the affinity function is
   recomputed over the larger shard count, so queue-set ownership
   redistributes deterministically. Traffic already parked on an existing
   shard drains where it is (its release timers and the global tables are
   shard-agnostic); every shard is kicked so rings land with their new
   owners. *)
let scale_out t ~cores =
  if Array.length cores = 0 then invalid_arg "Coreengine.scale_out: need at least one core";
  let n0 = Array.length t.shards in
  let fresh =
    Array.mapi
      (fun i cpu -> make_shard t.mon ~instance:t.instance ~solo:false ~idx:(n0 + i) cpu)
      cores
  in
  Array.iter (set_thunks t) fresh;
  t.shards <- Array.append t.shards fresh;
  ctl_event t "scale_out"
    (Printf.sprintf "shards=%d->%d" n0 (Array.length t.shards));
  kick t

let register_common t dev side =
  Nk_device.set_kick_ce dev (fun qset -> kick_shard t (owner_shard t dev qset));
  t.device_order <- t.device_order @ [ (dev, side) ]

let register_vm t dev =
  Int_tbl.replace t.vms (Nk_device.id dev) dev;
  register_common t dev `Vm

let register_nsm t dev =
  Int_tbl.replace t.nsms (Nk_device.id dev) dev;
  register_common t dev `Nsm

let deregister_vm t ~vm_id =
  (match Int_tbl.find_opt t.vms vm_id with
  | None -> ()
  | Some dev ->
      t.device_order <-
        List.filter (fun (d, _) -> not (d == dev)) t.device_order);
  Int_tbl.remove t.vms vm_id;
  Int_tbl.remove t.assignment vm_id;
  Int_tbl.remove t.buckets vm_id;
  Array.iter (fun sh -> Int_tbl.remove sh.deferred vm_id) t.shards;
  let keys =
    Int_tbl.fold
      (fun key _ acc -> if Nqe.conn_key_vm key = vm_id then key :: acc else acc)
      t.conn_table []
  in
  List.iter (table_remove t) keys

let deregister_nsm t ~nsm_id =
  (match Int_tbl.find_opt t.nsms nsm_id with
  | None -> ()
  | Some dev ->
      t.device_order <-
        List.filter (fun (d, _) -> not (d == dev)) t.device_order);
  Int_tbl.remove t.nsms nsm_id;
  Int_tbl.remove t.draining nsm_id;
  (* Take it out of every VM's round-robin pool. *)
  let vms_using =
    Int_tbl.fold
      (fun vm_id (nsms, _) acc ->
        if Array.exists (fun id -> id = nsm_id) nsms then vm_id :: acc else acc)
      t.assignment []
  in
  List.iter (fun vm_id -> detach t ~vm_id ~nsm_id) vms_using;
  (* And forget its connection-table entries (satellite bugfix: a departed
     NSM used to leak them forever). *)
  let keys =
    Int_tbl.fold
      (fun key r acc -> if r.nsm_id = nsm_id then key :: acc else acc)
      t.conn_table []
  in
  List.iter (table_remove t) keys;
  Int_tbl.remove t.nsm_conns nsm_id;
  ctl_event t "deregister_nsm" (Printf.sprintf "nsm=%d" nsm_id)

let crash_nsm t ~nsm_id =
  let victims =
    (* Ascending ⟨vm,sock⟩ order: reset-event delivery order is part of the
       deterministic execution. *)
    Int_tbl.bindings t.conn_table
    |> List.filter_map (fun (key, r) -> if r.nsm_id = nsm_id then Some key else None)
  in
  deregister_nsm t ~nsm_id;
  (* Every socket the dead NSM served gets a reset event — an error, never
     a hang — so GuestLib can fail pending accepts/connects/reads. The
     synthesized event is injected on the VM's home shard. *)
  List.iter
    (fun key ->
      let vm_id = Nqe.conn_key_vm key in
      let sh = vm_home_shard t vm_id in
      Nqe.write sh.reply ~pos:0 ~op:Nqe.Ev_err ~vm_id ~qset:Nqe.qset_unassigned
        ~sock:(Nqe.conn_key_sock key) ~op_data:(Nqe.err_code Types.Econnreset) ~data_ptr:0
        ~size:0 ~synthetic:false ~span:0;
      deliver_to_vm t sh ~src_nsm:(-1) ~src_qset:0 sh.reply 0)
    victims;
  ctl_event t "crash_nsm" (Printf.sprintf "nsm=%d sockets=%d" nsm_id (List.length victims))
