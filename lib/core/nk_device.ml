type role = Vm_side | Nsm_side

type overflow = { q : [ `Job | `Completion | `Send | `Receive ]; qset : int; nqe : bytes }

type t = {
  id : int;
  role : role;
  qsets : Queue_set.t array;
  hugepages : Hugepages.t;
  overflow : overflow Queue.t;
  (* Fire time of the last owner wake armed per queue set. A burst of
     deliveries from one CoreEngine callback all want a wake at the same
     instant; arming one is enough — the owner's budgeted poll drains the
     whole burst. Never cleared: the clock only moves forward, so a stale
     stamp can't equal a future fire time. *)
  wake_armed_at : float array;
  (* One preallocated kick-owner thunk per queue set, so arming a wake
     (millions per run) schedules a shared closure instead of building a
     fresh one each time. *)
  mutable wake_thunks : (unit -> unit) array;
  mutable kick_ce : (int -> unit) option;
  mutable kick_owner : (int -> unit) option;
  mon : Nkmon.t;
  spans : Nkspan.t;
  instance : string;
  c_posted : Nkmon.Registry.counter;
  c_ring_full : Nkmon.Registry.counter;
}

let create ~id ~role ~qsets ?capacity ~hugepages ?(mon = Nkmon.null ())
    ?(spans = Nkspan.null ()) () =
  if qsets < 1 then invalid_arg "Nk_device.create: need at least one queue set";
  let instance = Printf.sprintf "dev%d" id in
  let t =
    {
      id;
      role;
      qsets = Array.init qsets (fun _ -> Queue_set.create ?capacity ());
      hugepages;
      overflow = Queue.create ();
      wake_armed_at = Array.make qsets neg_infinity;
      wake_thunks = [||];
      kick_ce = None;
      kick_owner = None;
      mon;
      spans;
      instance;
      c_posted = Nkmon.counter mon ~component:"nk_device" ~instance ~name:"posted";
      c_ring_full = Nkmon.counter mon ~component:"nk_device" ~instance ~name:"ring_full";
    }
  in
  Nkmon.sampler mon ~component:"nk_device" ~instance ~name:"queued" (fun () ->
      float_of_int
        (Array.fold_left (fun acc s -> acc + Queue_set.total_queued s) 0 t.qsets
        + Queue.length t.overflow));
  t.wake_thunks <-
    Array.init qsets (fun i () -> match t.kick_owner with None -> () | Some f -> f i);
  t

let id t = t.id

let role t = t.role

let n_qsets t = Array.length t.qsets

let qset t i = t.qsets.(i)

let hugepages t = t.hugepages

let set_kick_ce t f = t.kick_ce <- Some f

let set_kick_owner t f = t.kick_owner <- Some f

let kick_owner t i = match t.kick_owner with None -> () | Some f -> f i

let wake_thunk t ~qset = t.wake_thunks.(qset)

let wake_armed_at t ~qset = t.wake_armed_at.(qset)

let set_wake_armed_at t ~qset at = t.wake_armed_at.(qset) <- at

let ring t ~qset q =
  let s = t.qsets.(qset) in
  match q with
  | `Job -> s.Queue_set.job
  | `Completion -> s.Queue_set.completion
  | `Send -> s.Queue_set.send
  | `Receive -> s.Queue_set.receive

(* Called for every post and every device a CoreEngine sweep visits, so it
   returns at once on an empty overflow and recurses at top level: without
   flambda a local loop would cost a closure per call. *)
let rec flush_overflow t =
  if not (Queue.is_empty t.overflow) then begin
    let o = Queue.peek t.overflow in
    if Nkutil.Spsc_ring.push (ring t ~qset:o.qset o.q) o.nqe then begin
      ignore (Queue.pop t.overflow);
      flush_overflow t
    end
  end

let trace_queue = function
  | `Job -> Nkmon.Trace.Job
  | `Completion -> Nkmon.Trace.Completion
  | `Send -> Nkmon.Trace.Send
  | `Receive -> Nkmon.Trace.Receive

let post t ~qset q nqe =
  flush_overflow t;
  Nkmon.Registry.incr t.c_posted;
  (* Device enqueue opens the ring stage of a traced request; whichever
     component dequeues it closes the stage, so ring time covers the SPSC
     wait plus any overflow spill. *)
  if Nkspan.enabled t.spans then begin
    let span = Nqe.span_of_raw nqe in
    if span > 0 then
      Nkspan.begin_stage t.spans ~id:span
        ~component:(t.instance ^ "." ^ Queue_set.queue_name q)
        "ring"
  end;
  if
    (not (Queue.is_empty t.overflow)) || not (Nkutil.Spsc_ring.push (ring t ~qset q) nqe)
  then begin
    Nkmon.Registry.incr t.c_ring_full;
    if Nkmon.tracing t.mon then
      Nkmon.event t.mon
        (Nkmon.Trace.Ring_full { device = t.id; qset; queue = trace_queue q });
    Queue.add { q; qset; nqe } t.overflow
  end;
  match t.kick_ce with None -> () | Some f -> f qset

let outbound_pending t ~qset =
  let s = t.qsets.(qset) in
  let ring_part =
    match t.role with
    | Vm_side ->
        Nkutil.Spsc_ring.length s.Queue_set.job + Nkutil.Spsc_ring.length s.Queue_set.send
    | Nsm_side ->
        Nkutil.Spsc_ring.length s.Queue_set.completion
        + Nkutil.Spsc_ring.length s.Queue_set.receive
  in
  ring_part + Queue.length t.overflow

(* Queue set [i] or a later one holds an NQE in a ring this device's owner
   produces. *)
let rec rings_outbound t i =
  i < Array.length t.qsets
  && (let s = t.qsets.(i) in
      (match t.role with
      | Vm_side ->
          not
            (Nkutil.Spsc_ring.is_empty s.Queue_set.job
            && Nkutil.Spsc_ring.is_empty s.Queue_set.send)
      | Nsm_side ->
          not
            (Nkutil.Spsc_ring.is_empty s.Queue_set.completion
            && Nkutil.Spsc_ring.is_empty s.Queue_set.receive))
      || rings_outbound t (i + 1))

let has_outbound t = (not (Queue.is_empty t.overflow)) || rings_outbound t 0
