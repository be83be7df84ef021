module Cpu = Sim.Cpu
module Engine = Sim.Engine
module Ring = Nqe_ring

type role = Vm_side | Nsm_side

(* A spilled NQE keeps its own copy of the 32 bytes: the producer reuses
   its buffer as soon as [post] returns. *)
type overflow = { q : [ `Job | `Completion | `Send | `Receive ]; qset : int; nqe : bytes }

type t = {
  id : int;
  role : role;
  qsets : Queue_set.t array;
  hugepages : Hugepages.t;
  overflow : overflow Queue.t;
  (* Fire time of the last owner wake armed per queue set ([wake]). Never
     cleared: the clock only moves forward, so a stale stamp can't equal a
     future fire time. *)
  wake_armed_at : float array;
  (* One preallocated kick-owner thunk per queue set, so arming a wake
     (millions per run) schedules a shared closure instead of building a
     fresh one each time. *)
  mutable wake_thunks : (unit -> unit) array;
  mutable kick_ce : (int -> unit) option;
  mutable kick_owner : (int -> unit) option;
  mutable serving : bool; (* cleared by [stop_serving] *)
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
      serving = true;
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

let n_qsets t = Array.length t.qsets

let qset t i = t.qsets.(i)

let hugepages t = t.hugepages

let set_kick_ce t f = t.kick_ce <- Some f

let set_kick_owner t f = t.kick_owner <- Some f

let hash_qset t key = key * 2654435761 land max_int mod Array.length t.qsets

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
    if Ring.push (ring t ~qset:o.qset o.q) o.nqe 0 then begin
      ignore (Queue.pop t.overflow);
      flush_overflow t
    end
  end

let post t ~qset buf pos =
  let q = Queue_set.of_op (Nqe.View.op buf pos) in
  flush_overflow t;
  Nkmon.Registry.incr t.c_posted;
  (* Device enqueue opens the ring stage of a traced request; whichever
     component dequeues it closes the stage, so ring time covers the SPSC
     wait plus any overflow spill. *)
  if Nkspan.enabled t.spans then begin
    let span = Nqe.View.span buf pos in
    if span > 0 then
      Nkspan.begin_stage t.spans ~id:span
        ~component:(t.instance ^ "." ^ Queue_set.queue_name q)
        "ring"
  end;
  if (not (Queue.is_empty t.overflow)) || not (Ring.push (ring t ~qset q) buf pos) then begin
    Nkmon.Registry.incr t.c_ring_full;
    if Nkmon.tracing t.mon then
      Nkmon.event t.mon
        (Nkmon.Trace.Ring_full { device = t.id; qset; queue = Queue_set.trace_queue q });
    Queue.add { q; qset; nqe = Bytes.sub buf pos Nqe.size_bytes } t.overflow
  end;
  match t.kick_ce with None -> () | Some f -> f qset

let push t ~qset buf pos =
  Ring.push (ring t ~qset (Queue_set.of_op (Nqe.View.op buf pos))) buf pos

(* Same-instant wakes coalesce: a CE dispatch burst delivering several NQEs
   to one queue set in one callback arms several wakes with the identical
   fire time, and the owner's budgeted poll drains the whole burst under
   the first. This is the only sound elision — a wake merely *in flight*
   must still be armed again for later pushes, because its fire acts as an
   early poll for anything landing inside its latency window, and dropping
   that poll shifts the cycle schedule. Same-instant elision cannot: between
   two equal-time wakes only other wakes and ring pops run (all real work
   defers through [Cpu.exec] to strictly later times, and no other event
   kind is scheduled at exactly the wake latency), so nothing can slip a
   new NQE into the queue set at that instant. The event is scheduled by
   [delay], the caller's own float, rather than by the fire time, which
   would be a fresh box per wake: the engine computes the same [now +.
   delay]. *)
let wake t engine ~qset ~delay =
  let at = Engine.now engine +. delay in
  if t.wake_armed_at.(qset) <> at then begin
    t.wake_armed_at.(qset) <- at;
    ignore (Engine.schedule engine ~delay t.wake_thunks.(qset))
  end

(* ---- the owner's poll loop ------------------------------------------------ *)

(* Per-NQE budget of one owner burst. *)
let budget = 64

type owner = {
  dev : t;
  cores : Cpu.Set.t;
  component : string;
  apply : int -> bytes -> int -> unit;
  scheduled : bool array;
  (* End of the last applied burst per queue set; the VM side pays an
     interrupt when a burst finds the device idle past the polling
     window. *)
  last_active : float array;
  (* Reusable burst slot buffers, per queue set because the apply loop
     runs deferred (behind [Cpu.exec]) while another queue set may already
     be draining. Each starts empty and doubles as bursts need, up to
     [width] slots. *)
  scratch : bytes array;
  width : int;
  (* Per queue set: the size of the burst in flight and the preallocated
     continuation that applies it, so a burst schedules no fresh
     closure. *)
  burst_len : int array;
  mutable burst_thunks : (unit -> unit) array;
}

(* Queue set [qi]'s scratch, grown first to a slot for every NQE the
   coming drain can take: as many as are queued, at most [width]. *)
let scratch_for o qi s toward =
  let need = Int.min o.width (Queue_set.inbound_length s ~toward) * Nqe.size_bytes in
  let buf = o.scratch.(qi) in
  if Bytes.length buf >= need then buf
  else begin
    let rec size b = if b >= need then b else size (2 * b) in
    let buf = Bytes.create (Int.min (o.width * Nqe.size_bytes) (size (16 * Nqe.size_bytes))) in
    o.scratch.(qi) <- buf;
    buf
  end

(* One owner wakeup drains a budgeted burst from the queue set's inbound
   pair into its scratch buffer in ring order, charges poll + decode on the
   queue set's core, applies the burst there and polls again until a drain
   comes back empty. The VM side takes up to [budget] completions, then up
   to [budget] receive events; the NSM side one burst of [budget] across
   job then send. Top-level recursion over one owner record, as
   CoreEngine's [process]: without flambda a local loop would cost a
   closure per call. *)
let rec poll o qi =
  if not o.dev.serving then o.scheduled.(qi) <- false
  else begin
    let s = o.dev.qsets.(qi) in
    let n =
      match o.dev.role with
      | Vm_side ->
          Queue_set.drain_into s ~toward:`Vm (scratch_for o qi s `Vm) ~budget ~shared:false
      | Nsm_side ->
          Queue_set.drain_into s ~toward:`Nsm (scratch_for o qi s `Nsm) ~budget ~shared:true
    in
    if n = 0 then o.scheduled.(qi) <- false
    else begin
      let core = Cpu.Set.core o.cores qi in
      let decode = float_of_int n *. Nk_costs.nqe_decode in
      let cycles =
        match o.dev.role with
        | Nsm_side -> Nk_costs.service_poll +. decode
        | Vm_side ->
            (* The device slept after the polling window; waking it costs
               an interrupt (interrupt-driven polling, §4.6). *)
            let idle = Engine.now (Cpu.engine core) -. o.last_active.(qi) in
            Nk_costs.guest_poll
            +. (if idle > Nk_costs.guest_idle_window then Nk_costs.guest_interrupt else 0.0)
            +. decode
      in
      (* Traced NQEs leave the ring here: poll + decode + core queueing
         accrue to the owner's first stage. Only Send and Comp_send NQEs
         carry a span id; the rest peek as 0. *)
      if Nkspan.enabled o.dev.spans then
        for i = 0 to n - 1 do
          let span = Nqe.View.span o.scratch.(qi) (i * Nqe.size_bytes) in
          Nkspan.end_stage o.dev.spans ~id:span "ring";
          match o.dev.role with
          | Vm_side ->
              Nkspan.begin_stage o.dev.spans ~id:span ~component:o.component "completion"
          | Nsm_side ->
              Nkspan.begin_stage o.dev.spans ~id:span ~component:o.component "servicelib"
        done;
      Nkspan.enter o.dev.spans ~component:o.component
        ~stage:(match o.dev.role with Vm_side -> "poll" | Nsm_side -> "dispatch");
      o.burst_len.(qi) <- n;
      Cpu.exec core ~cycles o.burst_thunks.(qi);
      Nkspan.leave o.dev.spans
    end
  end

(* Every NQE is applied where it lies in the scratch; an apply that keeps
   one copies it. *)
and apply_burst o qi =
  let scratch = o.scratch.(qi) in
  for i = 0 to o.burst_len.(qi) - 1 do
    let pos = i * Nqe.size_bytes in
    if Nqe.View.ok scratch pos then o.apply qi scratch pos
  done;
  o.last_active.(qi) <- Engine.now (Cpu.engine (Cpu.Set.core o.cores qi));
  poll o qi

let kick o qi =
  if not o.scheduled.(qi) then begin
    o.scheduled.(qi) <- true;
    poll o qi
  end

let serve t ~cores ~component apply =
  let n = Array.length t.qsets in
  let o =
    {
      dev = t;
      cores;
      component;
      apply;
      scheduled = Array.make n false;
      last_active = Array.make n 0.0;
      scratch = Array.make n Bytes.empty;
      width = (match t.role with Vm_side -> 2 * budget | Nsm_side -> budget);
      burst_len = Array.make n 0;
      burst_thunks = [||];
    }
  in
  o.burst_thunks <- Array.init n (fun qi () -> apply_burst o qi);
  t.kick_owner <- Some (fun qi -> kick o qi)

let stop_serving t = t.serving <- false

(* ---- relay drains ---------------------------------------------------------- *)

let rec pop_all ring buf f =
  if Ring.pop ring buf 0 then begin
    f buf 0;
    pop_all ring buf f
  end

(* Each drain pops into a slot of its own, so a callback that starts
   another drain cannot overwrite the NQE it is reading. *)
let drain t ~qset ~toward f =
  let s = t.qsets.(qset) in
  let buf = Bytes.create Nqe.size_bytes in
  match toward with
  | `Vm ->
      pop_all s.Queue_set.completion buf f;
      pop_all s.Queue_set.receive buf f
  | `Nsm ->
      pop_all s.Queue_set.job buf f;
      pop_all s.Queue_set.send buf f

(* ---- CoreEngine's view ------------------------------------------------------ *)

let outbound_pending t ~qset =
  let s = t.qsets.(qset) in
  let ring_part =
    match t.role with
    | Vm_side -> Ring.length s.Queue_set.job + Ring.length s.Queue_set.send
    | Nsm_side -> Ring.length s.Queue_set.completion + Ring.length s.Queue_set.receive
  in
  ring_part + Queue.length t.overflow

(* Queue set [i] or a later one holds an NQE in a ring this device's owner
   produces. *)
let rec rings_outbound t i =
  i < Array.length t.qsets
  && (let s = t.qsets.(i) in
      (match t.role with
      | Vm_side -> not (Ring.is_empty s.Queue_set.job && Ring.is_empty s.Queue_set.send)
      | Nsm_side ->
          not (Ring.is_empty s.Queue_set.completion && Ring.is_empty s.Queue_set.receive))
      || rings_outbound t (i + 1))

let has_outbound t = (not (Queue.is_empty t.overflow)) || rings_outbound t 0
