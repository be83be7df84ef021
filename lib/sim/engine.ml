(* Discrete-event engine: virtual clock + pending-event set.

   The pending set is a 3-level hierarchical timing wheel, not a binary
   heap: the datapath schedules millions of dense short-delay events
   (per-NQE CPU slices, ring wakeups, link hops) while long-lived TCP
   timers (RTO, persist) are armed far in the future and almost always
   cancelled. The wheel gives O(1) placement, and each bucket is a
   doubly-linked list, so cancelling an event still in a bucket unlinks
   it in O(1) (Varghese & Lauck's STOP_TIMER): its closure, and whatever
   that closure holds, is released at the cancel, not when the wheel
   would have reached it up to a virtual second later. An event already
   moved into the near or overflow heap loses its closure at the cancel
   and is dropped when it surfaces.

   Determinism contract (unchanged from the heap engine): events execute
   in (time, insertion-seq) order. The wheel maps times to slots
   monotonically (slot = floor(time / tick)), slots are visited in
   ascending order, and every event of the slot under the cursor is merged
   into a small "near" heap ordered by exactly the old comparator — so the
   pop order is byte-identical to the heap engine's (the oracle test in
   test_sim.ml replays a 100K-event schedule against a reference heap). *)

(* A cancelled event's closure is [noop]; no other event's is, since
   [noop] never leaves this module. *)
let noop () = ()

type event = {
  time : float;
  seq : int;
  mutable f : unit -> unit;
  (* Bucket back link: the predecessor, the event itself for a bucket
     head, [nil] when the event is in no bucket (in a heap, fired or
     cancelled). *)
  mutable prev : event;
  mutable next : event; (* intrusive bucket link; [nil] terminates *)
}

let rec nil = { time = 0.0; seq = -1; f = noop; prev = nil; next = nil }

(* The old comparator, verbatim: earlier time first, insertion order on
   ties. Used by the near heap (current slot) and the overflow heap. *)
let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

(* Specialized event min-heap: monomorphic (direct [leq] calls, no closure
   indirection) and sentinel-based ([nil] instead of [option], so the
   engine's one-pop-per-event loop allocates nothing). *)
module Eheap = struct
  type h = { mutable data : event array; mutable size : int }

  let create capacity = { data = Array.make capacity nil; size = 0 }

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if not (leq h.data.(parent) h.data.(i)) then begin
        let tmp = h.data.(parent) in
        h.data.(parent) <- h.data.(i);
        h.data.(i) <- tmp;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.size && not (leq h.data.(i) h.data.(l)) then l else i in
    let smallest =
      if r < h.size && not (leq h.data.(smallest) h.data.(r)) then r else smallest
    in
    if smallest <> i then begin
      let tmp = h.data.(smallest) in
      h.data.(smallest) <- h.data.(i);
      h.data.(i) <- tmp;
      sift_down h smallest
    end

  let add h x =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * Array.length h.data) nil in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  (* [nil] when empty. *)
  let min_elt h = if h.size = 0 then nil else h.data.(0)

  let pop_min h =
    if h.size = 0 then nil
    else begin
      let min = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      h.data.(h.size) <- nil;
      (* release for GC *)
      if h.size > 0 then sift_down h 0;
      min
    end
end

(* Wheel geometry: 1024 slots per level, 3 levels, tick = 2^-23 s ≈ 119 ns.
   Level 0 spans ≈ 122 µs, level 1 ≈ 125 ms, level 2 ≈ 128 s of absolute
   slot space; anything beyond the cursor's level-2 block (or non-finite)
   waits in the overflow heap and is pulled in when the cursor crosses
   into its block. Slot indices are aligned blocks, not sliding windows:
   an event lands in the deepest level whose current block contains its
   slot, and cascades down as the cursor crosses block boundaries. *)
let bits = 10

let slots = 1 lsl bits

let mask = slots - 1

(* 2^23 slots per second: multiplying by a power of two is exact, so equal
   times always map to equal slots and the mapping is monotone. *)
let inv_tick = 8388608.0

(* Per-level occupancy bitmaps, 32 bits per word: finding the next
   occupied slot at or after an index is a word scan, so advancing the
   cursor across empty stretches costs O(slots/32) loads, not O(slots). *)
module Bitmap = struct
  type t = int array

  let create () = Array.make (slots / 32) 0

  let set bm i = bm.(i lsr 5) <- bm.(i lsr 5) lor (1 lsl (i land 31))

  let clear bm i = bm.(i lsr 5) <- bm.(i lsr 5) land lnot (1 lsl (i land 31))

  (* First set index >= [i], or -1. *)
  let next bm i =
    if i >= slots then -1
    else begin
      let nwords = Array.length bm in
      let w = ref (i lsr 5) in
      let m = ref (bm.(!w) land lnot ((1 lsl (i land 31)) - 1)) in
      let res = ref (-1) in
      while !res < 0 && !w < nwords do
        if !m <> 0 then begin
          let rec lowest b acc = if b land 1 = 1 then acc else lowest (b lsr 1) (acc + 1) in
          res := (!w lsl 5) lor lowest !m 0
        end
        else begin
          incr w;
          if !w < nwords then m := bm.(!w)
        end
      done;
      !res
    end
end

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  (* Undelivered events: the live ones, plus cancelled ones still in
     [near] or [overflow] (a cancel unlinks a bucketed event at once). *)
  mutable size : int;
  (* Absolute slot index of the wheel cursor: every event in a wheel
     bucket has slot > cur; events with slot <= cur live in [near]. *)
  mutable cur : int;
  near : Eheap.h;
  l0 : event array;
  l0_bm : Bitmap.t;
  l1 : event array;
  l1_bm : Bitmap.t;
  l2 : event array;
  l2_bm : Bitmap.t;
  overflow : Eheap.h;
  mutable cycle_hook : (string -> float -> unit) option;
}

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    executed = 0;
    size = 0;
    cur = 0;
    near = Eheap.create 64;
    l0 = Array.make slots nil;
    l0_bm = Bitmap.create ();
    l1 = Array.make slots nil;
    l1_bm = Bitmap.create ();
    l2 = Array.make slots nil;
    l2_bm = Bitmap.create ();
    overflow = Eheap.create 256;
    cycle_hook = None;
  }

let set_cycle_hook t hook = t.cycle_hook <- hook

let emit_cycles t ~core cycles =
  match t.cycle_hook with None -> () | Some hook -> hook core cycles

let now t = t.clock

let slot_of time = int_of_float (time *. inv_tick)

(* Push [ev] as the new head of bucket [idx]. A head's back link is the
   event itself. *)
let put level bm idx ev =
  let head = level.(idx) in
  ev.prev <- ev;
  ev.next <- head;
  if head == nil then Bitmap.set bm idx else head.prev <- ev;
  level.(idx) <- ev

(* Route an event to the structure that owns its slot relative to the
   cursor. Does not touch [size] (cascades re-place without re-counting). *)
let place t ev =
  if not (Float.is_finite ev.time) then Eheap.add t.overflow ev
  else begin
    let s = slot_of ev.time in
    if s <= t.cur then Eheap.add t.near ev
    else if s lsr bits = t.cur lsr bits then put t.l0 t.l0_bm (s land mask) ev
    else if s lsr (2 * bits) = t.cur lsr (2 * bits) then
      put t.l1 t.l1_bm ((s lsr bits) land mask) ev
    else if s lsr (3 * bits) = t.cur lsr (3 * bits) then
      put t.l2 t.l2_bm ((s lsr (2 * bits)) land mask) ev
    else Eheap.add t.overflow ev
  end

let schedule_at t ~at f =
  let at = Float.max at t.clock in
  let ev = { time = at; seq = t.next_seq; f; prev = nil; next = nil } in
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  place t ev;
  ev

let schedule t ~delay f = schedule_at t ~at:(t.clock +. Float.max 0.0 delay) f

(* Empty bucket [idx] of [level], re-placing its events one level down
   or in [near]. Buckets hold live events only. *)
let cascade t level bm idx =
  Bitmap.clear bm idx;
  let ev = ref level.(idx) in
  level.(idx) <- nil;
  while !ev != nil do
    let e = !ev in
    ev := e.next;
    e.prev <- nil;
    e.next <- nil;
    place t e
  done

(* Unlink bucket head [ev], whose successor is [n], from bucket [idx]. *)
let pop_head level bm idx ev n =
  assert (level.(idx) == ev);
  level.(idx) <- n;
  if n == nil then Bitmap.clear bm idx else n.prev <- n

(* Release a cancelled event: its closure at once, and its bucket entry
   in O(1) if it is in one. A head's bucket is recomputed from its slot
   and the cursor exactly as [place] chose it: the cursor never passes an
   occupied bucket without cascading it, so the level is unchanged since
   the event was put. An event in a heap has no back link and keeps its
   count until it surfaces; nor has a fired or already-cancelled one, for
   which only the closure swap happens. *)
let cancel t ev =
  ev.f <- noop;
  let p = ev.prev in
  if p != nil then begin
    let n = ev.next in
    if p == ev then begin
      let s = slot_of ev.time in
      if s lsr bits = t.cur lsr bits then pop_head t.l0 t.l0_bm (s land mask) ev n
      else if s lsr (2 * bits) = t.cur lsr (2 * bits) then
        pop_head t.l1 t.l1_bm ((s lsr bits) land mask) ev n
      else pop_head t.l2 t.l2_bm ((s lsr (2 * bits)) land mask) ev n
    end
    else begin
      p.next <- n;
      if n != nil then n.prev <- p
    end;
    ev.prev <- nil;
    ev.next <- nil;
    t.size <- t.size - 1
  end

module Timer = struct
  type t = event

  let cancel = cancel
end

(* Move the cursor to the next occupied bucket and cascade it. Called
   with [near] empty and events pending; a level-0 bucket refills [near],
   an upper one may only refill lower levels, so [peek_next] repeats. *)
let advance t =
  let i = Bitmap.next t.l0_bm (t.cur land mask) in
  if i >= 0 then begin
    t.cur <- (t.cur land lnot mask) lor i;
    cascade t t.l0 t.l0_bm i
  end
  else begin
    let j = Bitmap.next t.l1_bm (((t.cur lsr bits) land mask) + 1) in
    if j >= 0 then begin
      t.cur <- ((t.cur lsr (2 * bits)) lsl (2 * bits)) lor (j lsl bits);
      cascade t t.l1 t.l1_bm j
    end
    else begin
      let k = Bitmap.next t.l2_bm (((t.cur lsr (2 * bits)) land mask) + 1) in
      if k >= 0 then begin
        t.cur <- ((t.cur lsr (3 * bits)) lsl (3 * bits)) lor (k lsl (2 * bits));
        cascade t t.l2 t.l2_bm k
      end
      else begin
        let ev = Eheap.min_elt t.overflow in
        if ev == nil then
          (* Accounting says events remain but no structure holds any;
             unreachable, but fail closed rather than spin. *)
          t.size <- 0
        else if Float.is_finite ev.time then begin
          t.cur <- Int.max t.cur (slot_of ev.time);
          (* Pull everything belonging to the cursor's new level-2
             block out of overflow. *)
          let block_end =
            float_of_int ((t.cur lsr (3 * bits)) + 1) *. float_of_int (1 lsl (3 * bits))
          in
          let rec pull () =
            let e = Eheap.min_elt t.overflow in
            if e != nil && e.time *. inv_tick < block_end then begin
              ignore (Eheap.pop_min t.overflow);
              if e.f == noop then t.size <- t.size - 1 else place t e;
              pull ()
            end
          in
          pull ()
        end
        else begin
          (* Only non-finite times remain: order among them is by
             insertion seq, which the near heap's comparator gives. *)
          let rec drain () =
            let e = Eheap.pop_min t.overflow in
            if e != nil then begin
              if e.f == noop then t.size <- t.size - 1 else Eheap.add t.near e;
              drain ()
            end
          in
          drain ()
        end
      end
    end
  end

(* Earliest live event ([nil] if none), discarding cancelled ones that
   were already in a heap as they surface. Advancing stops at the first
   bucket that refills [near], so the cursor is then the slot of the next
   event to run. *)
let rec peek_next t =
  let ev = Eheap.min_elt t.near in
  if ev != nil then
    if ev.f == noop then begin
      ignore (Eheap.pop_min t.near);
      t.size <- t.size - 1;
      peek_next t
    end
    else ev
  else if t.size = 0 then nil
  else begin
    advance t;
    peek_next t
  end

(* Peek once per event, not once for the horizon check and again to pop. *)
let exec t ev =
  ignore (Eheap.pop_min t.near);
  t.size <- t.size - 1;
  t.clock <- ev.time;
  t.executed <- t.executed + 1;
  ev.f ()

let step t =
  let ev = peek_next t in
  if ev == nil then false
  else begin
    exec t ev;
    true
  end

let run ?until t =
  (match until with
  | None ->
      let rec go () =
        let ev = peek_next t in
        if ev != nil then begin
          exec t ev;
          go ()
        end
      in
      go ()
  | Some limit ->
      let rec go () =
        let ev = peek_next t in
        if ev != nil && ev.time <= limit then begin
          exec t ev;
          go ()
        end
      in
      go ());
  match until with
  | Some limit when t.clock < limit ->
      (* Advance the clock to the horizon even if the queue drained early. *)
      t.clock <- limit
  | _ -> ()

let events_executed t = t.executed

let pending t = t.size
