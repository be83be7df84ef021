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

   Events live in a slab: each is a slot index into parallel arrays (an
   unboxed float time, an int seq, int bucket links and generation, and
   the closure), threaded onto a free list when it fires or is dropped.
   Wheel buckets and both heaps hold slot indices. So scheduling an event
   allocates nothing but its closure: no event record, no boxed time, and
   no write barrier on link stores. A handle is the slot plus the slot's
   generation, which moves on at every release, so a stale handle (its
   event fired, or was cancelled and dropped, and the slot reused) no
   longer names a live event and cancelling it does nothing.

   Determinism contract (unchanged from the heap engine): events execute
   in (time, insertion-seq) order. The wheel maps times to slots
   monotonically (slot = floor(time / tick)), slots are visited in
   ascending order, and every event of the slot under the cursor is merged
   into a small "near" heap ordered by exactly the old comparator — so the
   pop order is byte-identical to the heap engine's (the oracle test in
   test_sim.ml replays a 100K-event schedule against a reference heap). *)

(* The closure of a free slot, or of a cancelled event still in a heap; no
   scheduled event's closure is [noop], since it never leaves this
   module. *)
let noop () = ()

(* "No slot": the end of a bucket or free list, an empty bucket or heap,
   and the back link of an event in no bucket. *)
let none = -1

(* A handle is [gen lsl slot_bits lor slot]; generations wrap at
   2^31, so a stale handle could alias only after 2^31 reuses of its
   slot. *)
let slot_bits = 31

let slot_mask = (1 lsl slot_bits) - 1

let gen_mask = (1 lsl 31) - 1

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

  (* Index of the lowest set bit of a non-zero 32-bit word: a binary
     search in five fixed steps. *)
  let lowest b =
    let b = ref b and n = ref 0 in
    if !b land 0xFFFF = 0 then begin
      b := !b lsr 16;
      n := 16
    end;
    if !b land 0xFF = 0 then begin
      b := !b lsr 8;
      n := !n + 8
    end;
    if !b land 0xF = 0 then begin
      b := !b lsr 4;
      n := !n + 4
    end;
    if !b land 0x3 = 0 then begin
      b := !b lsr 2;
      n := !n + 2
    end;
    if !b land 0x1 = 0 then n := !n + 1;
    !n

  (* First set index >= [i], or -1. *)
  let next bm i =
    if i >= slots then -1
    else begin
      let nwords = Array.length bm in
      let w = ref (i lsr 5) in
      let m = ref (bm.(!w) land lnot ((1 lsl (i land 31)) - 1)) in
      let res = ref (-1) in
      while !res < 0 && !w < nwords do
        if !m <> 0 then res := (!w lsl 5) lor lowest !m
        else begin
          incr w;
          if !w < nwords then m := bm.(!w)
        end
      done;
      !res
    end
end

(* A min-heap of slots, ordered through the slab by (time, seq). *)
type heap = { mutable data : int array; mutable len : int }

type t = {
  (* Boxed, so [now] returns it without allocating; [exec] re-boxes it
     only when an event advances time. *)
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  (* Undelivered events: the live ones, plus cancelled ones still in
     [near] or [overflow] (a cancel unlinks a bucketed event at once). *)
  mutable size : int;
  (* Absolute slot index of the wheel cursor: every event in a wheel
     bucket has slot > cur; events with slot <= cur live in [near]. *)
  mutable cur : int;
  (* The slab, one entry per slot. [prev] is the bucket back link: the
     predecessor, the slot itself for a bucket head, [none] when the event
     is in no bucket (in a heap, or the slot is free). [next] is the
     bucket link, or the free-list link of a free slot. *)
  mutable time : float array;
  mutable seq : int array;
  mutable gen : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable fn : (unit -> unit) array;
  mutable free : int;
  near : heap;
  l0 : int array;
  l0_bm : Bitmap.t;
  l1 : int array;
  l1_bm : Bitmap.t;
  l2 : int array;
  l2_bm : Bitmap.t;
  overflow : heap;
  mutable cycle_hook : (string -> float -> unit) option;
}

(* The old comparator, verbatim: earlier time first, insertion order on
   ties. Used by the near heap (current slot) and the overflow heap. *)
let leq t a b =
  let ta = t.time.(a) and tb = t.time.(b) in
  ta < tb || (ta = tb && t.seq.(a) <= t.seq.(b))

let rec sift_up t h i =
  if i > 0 then begin
    let d = h.data in
    let parent = (i - 1) / 2 in
    if not (leq t d.(parent) d.(i)) then begin
      let tmp = d.(parent) in
      d.(parent) <- d.(i);
      d.(i) <- tmp;
      sift_up t h parent
    end
  end

let rec sift_down t h i =
  let d = h.data in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.len && not (leq t d.(i) d.(l)) then l else i in
  let smallest = if r < h.len && not (leq t d.(smallest) d.(r)) then r else smallest in
  if smallest <> i then begin
    let tmp = d.(smallest) in
    d.(smallest) <- d.(i);
    d.(i) <- tmp;
    sift_down t h smallest
  end

let heap_add t h s =
  if h.len = Array.length h.data then begin
    let data = Array.make (2 * h.len) none in
    Array.blit h.data 0 data 0 h.len;
    h.data <- data
  end;
  h.data.(h.len) <- s;
  h.len <- h.len + 1;
  sift_up t h (h.len - 1)

(* [none] when empty. *)
let heap_min h = if h.len = 0 then none else h.data.(0)

(* Drop the minimum of a non-empty heap. *)
let heap_pop t h =
  h.len <- h.len - 1;
  h.data.(0) <- h.data.(h.len);
  if h.len > 0 then sift_down t h 0

let initial_slots = 256

let create () =
  let n = initial_slots in
  {
    clock = 0.0;
    next_seq = 0;
    executed = 0;
    size = 0;
    cur = 0;
    time = Array.make n 0.0;
    seq = Array.make n 0;
    gen = Array.make n 0;
    prev = Array.make n none;
    (* Every slot starts on the free list, in index order. *)
    next = Array.init n (fun s -> if s + 1 < n then s + 1 else none);
    fn = Array.make n noop;
    free = 0;
    near = { data = Array.make 64 none; len = 0 };
    l0 = Array.make slots none;
    l0_bm = Bitmap.create ();
    l1 = Array.make slots none;
    l1_bm = Bitmap.create ();
    l2 = Array.make slots none;
    l2_bm = Bitmap.create ();
    overflow = { data = Array.make 256 none; len = 0 };
    cycle_hook = None;
  }

let set_cycle_hook t hook = t.cycle_hook <- hook

let emit_cycles t ~core cycles =
  match t.cycle_hook with None -> () | Some hook -> hook core cycles

let now t = t.clock

let slot_of time = int_of_float (time *. inv_tick)

(* Double the slab; the new slots go on the free list. *)
let grow t =
  let n = Array.length t.seq in
  let extend a fill =
    let a' = Array.make (2 * n) fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.time <- extend t.time 0.0;
  t.seq <- extend t.seq 0;
  t.gen <- extend t.gen 0;
  t.prev <- extend t.prev none;
  t.next <- extend t.next none;
  t.fn <- extend t.fn noop;
  for s = (2 * n) - 1 downto n do
    t.next.(s) <- t.free;
    t.free <- s
  done

let alloc t =
  if t.free = none then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  s

(* Return a slot that is in no bucket and no heap to the free list. Its
   closure goes at once, and its generation moves on, so every handle to
   it is stale from here. *)
let release t s =
  t.fn.(s) <- noop;
  t.gen.(s) <- (t.gen.(s) + 1) land gen_mask;
  t.next.(s) <- t.free;
  t.free <- s

(* Push slot [s] as the new head of bucket [idx]. A head's back link is
   the slot itself. *)
let put t level bm idx s =
  let head = level.(idx) in
  t.prev.(s) <- s;
  t.next.(s) <- head;
  if head = none then Bitmap.set bm idx else t.prev.(head) <- s;
  level.(idx) <- s

(* Route an event to the structure that owns its slot relative to the
   cursor. Does not touch [size] (cascades re-place without re-counting). *)
let place t s =
  let time = t.time.(s) in
  if not (Float.is_finite time) then heap_add t t.overflow s
  else begin
    let w = slot_of time in
    if w <= t.cur then heap_add t t.near s
    else if w lsr bits = t.cur lsr bits then put t t.l0 t.l0_bm (w land mask) s
    else if w lsr (2 * bits) = t.cur lsr (2 * bits) then
      put t t.l1 t.l1_bm ((w lsr bits) land mask) s
    else if w lsr (3 * bits) = t.cur lsr (3 * bits) then
      put t t.l2 t.l2_bm ((w lsr (2 * bits)) land mask) s
    else heap_add t t.overflow s
  end

(* Enqueue slot [s], whose time is already set, and return its handle. *)
let enqueue t s f =
  t.seq.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.prev.(s) <- none;
  t.next.(s) <- none;
  t.fn.(s) <- f;
  t.size <- t.size + 1;
  place t s;
  (t.gen.(s) lsl slot_bits) lor s

let schedule_at t ~at f =
  let s = alloc t in
  t.time.(s) <- Float.max at t.clock;
  enqueue t s f

(* The time is written straight into the slab, never boxed: it is
   [Float.max (now + max 0 delay) now], and the outer max is the identity
   here. *)
let schedule t ~delay f =
  let s = alloc t in
  t.time.(s) <- t.clock +. Float.max 0.0 delay;
  enqueue t s f

(* Empty bucket [idx] of [level], re-placing its events one level down
   or in [near]. Buckets hold live events only. *)
let cascade t level bm idx =
  Bitmap.clear bm idx;
  let s = ref level.(idx) in
  level.(idx) <- none;
  while !s <> none do
    let e = !s in
    s := t.next.(e);
    t.prev.(e) <- none;
    t.next.(e) <- none;
    place t e
  done

(* Unlink bucket head [s], whose successor is [n], from bucket [idx]. *)
let pop_head t level bm idx s n =
  assert (level.(idx) = s);
  level.(idx) <- n;
  if n = none then Bitmap.clear bm idx else t.prev.(n) <- n

(* Cancel a live event: its closure goes at once, and so does its slot if
   the event is in a bucket, unlinked in O(1). A head's bucket is
   recomputed from its slot and the cursor exactly as [place] chose it:
   the cursor never passes an occupied bucket without cascading it, so
   the level is unchanged since the event was put. An event in a heap has
   no back link and keeps its count and its slot until it surfaces. A
   stale handle, or one whose event is already cancelled, does nothing. *)
let cancel t h =
  let s = h land slot_mask in
  if s < Array.length t.gen && t.gen.(s) = h lsr slot_bits && t.fn.(s) != noop then begin
    t.fn.(s) <- noop;
    let p = t.prev.(s) in
    if p <> none then begin
      let n = t.next.(s) in
      if p = s then begin
        let w = slot_of t.time.(s) in
        if w lsr bits = t.cur lsr bits then pop_head t t.l0 t.l0_bm (w land mask) s n
        else if w lsr (2 * bits) = t.cur lsr (2 * bits) then
          pop_head t t.l1 t.l1_bm ((w lsr bits) land mask) s n
        else pop_head t t.l2 t.l2_bm ((w lsr (2 * bits)) land mask) s n
      end
      else begin
        t.next.(p) <- n;
        if n <> none then t.prev.(n) <- p
      end;
      t.prev.(s) <- none;
      t.size <- t.size - 1;
      release t s
    end
  end

module Timer = struct
  type t = int

  (* No real handle is negative, and [cancel] reads this one's slot as
     [slot_mask], past the end of any slab, so it cancels nothing. *)
  let none = none

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
        let s = heap_min t.overflow in
        if s = none then
          (* Accounting says events remain but no structure holds any;
             unreachable, but fail closed rather than spin. *)
          t.size <- 0
        else if Float.is_finite t.time.(s) then begin
          t.cur <- Int.max t.cur (slot_of t.time.(s));
          (* Pull everything belonging to the cursor's new level-2
             block out of overflow. *)
          let block_end =
            float_of_int ((t.cur lsr (3 * bits)) + 1) *. float_of_int (1 lsl (3 * bits))
          in
          let e = ref (heap_min t.overflow) in
          while !e <> none && t.time.(!e) *. inv_tick < block_end do
            heap_pop t t.overflow;
            if t.fn.(!e) == noop then begin
              t.size <- t.size - 1;
              release t !e
            end
            else place t !e;
            e := heap_min t.overflow
          done
        end
        else
          (* Only non-finite times remain: order among them is by
             insertion seq, which the near heap's comparator gives. *)
          while t.overflow.len > 0 do
            let e = heap_min t.overflow in
            heap_pop t t.overflow;
            if t.fn.(e) == noop then begin
              t.size <- t.size - 1;
              release t e
            end
            else heap_add t t.near e
          done
      end
    end
  end

(* Earliest live event ([none] if none), dropping cancelled ones that
   were already in a heap as they surface. Advancing stops at the first
   bucket that refills [near], so the cursor is then the slot of the next
   event to run. *)
let rec peek_next t =
  let s = heap_min t.near in
  if s <> none then
    if t.fn.(s) == noop then begin
      heap_pop t t.near;
      t.size <- t.size - 1;
      release t s;
      peek_next t
    end
    else s
  else if t.size = 0 then none
  else begin
    advance t;
    peek_next t
  end

(* Events executed by every engine of the process, for [total_executed]. *)
let executed_everywhere = ref 0

(* Run [s], the front of [near] as [peek_next] returned it. Its slot is
   released before the closure runs, so the closure's captures are
   collectable once it returns and the slot can serve the events it
   schedules. *)
let exec t s =
  heap_pop t t.near;
  t.size <- t.size - 1;
  let time = t.time.(s) in
  if time <> t.clock then t.clock <- time;
  t.executed <- t.executed + 1;
  incr executed_everywhere;
  let f = t.fn.(s) in
  release t s;
  f ()

let step t =
  let s = peek_next t in
  if s = none then false
  else begin
    exec t s;
    true
  end

let run ?until t =
  (match until with
  | None ->
      let s = ref (peek_next t) in
      while !s <> none do
        exec t !s;
        s := peek_next t
      done
  | Some limit ->
      let s = ref (peek_next t) in
      while !s <> none && t.time.(!s) <= limit do
        exec t !s;
        s := peek_next t
      done);
  match until with
  | Some limit when t.clock < limit ->
      (* Advance the clock to the horizon even if the queue drained early. *)
      t.clock <- limit
  | _ -> ()

let events_executed t = t.executed

let total_executed () = !executed_everywhere

let pending t = t.size
