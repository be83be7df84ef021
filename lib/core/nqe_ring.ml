let slot = Nqe.size_bytes

type t = {
  capacity : int; (* a power of two *)
  mutable buf : bytes; (* [nslots * slot] bytes *)
  mutable nslots : int; (* 0, then a power of two, at most [capacity] *)
  mutable head : int; (* next NQE to pop *)
  mutable tail : int; (* next NQE to push *)
}

let initial_slots = 16

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ~capacity =
  if capacity < 1 then invalid_arg "Nqe_ring.create: capacity must be >= 1";
  { capacity = next_pow2 capacity 1; buf = Bytes.empty; nslots = 0; head = 0; tail = 0 }

let capacity t = t.capacity

let length t = t.tail - t.head

let is_empty t = t.tail = t.head

let slots t = t.nslots

(* Called when every slot is live (or none is allocated yet): doubles the
   slots and unwraps the NQEs, oldest first, to the front. *)
let grow t =
  let n = t.nslots in
  let n' = if n = 0 then Int.min initial_slots t.capacity else 2 * n in
  let buf = Bytes.create (n' * slot) in
  let h = t.head land (n - 1) in
  Bytes.blit t.buf (h * slot) buf 0 ((n - h) * slot);
  Bytes.blit t.buf 0 buf ((n - h) * slot) (h * slot);
  t.buf <- buf;
  t.nslots <- n';
  t.head <- 0;
  t.tail <- n

(* [Bytes.get_int64_ne]/[set_int64_ne] without their bounds checks, as
   the tree's -unsafe flag drops them for array and string indexing: the
   compiler emits each as one load or store. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* One slot, as four 64-bit loads and stores: no C call, unlike a
   [Bytes.blit] this short, and the int64s are never boxed. *)
let copy_slot src spos dst dpos =
  set64 dst dpos (get64 src spos);
  set64 dst (dpos + 8) (get64 src (spos + 8));
  set64 dst (dpos + 16) (get64 src (spos + 16));
  set64 dst (dpos + 24) (get64 src (spos + 24))

let push t src pos =
  let len = t.tail - t.head in
  if len >= t.capacity then false
  else begin
    if len = t.nslots then grow t;
    copy_slot src pos t.buf ((t.tail land (t.nslots - 1)) * slot);
    t.tail <- t.tail + 1;
    true
  end

let pop t dst pos =
  if t.tail = t.head then false
  else begin
    copy_slot t.buf ((t.head land (t.nslots - 1)) * slot) dst pos;
    t.head <- t.head + 1;
    true
  end

(* At most two blits: from the head to the end of the slots, then from
   their start. *)
let pop_slice t dst ~slot:first ~max =
  let k = Int.min max (t.tail - t.head) in
  if k <= 0 then 0
  else begin
    let h = t.head land (t.nslots - 1) in
    let run = Int.min k (t.nslots - h) in
    Bytes.blit t.buf (h * slot) dst (first * slot) (run * slot);
    if run < k then Bytes.blit t.buf 0 dst ((first + run) * slot) ((k - run) * slot);
    t.head <- t.head + k;
    k
  end
