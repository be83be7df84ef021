type 'a t = {
  capacity : int; (* a power of two *)
  mutable slots : 'a option array; (* a power of two long, at most [capacity] *)
  mutable head : int; (* next index to pop *)
  mutable tail : int; (* next index to push *)
}

let initial_slots = 16

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ~capacity =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  let capacity = next_pow2 capacity 1 in
  { capacity; slots = Array.make (Int.min initial_slots capacity) None; head = 0; tail = 0 }

let capacity t = t.capacity

let length t = t.tail - t.head

(* Called when every slot is live: doubles the array and unwraps the
   elements, oldest first, to its front. *)
let grow t =
  let old = t.slots in
  let n = Array.length old in
  let slots = Array.make (2 * n) None in
  let h = t.head land (n - 1) in
  Array.blit old h slots 0 (n - h);
  Array.blit old 0 slots (n - h) h;
  t.slots <- slots;
  t.head <- 0;
  t.tail <- n

let push t x =
  let len = t.tail - t.head in
  if len >= t.capacity then false
  else begin
    if len = Array.length t.slots then grow t;
    let slots = t.slots in
    slots.(t.tail land (Array.length slots - 1)) <- Some x;
    t.tail <- t.tail + 1;
    true
  end

let pop t =
  if t.tail = t.head then None
  else begin
    let slots = t.slots in
    let i = t.head land (Array.length slots - 1) in
    let x = slots.(i) in
    slots.(i) <- None;
    t.head <- t.head + 1;
    x
  end

let pop_batch t ~max =
  let rec loop i acc =
    if i >= max then List.rev acc
    else
      match pop t with None -> List.rev acc | Some x -> loop (i + 1) (x :: acc)
  in
  loop 0 []
