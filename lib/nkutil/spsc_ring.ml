type 'a t = {
  mask : int;
  slots : 'a option array;
  head : int Atomic.t; (* next index to pop; advanced by consumer *)
  tail : int Atomic.t; (* next index to push; advanced by producer *)
}

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ~capacity =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  let cap = next_pow2 capacity 1 in
  { mask = cap - 1; slots = Array.make cap None; head = Atomic.make 0; tail = Atomic.make 0 }

let capacity t = t.mask + 1

let length t = Atomic.get t.tail - Atomic.get t.head

let is_empty t = length t = 0

let push t x =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail - head > t.mask then false
  else begin
    t.slots.(tail land t.mask) <- Some x;
    Atomic.set t.tail (tail + 1);
    true
  end

let pop t =
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  if tail = head then None
  else begin
    let i = head land t.mask in
    let x = t.slots.(i) in
    t.slots.(i) <- None;
    Atomic.set t.head (head + 1);
    x
  end

let pop_batch t ~max =
  let rec loop i acc =
    if i >= max then List.rev acc
    else
      match pop t with None -> List.rev acc | Some x -> loop (i + 1) (x :: acc)
  in
  loop 0 []

let pop_slice t buf ~pos ~max =
  let rec loop i =
    if i >= max then i
    else
      match pop t with
      | None -> i
      | Some x ->
          buf.(pos + i) <- x;
          loop (i + 1)
  in
  loop 0
