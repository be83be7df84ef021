(* The dataplane's one hash table (DESIGN.md §13): open addressing with
   linear probing, keyed by one int or by a pair of ints.

   Layout. A table of [n] slots ([n] a power of two) keeps three flat
   arrays: [used], one byte per slot; [keys], two unboxed ints per slot (a
   one-int key [k] is the pair (k, 0)); and [vals], the values. No slot
   array exists until the first insert, which allocates 8 slots, and
   insert, lookup and remove allocate nothing. The table doubles before
   its load passes 1/2, so every probe run ends at a free slot.

   Index. A key's home slot is the top log2 n bits of
   ((a * c1) + b) * c2, for odd constants c1 and c2. The products carry
   every key bit upwards, so keys that share their low bits spread:
   hugepage offsets are multiples of 64, connection keys put the VM id
   above bit 32, address keys put the IP above bit 16.

   Deletion. Backward shift (Knuth's Algorithm R): removing a binding
   moves later members of its probe run back into the hole, so there are
   no tombstones and a lookup stops at the first free slot.

   Fill. [vals] has one element more than there are slots, and that last
   element is the first value the table bound. Free slots hold it: a typed
   array needs some value of its type there, and nklint D4 forbids
   [Obj.magic]. The table keeps that one value alive until [reset]. *)

type 'a t = {
  mutable size : int;
  mutable shift : int; (* [Sys.int_size] minus log2 of the slot count *)
  mutable used : Bytes.t;
  mutable keys : int array;
  mutable vals : 'a array;
}

(* The size hint is not used: most tables a world fills at set-up stay
   small, and sizing their first arrays from it doubled perfbench's
   [setup_s]. *)
let create (_ : int) =
  { size = 0; shift = Sys.int_size; used = Bytes.empty; keys = [||]; vals = [||] }

let length t = t.size

let home shift a b = (((a * 0x9E3779B97F4A7C1) + b) * 0xBF58476D1CE4E5B) lsr shift

(* The slot holding (a, b) or, if none does, the free slot that ends the
   probe run from [i]; [used] tells the two apart. *)
let rec probe used (keys : int array) mask (a : int) (b : int) i =
  if Bytes.unsafe_get used i = '\000' || (keys.(2 * i) = a && keys.((2 * i) + 1) = b) then i
  else probe used keys mask a b ((i + 1) land mask)

(* The slot of (a, b), or -1. *)
let slot t a b =
  if t.size = 0 then -1
  else
    let used = t.used in
    let i = probe used t.keys (Bytes.length used - 1) a b (home t.shift a b) in
    if Bytes.unsafe_get used i = '\000' then -1 else i

let set_slot t i a b v =
  Bytes.unsafe_set t.used i '\001';
  t.keys.(2 * i) <- a;
  t.keys.((2 * i) + 1) <- b;
  t.vals.(i) <- v

let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1)

(* Fresh slot arrays of [n] slots with [fill] in every value slot; the old
   bindings are re-inserted. *)
let resize t n fill =
  let used = t.used and keys = t.keys and vals = t.vals in
  t.used <- Bytes.make n '\000';
  t.keys <- Array.make (2 * n) 0;
  t.vals <- Array.make (n + 1) fill;
  t.shift <- Sys.int_size - log2 n 0;
  for i = 0 to Bytes.length used - 1 do
    if Bytes.unsafe_get used i <> '\000' then begin
      let a = keys.(2 * i) and b = keys.((2 * i) + 1) in
      set_slot t (probe t.used t.keys (n - 1) a b (home t.shift a b)) a b vals.(i)
    end
  done

let replace2 t a b v =
  if Bytes.length t.used = 0 then resize t 8 v;
  let i = probe t.used t.keys (Bytes.length t.used - 1) a b (home t.shift a b) in
  if Bytes.unsafe_get t.used i <> '\000' then t.vals.(i) <- v
  else if 2 * (t.size + 1) <= Bytes.length t.used then begin
    set_slot t i a b v;
    t.size <- t.size + 1
  end
  else begin
    let n = Bytes.length t.used in
    resize t (2 * n) t.vals.(n);
    set_slot t (probe t.used t.keys ((2 * n) - 1) a b (home t.shift a b)) a b v;
    t.size <- t.size + 1
  end

(* Backward shift: [hole] is free and [j] walks the rest of its probe
   run. A binding at [j] whose home lies cyclically in (hole, j] must stay
   (its lookup would start past the hole); any other moves back into the
   hole, and the hole moves to [j]. Returns the slot left free. *)
let rec close_hole t mask hole j =
  let j = (j + 1) land mask in
  if Bytes.unsafe_get t.used j = '\000' then hole
  else
    let h = home t.shift t.keys.(2 * j) t.keys.((2 * j) + 1) in
    if if hole <= j then hole < h && h <= j else hole < h || h <= j then
      close_hole t mask hole j
    else begin
      set_slot t hole t.keys.(2 * j) t.keys.((2 * j) + 1) t.vals.(j);
      close_hole t mask j j
    end

let remove2 t a b =
  let i = slot t a b in
  if i >= 0 then begin
    let n = Bytes.length t.used in
    let free = close_hole t (n - 1) i i in
    Bytes.unsafe_set t.used free '\000';
    t.vals.(free) <- t.vals.(n);
    t.size <- t.size - 1
  end

let find2 t a b =
  let i = slot t a b in
  if i < 0 then raise_notrace Not_found else t.vals.(i)

let find_opt2 t a b =
  let i = slot t a b in
  if i < 0 then None else Some t.vals.(i)

let reset t =
  t.size <- 0;
  t.shift <- Sys.int_size;
  t.used <- Bytes.empty;
  t.keys <- [||];
  t.vals <- [||]

(* Slots are in home-slot order, which depends on the table's history, so
   whole-table visits take a key-sorted snapshot first. The snapshot also
   makes it safe for the callback to change the table. *)
let sorted_bindings t =
  let acc = ref [] in
  for i = Bytes.length t.used - 1 downto 0 do
    if Bytes.unsafe_get t.used i <> '\000' then
      acc := (t.keys.(2 * i), t.keys.((2 * i) + 1), t.vals.(i)) :: !acc
  done;
  List.sort
    (fun (a1, b1, _) (a2, b2, _) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2)
    !acc

let find t k = find2 t k 0
let find_opt t k = find_opt2 t k 0
let mem t k = slot t k 0 >= 0
let replace t k v = replace2 t k 0 v
let remove t k = remove2 t k 0
let bindings t = List.map (fun (k, _, v) -> (k, v)) (sorted_bindings t)
let iter f t = List.iter (fun (k, _, v) -> f k v) (sorted_bindings t)
let fold f t init = List.fold_left (fun acc (k, _, v) -> f k v acc) init (sorted_bindings t)

let longest_probe t =
  let mask = Bytes.length t.used - 1 and longest = ref 0 in
  for i = 0 to mask do
    if Bytes.unsafe_get t.used i <> '\000' then begin
      let h = home t.shift t.keys.(2 * i) t.keys.((2 * i) + 1) in
      longest := Int.max !longest (((i - h) land mask) + 1)
    end
  done;
  !longest

module Pair = struct
  type nonrec 'a t = 'a t

  let create = create
  let length = length
  let find = find2
  let find_opt = find_opt2
  let mem t a b = slot t a b >= 0
  let replace = replace2
  let remove = remove2
  let bindings t = List.map (fun (a, b, v) -> ((a, b), v)) (sorted_bindings t)
  let fold f t init =
    List.fold_left (fun acc (a, b, v) -> f a b v acc) init (sorted_bindings t)
end
