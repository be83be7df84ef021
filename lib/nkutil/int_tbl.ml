(* An int-keyed hash table for the dataplane's bookkeeping (DESIGN.md §13).

   [Hashtbl.Make] over [int]: a lookup hashes and compares keys in OCaml,
   with no [caml_hash] call, no polymorphic compare and no boxed key.
   Hashtbl picks a bucket from the hash's low bits, and the keys here are
   often aligned: hugepage offsets are multiples of 64, packed connection
   keys carry the VM id above bit 32. So the hash must mix. It multiplies
   by an odd constant, which spreads every key bit upwards, then folds the
   high half onto the low half. *)

module H = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 32)) land max_int
end)

type 'a t = 'a H.t

let create = H.create
let length = H.length
let find = H.find
let find_opt = H.find_opt
let mem = H.mem
let replace = H.replace
let remove = H.remove
let reset = H.reset
let stats = H.stats

(* Bucket order depends on the table's history, so whole-table visits take
   a key-sorted snapshot first. The snapshot also makes it safe for [f] to
   change the table. *)
let bindings t =
  H.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)

let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)
let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)
