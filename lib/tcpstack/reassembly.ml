type offer = { released : int; duplicate : int; fin_reached : bool }

type t = {
  mutable next_abs : int; (* absolute (unwrapped) receive-next offset *)
  mutable next_mod : int; (* same, mod 2^32 *)
  mutable ranges : (int * int) list; (* disjoint [lo, hi) absolute, sorted *)
  mutable fin_abs : int option; (* absolute offset of the FIN, if seen *)
  mutable fin_delivered : bool;
}

let create ~next () =
  { next_abs = 0; next_mod = next land (Tcp_seq.modulus - 1); ranges = []; fin_abs = None;
    fin_delivered = false }

let next t = t.next_mod

let ooo_bytes t = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 t.ranges

(* Insert [lo, hi) into the sorted disjoint list, merging overlaps. Returns
   the new list and how many bytes of [lo, hi) were already covered. *)
let insert_range ranges lo hi =
  let rec loop acc covered lo hi = function
    | [] -> (List.rev_append acc [ (lo, hi) ], covered)
    | (rlo, rhi) :: rest ->
        if rhi < lo then loop ((rlo, rhi) :: acc) covered lo hi rest
        else if hi < rlo then (List.rev_append acc ((lo, hi) :: (rlo, rhi) :: rest), covered)
        else begin
          (* Overlapping or adjacent: merge and account the intersection. *)
          let inter = Int.max 0 (Int.min hi rhi - Int.max lo rlo) in
          loop acc (covered + inter) (Int.min lo rlo) (Int.max hi rhi) rest
        end
  in
  loop [] 0 lo hi ranges

type snapshot = {
  s_next_abs : int;
  s_next_mod : int;
  s_ranges : (int * int) list;
  s_fin_abs : int option;
  s_fin_delivered : bool;
}

let snapshot t =
  {
    s_next_abs = t.next_abs;
    s_next_mod = t.next_mod;
    s_ranges = t.ranges;
    s_fin_abs = t.fin_abs;
    s_fin_delivered = t.fin_delivered;
  }

let restore s =
  {
    next_abs = s.s_next_abs;
    next_mod = s.s_next_mod;
    ranges = s.s_ranges;
    fin_abs = s.s_fin_abs;
    fin_delivered = s.s_fin_delivered;
  }

let offer t ~seq ~len ~fin =
  (* Unwrap the 32-bit sequence number relative to the expected pointer. *)
  let rel = Tcp_seq.diff seq t.next_mod in
  let lo = t.next_abs + rel in
  let hi = lo + len in
  let fin_pos = if fin then Some hi else None in
  (match fin_pos with
  | Some pos -> if t.fin_abs = None then t.fin_abs <- Some pos
  | None -> ());
  (* Bytes entirely in the past are duplicates. *)
  let dup_below = Int.max 0 (Int.min hi t.next_abs - lo) in
  let lo = Int.max lo t.next_abs in
  let duplicate, released =
    if lo >= hi then ((if len > 0 then len else 0), 0)
    else begin
      let ranges, covered = insert_range t.ranges lo hi in
      t.ranges <- ranges;
      (* Release the leading contiguous run. *)
      let released =
        match t.ranges with
        | (rlo, rhi) :: rest when rlo <= t.next_abs ->
            let n = rhi - t.next_abs in
            t.next_abs <- rhi;
            t.ranges <- rest;
            n
        | _ -> 0
      in
      (dup_below + covered, released)
    end
  in
  t.next_mod <- Tcp_seq.add t.next_mod released;
  let fin_reached =
    match t.fin_abs with
    | Some pos when (not t.fin_delivered) && t.next_abs >= pos ->
        t.fin_delivered <- true;
        (* The FIN itself consumes one sequence number. *)
        t.next_mod <- Tcp_seq.add t.next_mod 1;
        true
    | Some _ | None -> false
  in
  { released; duplicate; fin_reached }
