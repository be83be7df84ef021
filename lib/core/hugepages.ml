module Int_tbl = Nkutil.Int_tbl

type extent = { offset : int; len : int }

type t = {
  (* Backing store for the region's payload bytes. The allocator hands out
     offsets over the full [size], but the [bytes] itself is materialized
     lazily: regions default to 64 MB per VM and a first-fit allocator keeps
     the working set near offset 0, so eagerly zero-filling the whole span
     (the former [Bytes.create size]) dominated experiment setup wall-clock.
     [Bytes.create] zero-fills, and growth copies the old prefix, so the
     observable contents are identical to an eagerly allocated region. *)
  mutable buf : bytes;
  size : int;
  (* The free holes, coalesced (no two touch) and sorted by offset: hole
     [i < n_holes] spans [hole_off.(i)] .. [hole_off.(i) + hole_len.(i) - 1].
     Parallel int arrays, updated in place: alloc and free allocate
     nothing here. *)
  mutable hole_off : int array;
  mutable hole_len : int array;
  mutable n_holes : int;
  mutable in_use : int;
  live : int Int_tbl.t; (* offset -> rounded len, for double-free detection *)
  mon : Nkmon.t;
  region : string;
}

(* Grow the backing store to cover at least [need] bytes (next power of two,
   capped at the region size). *)
let ensure_backing t need =
  if need > Bytes.length t.buf then begin
    let cap = ref (Int.max 1 (Bytes.length t.buf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let cap = Int.min !cap t.size in
    let fresh = Bytes.create cap in
    Bytes.blit t.buf 0 fresh 0 (Bytes.length t.buf);
    t.buf <- fresh
  end

let create ?(page_size = 2 * 1024 * 1024) ?(pages = 32) ?(mon = Nkmon.null ())
    ?(region = "hugepages") () =
  let size = page_size * pages in
  let t =
    {
      buf = Bytes.create (Int.min size 4096);
      size;
      hole_off = Array.make 8 0;
      hole_len = Array.make 8 0;
      n_holes = 1;
      in_use = 0;
      live = Int_tbl.create 64;
      mon;
      region;
    }
  in
  t.hole_len.(0) <- size;
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"bytes_in_use" (fun () ->
      float_of_int t.in_use);
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"allocations" (fun () ->
      float_of_int (Int_tbl.length t.live));
  (* Capacity next to bytes_in_use so pressure (in_use / capacity) is
     computable from a registry snapshot alone — the Nkobs hugepage
     pressure alert reads exactly these two rows. *)
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"capacity_bytes" (fun () ->
      float_of_int t.size);
  t

let capacity t = t.size

let bytes_in_use t = t.in_use

let allocations t = Int_tbl.length t.live

(* Round to 64-byte cache lines so adjacent extents don't false-share. *)
let round n = (n + 63) land lnot 63

(* First fit: the lowest-offset hole of at least [need] bytes, or -1. *)
let rec first_fit t need i =
  if i >= t.n_holes then -1
  else if t.hole_len.(i) >= need then i
  else first_fit t need (i + 1)

(* The index of the first hole above [off] (hole offsets are distinct). *)
let rec hole_after t off lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if t.hole_off.(mid) < off then hole_after t off (mid + 1) hi
    else hole_after t off lo mid

let remove_hole t i =
  let n = t.n_holes in
  Array.blit t.hole_off (i + 1) t.hole_off i (n - i - 1);
  Array.blit t.hole_len (i + 1) t.hole_len i (n - i - 1);
  t.n_holes <- n - 1

let insert_hole t i off len =
  let n = t.n_holes in
  if n = Array.length t.hole_off then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.hole_off <- grow t.hole_off;
    t.hole_len <- grow t.hole_len
  end;
  Array.blit t.hole_off i t.hole_off (i + 1) (n - i);
  Array.blit t.hole_len i t.hole_len (i + 1) (n - i);
  t.hole_off.(i) <- off;
  t.hole_len.(i) <- len;
  t.n_holes <- n + 1

let alloc t n =
  if n <= 0 then invalid_arg "Hugepages.alloc: size must be positive";
  let need = round n in
  let i = first_fit t need 0 in
  if i < 0 then None
  else begin
    let off = t.hole_off.(i) in
    let len = t.hole_len.(i) in
    if len > need then begin
      t.hole_off.(i) <- off + need;
      t.hole_len.(i) <- len - need
    end
    else remove_hole t i;
    t.in_use <- t.in_use + need;
    Int_tbl.replace t.live off need;
    if Nkmon.tracing t.mon then
      Nkmon.event t.mon
        (Nkmon.Trace.Hugepage_alloc { region = t.region; offset = off; len = n });
    Some { offset = off; len = n }
  end

let free t e =
  match Int_tbl.find t.live e.offset with
  | exception Not_found -> invalid_arg "Hugepages.free: extent is not live (double free?)"
  | rounded ->
      Int_tbl.remove t.live e.offset;
      t.in_use <- t.in_use - rounded;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon
          (Nkmon.Trace.Hugepage_free { region = t.region; offset = e.offset; len = e.len });
      (* Put the extent back as a hole, merged with the holes it touches. *)
      let off = e.offset in
      let i = hole_after t off 0 t.n_holes in
      let joins_left = i > 0 && t.hole_off.(i - 1) + t.hole_len.(i - 1) = off in
      let joins_right = i < t.n_holes && off + rounded = t.hole_off.(i) in
      if joins_left && joins_right then begin
        t.hole_len.(i - 1) <- t.hole_len.(i - 1) + rounded + t.hole_len.(i);
        remove_hole t i
      end
      else if joins_left then t.hole_len.(i - 1) <- t.hole_len.(i - 1) + rounded
      else if joins_right then begin
        t.hole_off.(i) <- off;
        t.hole_len.(i) <- rounded + t.hole_len.(i)
      end
      else insert_hole t i off rounded

let blit_in t e s len =
  ensure_backing t (e.offset + len);
  Bytes.blit_string s 0 t.buf e.offset len

let write_payload t e payload =
  let len = Tcpstack.Types.payload_len payload in
  if len > e.len then invalid_arg "Hugepages.write_payload: payload larger than extent";
  match payload with
  | Tcpstack.Types.Zeros _ -> ()
  | Tcpstack.Types.Data s -> blit_in t e s len

let write_prefix t e s =
  if e.len > String.length s then
    invalid_arg "Hugepages.write_prefix: string shorter than extent";
  blit_in t e s e.len

let read_payload t e ~pos ~len ~synthetic =
  if pos < 0 || len < 0 || pos + len > e.len then
    invalid_arg "Hugepages.read_payload: slice out of extent";
  if synthetic then Tcpstack.Types.Zeros len
  else begin
    ensure_backing t (e.offset + pos + len);
    Tcpstack.Types.Data (Bytes.sub_string t.buf (e.offset + pos) len)
  end

let blit_between ~src ~src_extent ~dst ~dst_extent ~len =
  if len > src_extent.len || len > dst_extent.len then
    invalid_arg "Hugepages.blit_between: length exceeds an extent";
  ensure_backing src (src_extent.offset + len);
  ensure_backing dst (dst_extent.offset + len);
  Bytes.blit src.buf src_extent.offset dst.buf dst_extent.offset len
