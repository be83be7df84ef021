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
  mutable free_list : (int * int) list; (* (offset, len), sorted by offset *)
  mutable in_use : int;
  live : (int, int) Hashtbl.t; (* offset -> len, for double-free detection *)
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
      free_list = [ (0, size) ];
      in_use = 0;
      live = Hashtbl.create 64;
      mon;
      region;
    }
  in
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"bytes_in_use" (fun () ->
      float_of_int t.in_use);
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"allocations" (fun () ->
      float_of_int (Hashtbl.length t.live));
  (* Capacity next to bytes_in_use so pressure (in_use / capacity) is
     computable from a registry snapshot alone — the Nkobs hugepage
     pressure alert reads exactly these two rows. *)
  Nkmon.sampler mon ~component:"hugepages" ~instance:region ~name:"capacity_bytes" (fun () ->
      float_of_int t.size);
  t

let capacity t = t.size

let bytes_in_use t = t.in_use

let allocations t = Hashtbl.length t.live

(* Round to 64-byte cache lines so adjacent extents don't false-share. *)
let round n = (n + 63) land lnot 63

let alloc t n =
  if n <= 0 then invalid_arg "Hugepages.alloc: size must be positive";
  let need = round n in
  let rec take acc = function
    | [] -> None
    | (off, len) :: rest when len >= need ->
        let remainder = if len > need then [ (off + need, len - need) ] else [] in
        t.free_list <- List.rev_append acc (remainder @ rest);
        t.in_use <- t.in_use + need;
        Hashtbl.replace t.live off need;
        if Nkmon.tracing t.mon then
          Nkmon.event t.mon
            (Nkmon.Trace.Hugepage_alloc { region = t.region; offset = off; len = n });
        Some { offset = off; len = n }
    | hole :: rest -> take (hole :: acc) rest
  in
  take [] t.free_list

let free t e =
  match Hashtbl.find_opt t.live e.offset with
  | None -> invalid_arg "Hugepages.free: extent is not live (double free?)"
  | Some rounded ->
      Hashtbl.remove t.live e.offset;
      t.in_use <- t.in_use - rounded;
      if Nkmon.tracing t.mon then
        Nkmon.event t.mon
          (Nkmon.Trace.Hugepage_free { region = t.region; offset = e.offset; len = e.len });
      (* Insert sorted by offset, then coalesce adjacent holes. Both passes
         are tail-recursive: a long-lived fragmented region accumulates
         thousands of holes, and freeing must not grow the OCaml stack with
         the free list. *)
      let rec insert acc = function
        | [] -> List.rev ((e.offset, rounded) :: acc)
        | (off, len) :: rest ->
            if e.offset < off then
              List.rev_append acc ((e.offset, rounded) :: (off, len) :: rest)
            else insert ((off, len) :: acc) rest
      in
      let coalesce holes =
        let merged =
          List.fold_left
            (fun acc (o2, l2) ->
              match acc with
              | (o1, l1) :: tl when o1 + l1 = o2 -> (o1, l1 + l2) :: tl
              | _ -> (o2, l2) :: acc)
            [] holes
        in
        List.rev merged
      in
      t.free_list <- coalesce (insert [] t.free_list)

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
