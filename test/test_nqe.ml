(* NQE codec and hugepage allocator unit + property tests. *)

open Nkcore
module Types = Tcpstack.Types

let all_ops =
  [
    Nqe.Socket; Nqe.Bind; Nqe.Listen; Nqe.Connect; Nqe.Send; Nqe.Recv_done; Nqe.Close;
    Nqe.Comp_socket; Nqe.Comp_bind; Nqe.Comp_listen; Nqe.Comp_connect; Nqe.Comp_send;
    Nqe.Comp_close; Nqe.Ev_accept; Nqe.Ev_data; Nqe.Ev_eof; Nqe.Ev_err;
  ]

let roundtrip_all_ops () =
  List.iter
    (fun op ->
      let nqe =
        Nqe_codec.make ~op ~vm_id:7 ~qset:3 ~sock:123456 ~op_data:0x1234_5678_9ABC
          ~data_ptr:987654 ~size:4096 ~synthetic:true ()
      in
      let buf = Nqe_codec.encode nqe in
      Alcotest.(check int) "32 bytes" Nqe.size_bytes (Bytes.length buf);
      match Nqe_codec.decode buf with
      | Error e -> Alcotest.failf "decode failed for %s: %s" (Nqe.op_to_string op) e
      | Ok d ->
          Alcotest.(check bool) "op" true (d.Nqe_codec.op = op);
          Alcotest.(check int) "vm_id" 7 d.Nqe_codec.vm_id;
          Alcotest.(check int) "qset" 3 d.Nqe_codec.qset;
          Alcotest.(check int) "sock" 123456 d.Nqe_codec.sock;
          Alcotest.(check int) "op_data" 0x1234_5678_9ABC d.Nqe_codec.op_data;
          Alcotest.(check int) "data_ptr" 987654 d.Nqe_codec.data_ptr;
          Alcotest.(check int) "size" 4096 d.Nqe_codec.size;
          Alcotest.(check bool) "synthetic" true d.Nqe_codec.synthetic)
    all_ops

let decode_garbage () =
  (match Nqe_codec.decode (Bytes.make 32 '\xEE') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage op byte must not decode");
  match Nqe_codec.decode (Bytes.create 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short buffer must not decode"

let addr_packing () =
  let a = Addr.make 192168001 65535 in
  let packed = Nqe.pack_addr a in
  let b = Nqe.unpack_addr packed in
  Alcotest.(check bool) "addr roundtrip" true (Addr.equal a b)

let err_codes () =
  List.iter
    (fun e ->
      match Nqe.err_of_code (Nqe.err_code e) with
      | Some e' when e = e' -> ()
      | Some e' ->
          Alcotest.failf "err roundtrip: %s became %s" (Types.err_to_string e)
            (Types.err_to_string e')
      | None -> Alcotest.failf "err %s decoded as success" (Types.err_to_string e))
    [
      Types.Econnrefused; Types.Econnreset; Types.Etimedout; Types.Eaddrinuse;
      Types.Einval; Types.Enotconn; Types.Eclosed; Types.Eagain; Types.Enobufs;
    ];
  Alcotest.(check bool) "0 is success" true (Nqe.err_of_code Nqe.ok_code = None)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"nqe field roundtrip" ~count:500
    QCheck.(
      quad (int_bound 255) (int_bound 254) (int_bound ((1 lsl 30) - 1)) (int_bound 1_000_000))
    (fun (vm_id, qset, sock, size) ->
      let nqe = Nqe_codec.make ~op:Nqe.Send ~vm_id ~qset ~sock ~data_ptr:(size * 3) ~size () in
      match Nqe_codec.decode (Nqe_codec.encode nqe) with
      | Error _ -> false
      | Ok d ->
          d.Nqe_codec.vm_id = vm_id && d.Nqe_codec.qset = qset && d.Nqe_codec.sock = sock
          && d.Nqe_codec.size = size
          && d.Nqe_codec.data_ptr = size * 3)

(* ---- zero-allocation views ---------------------------------------------- *)

(* Nqe.View is the hot path's flat accessor layer over the same 32 wire
   bytes; every field it exposes must agree with the full decoder on every
   opcode (and on span-stamped / edge-value records). *)
let view_equals_decode () =
  let check_one nqe =
    let raw = Nqe_codec.encode nqe in
    Alcotest.(check bool) "View.ok" true (Nqe.View.ok raw 0);
    match Nqe_codec.decode raw with
    | Error e -> Alcotest.failf "decode failed: %s" e
    | Ok d ->
        Alcotest.(check bool)
          (Printf.sprintf "op %s" (Nqe.op_to_string d.Nqe_codec.op))
          true
          (Nqe.View.op raw 0 = d.Nqe_codec.op);
        Alcotest.(check int) "vm_id" d.Nqe_codec.vm_id (Nqe.View.vm_id raw 0);
        Alcotest.(check int) "qset" d.Nqe_codec.qset (Nqe.View.qset raw 0);
        Alcotest.(check int) "sock" d.Nqe_codec.sock (Nqe.View.sock raw 0);
        Alcotest.(check int) "op_data" d.Nqe_codec.op_data (Nqe.View.op_data raw 0);
        Alcotest.(check int) "data_ptr" d.Nqe_codec.data_ptr (Nqe.View.data_ptr raw 0);
        Alcotest.(check int) "size" d.Nqe_codec.size (Nqe.View.size raw 0);
        Alcotest.(check bool) "synthetic" d.Nqe_codec.synthetic (Nqe.View.synthetic raw 0);
        Alcotest.(check int) "span" d.Nqe_codec.span (Nqe.View.span raw 0)
  in
  List.iter
    (fun op ->
      check_one
        (Nqe_codec.make ~op ~vm_id:7 ~qset:3 ~sock:123456 ~op_data:0x1234_5678_9ABC
           ~data_ptr:987654 ~size:4096 ~synthetic:true ());
      check_one (Nqe_codec.make ~op ~vm_id:0 ~qset:0 ~sock:0 ());
      check_one
        (Nqe_codec.make ~op ~vm_id:255 ~qset:Nqe.qset_unassigned
           ~sock:((1 lsl 31) - 1)
           ~op_data:min_int
           ~data_ptr:((1 lsl 40) - 1)
           ~size:((1 lsl 31) - 1)
           ~span:((1 lsl 31) - 1)
           ()))
    all_ops;
  (* View.ok mirrors decode's rejections. *)
  Alcotest.(check bool) "garbage op" false (Nqe.View.ok (Bytes.make 32 '\xEE') 0);
  Alcotest.(check bool) "short buffer" false (Nqe.View.ok (Bytes.create 10) 0)

let view_set_qset () =
  let raw = Nqe_codec.encode (Nqe_codec.make ~op:Nqe.Ev_accept ~vm_id:9 ~qset:Nqe.qset_unassigned ~sock:5 ()) in
  Nqe.View.set_qset raw 0 17;
  Alcotest.(check int) "patched qset" 17 (Nqe.View.qset raw 0);
  match Nqe_codec.decode raw with
  | Ok d -> Alcotest.(check int) "decoder sees the patch" 17 d.Nqe_codec.qset
  | Error e -> Alcotest.failf "decode after patch: %s" e

let qcheck_view_equivalence =
  QCheck.Test.make ~name:"view/decode equivalence (random fields)" ~count:500
    QCheck.(
      quad (int_bound 255) (int_bound 254) (int_bound ((1 lsl 30) - 1)) (int_bound 1_000_000))
    (fun (vm_id, qset, sock, size) ->
      let op = List.nth all_ops (sock mod List.length all_ops) in
      let raw =
        Nqe_codec.encode
          (Nqe_codec.make ~op ~vm_id ~qset ~sock ~op_data:(size * 7)
             ~data_ptr:(size * 3) ~size ~span:(sock lxor size) ())
      in
      match Nqe_codec.decode raw with
      | Error _ -> false
      | Ok d ->
          Nqe.View.ok raw 0 && Nqe.View.op raw 0 = d.Nqe_codec.op
          && Nqe.View.vm_id raw 0 = d.Nqe_codec.vm_id
          && Nqe.View.qset raw 0 = d.Nqe_codec.qset
          && Nqe.View.sock raw 0 = d.Nqe_codec.sock
          && Nqe.View.op_data raw 0 = d.Nqe_codec.op_data
          && Nqe.View.data_ptr raw 0 = d.Nqe_codec.data_ptr
          && Nqe.View.size raw 0 = d.Nqe_codec.size
          && Nqe.View.synthetic raw 0 = d.Nqe_codec.synthetic
          && Nqe.View.span raw 0 = d.Nqe_codec.span)

(* ---- the slot writer against the reference codec ------------------------- *)

(* Field bounds of the 32-byte layout: one byte for vm_id and qset, 32 bits
   for sock, size and span, a whole int for op_data and data_ptr. *)
let u32_max = 0xFFFF_FFFF

let record_gen =
  QCheck.Gen.(
    let field lo hi = frequency [ (1, return lo); (1, return hi); (3, int_range lo hi) ] in
    let word = frequency [ (1, return min_int); (1, return max_int); (1, return 0); (3, int) ] in
    oneofl all_ops >>= fun op ->
    field 0 255 >>= fun vm_id ->
    field 0 255 >>= fun qset ->
    field 0 u32_max >>= fun sock ->
    word >>= fun op_data ->
    word >>= fun data_ptr ->
    field 0 u32_max >>= fun size ->
    bool >>= fun synthetic ->
    field 0 u32_max >>= fun span ->
    return (Nqe_codec.make ~op ~vm_id ~qset ~sock ~op_data ~data_ptr ~size ~synthetic ~span ()))

let write_record buf ~pos (r : Nqe_codec.t) =
  Nqe.write buf ~pos ~op:r.Nqe_codec.op ~vm_id:r.vm_id ~qset:r.qset ~sock:r.sock
    ~op_data:r.op_data ~data_ptr:r.data_ptr ~size:r.size ~synthetic:r.synthetic ~span:r.span

(* [r] written at slot [slot] of an eight-slot buffer of noise: the 32 bytes
   are the reference encoding, every view reads back the reference
   decoding, and no byte outside the slot moves. *)
let writer_agrees ~noise (r : Nqe_codec.t) slot =
  let buf = Bytes.of_string noise in
  let pos = slot * Nqe.size_bytes in
  write_record buf ~pos r;
  let d = Result.get_ok (Nqe_codec.decode (Nqe_codec.encode r)) in
  Bytes.equal (Bytes.sub buf pos Nqe.size_bytes) (Nqe_codec.encode r)
  && Nqe_codec.decode_from buf ~pos = Ok d
  && d = r
  && Nqe.View.ok buf pos
  && Nqe.View.op buf pos = d.Nqe_codec.op
  && Nqe.View.vm_id buf pos = d.vm_id
  && Nqe.View.qset buf pos = d.qset
  && Nqe.View.sock buf pos = d.sock
  && Nqe.View.op_data buf pos = d.op_data
  && Nqe.View.data_ptr buf pos = d.data_ptr
  && Nqe.View.size buf pos = d.size
  && Nqe.View.synthetic buf pos = d.synthetic
  && Nqe.View.span buf pos = d.span
  && String.equal (Bytes.sub_string buf 0 pos) (String.sub noise 0 pos)
  &&
  let past = pos + Nqe.size_bytes in
  String.equal
    (Bytes.sub_string buf past (Bytes.length buf - past))
    (String.sub noise past (String.length noise - past))

let slots8 = 8 * Nqe.size_bytes

let qcheck_writer_oracle =
  QCheck.Test.make ~name:"slot writer + views equal the reference codec" ~count:1000
    (QCheck.make
       QCheck.Gen.(triple record_gen (int_bound 7) (string_size ~gen:char (return slots8)))
       ~print:(fun (r, slot, _) ->
         Printf.sprintf "%s vm=%d qset=%d sock=%d op_data=%d data_ptr=%d size=%d syn=%b span=%d at slot %d"
           (Nqe.op_to_string r.Nqe_codec.op) r.vm_id r.qset r.sock r.op_data r.data_ptr r.size
           r.synthetic r.span slot))
    (fun (r, slot, noise) -> writer_agrees ~noise r slot)

(* Every opcode with every field at its low and at its high bound. *)
let writer_bounds_all_ops () =
  let noise = String.init slots8 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  List.iter
    (fun op ->
      List.iteri
        (fun slot r ->
          if not (writer_agrees ~noise r slot) then
            Alcotest.failf "%s at slot %d disagrees with the reference codec"
              (Nqe.op_to_string op) slot)
        [
          Nqe_codec.make ~op ~vm_id:0 ~qset:0 ~sock:0 ~op_data:min_int ~data_ptr:min_int ~size:0
            ~synthetic:false ~span:0 ();
          Nqe_codec.make ~op ~vm_id:255 ~qset:255 ~sock:u32_max ~op_data:max_int
            ~data_ptr:max_int ~size:u32_max ~synthetic:true ~span:u32_max ();
          Nqe_codec.make ~op ~vm_id:1 ~qset:Nqe.qset_unassigned ~sock:Nqe.nsm_sock_bit
            ~op_data:(-1) ~data_ptr:0 ~size:1 ~synthetic:true ~span:1 ();
        ])
    all_ops

(* ---- NQE rings ------------------------------------------------------------ *)

(* NQE number [k]: every field moves with [k], so a lost, repeated or
   reordered NQE shows in the bytes. *)
let write_nth buf pos k =
  Nqe.write buf ~pos ~op:(List.nth all_ops (k mod 17)) ~vm_id:(k land 0xFF)
    ~qset:((k lsr 8) land 0xFF) ~sock:k ~op_data:(k * 7919) ~data_ptr:(k * 64)
    ~size:(k land 0xFFFF) ~synthetic:(k land 1 = 1) ~span:(k lxor 0x5555)

type ring_step = Push of int | Pop of int | Drain of int

let ring_step_to_string = function
  | Push n -> Printf.sprintf "push %d" n
  | Pop n -> Printf.sprintf "pop %d" n
  | Drain n -> Printf.sprintf "drain %d" n

let ring_case_gen =
  QCheck.Gen.(
    pair
      (frequency [ (4, int_range 1 300); (1, return 8192) ])
      (list_size (int_range 1 60)
         (frequency
            [
              (3, map (fun n -> Push n) (int_range 1 200));
              (2, map (fun n -> Pop n) (int_range 1 80));
              (1, map (fun n -> Drain n) (int_range 0 200));
            ])))

(* Runs of pushes, pops and drains against a queue of copied NQEs. After
   every push and pop, and after every drain: the capacity is the power of
   two at or above the one asked for, a push fails exactly when the queue
   holds that many, the length matches, the slots allocated lie between the
   length and the capacity, and every NQE comes out as it went in, oldest
   first. Long push runs grow the slots while the head sits past the wrap
   point. *)
let qcheck_nqe_ring =
  QCheck.Test.make ~name:"nqe ring equals a queue of copied NQEs" ~count:300
    (QCheck.make ring_case_gen ~print:(fun (capacity, steps) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat ", " (List.map ring_step_to_string steps))))
    (fun (capacity, steps) ->
      let r = Nqe_ring.create ~capacity in
      let cap = Nqe_ring.capacity r in
      let q = Queue.create () in
      let next = ref 0 in
      let src = Bytes.make (3 * Nqe.size_bytes) '\x11' in
      let dst = Bytes.make (3 * Nqe.size_bytes) '\x22' in
      let ok = ref (cap >= capacity && cap < 2 * capacity && cap land (cap - 1) = 0) in
      let fits () =
        let n = Nqe_ring.length r and slots = Nqe_ring.slots r in
        n = Queue.length q
        && Nqe_ring.is_empty r = (n = 0)
        && Nqe_ring.capacity r = cap
        && slots >= n && slots <= cap
        && (slots = 0 || slots land (slots - 1) = 0)
      in
      let pop_one () =
        let got = Nqe_ring.pop r dst Nqe.size_bytes in
        match Queue.take_opt q with
        | None -> not got
        | Some e -> got && Bytes.equal (Bytes.sub dst Nqe.size_bytes Nqe.size_bytes) e
      in
      List.iter
        (fun step ->
          match step with
          | Push n ->
              for _ = 1 to n do
                write_nth src Nqe.size_bytes !next;
                let room = Queue.length q < cap in
                let pushed = Nqe_ring.push r src Nqe.size_bytes in
                if pushed then begin
                  Queue.add (Bytes.sub src Nqe.size_bytes Nqe.size_bytes) q;
                  incr next
                end;
                ok := !ok && pushed = room && fits ()
              done
          | Pop n ->
              for _ = 1 to n do
                let popped = pop_one () in
                ok := !ok && popped && fits ()
              done
          | Drain n ->
              let buf = Bytes.make ((n + 2) * Nqe.size_bytes) '\xAA' in
              let k = Nqe_ring.pop_slice r buf ~slot:1 ~max:n in
              ok := !ok && k = Int.min n (Queue.length q);
              for i = 1 to k do
                let e = Queue.pop q in
                ok :=
                  !ok && Bytes.equal (Bytes.sub buf (i * Nqe.size_bytes) Nqe.size_bytes) e
              done;
              let untouched off len = Bytes.equal (Bytes.sub buf off len) (Bytes.make len '\xAA') in
              ok :=
                !ok
                && untouched 0 Nqe.size_bytes
                && untouched ((k + 1) * Nqe.size_bytes) ((n + 1 - k) * Nqe.size_bytes)
                && fits ())
        steps;
      while not (Queue.is_empty q) do
        let popped = pop_one () in
        ok := !ok && popped
      done;
      !ok && fits () && not (Nqe_ring.pop r dst 0))

(* ---- hugepages ---------------------------------------------------------- *)

let hp_alloc_free () =
  let hp = Hugepages.create ~page_size:4096 ~pages:4 () in
  Alcotest.(check int) "capacity" (4 * 4096) (Hugepages.capacity hp);
  let e1 = Option.get (Hugepages.alloc hp 1000) in
  let e2 = Option.get (Hugepages.alloc hp 2000) in
  Alcotest.(check bool) "disjoint" true
    (e1.Hugepages.offset + 1024 <= e2.Hugepages.offset
    || e2.Hugepages.offset + 2048 <= e1.Hugepages.offset);
  Hugepages.free hp e1;
  Hugepages.free hp e2;
  Alcotest.(check int) "all returned" 0 (Hugepages.bytes_in_use hp);
  (* After full free we can allocate the whole region again. *)
  match Hugepages.alloc hp (4 * 4096) with
  | Some e -> Hugepages.free hp e
  | None -> Alcotest.fail "coalescing failed: full-size alloc rejected"

let hp_double_free () =
  let hp = Hugepages.create ~page_size:4096 ~pages:1 () in
  let e = Option.get (Hugepages.alloc hp 128) in
  Hugepages.free hp e;
  match Hugepages.free hp e with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double free not detected"

let hp_exhaustion () =
  let hp = Hugepages.create ~page_size:4096 ~pages:1 () in
  let e = Option.get (Hugepages.alloc hp 4000) in
  (match Hugepages.alloc hp 1024 with
  | None -> ()
  | Some _ -> Alcotest.fail "allocation should fail when full");
  Hugepages.free hp e

let hp_payload_roundtrip () =
  let hp = Hugepages.create ~page_size:4096 ~pages:2 () in
  let e = Option.get (Hugepages.alloc hp 64) in
  Hugepages.write_payload hp e (Types.Data "hello hugepages");
  (match Hugepages.read_payload hp e ~pos:0 ~len:15 ~synthetic:false with
  | Types.Data s -> Alcotest.(check string) "content" "hello hugepages" s
  | Types.Zeros _ -> Alcotest.fail "expected data");
  (match Hugepages.read_payload hp e ~pos:6 ~len:4 ~synthetic:false with
  | Types.Data s -> Alcotest.(check string) "slice" "huge" s
  | Types.Zeros _ -> Alcotest.fail "expected data");
  match Hugepages.read_payload hp e ~pos:0 ~len:64 ~synthetic:true with
  | Types.Zeros 64 -> Hugepages.free hp e
  | Types.Zeros _ | Types.Data _ -> Alcotest.fail "synthetic read should be Zeros 64"

let qcheck_allocator =
  (* Random alloc/free interleavings: live extents never overlap, and
     accounting is exact. *)
  QCheck.Test.make ~name:"hugepage allocator invariants" ~count:100
    QCheck.(list (int_range 1 5000))
    (fun sizes ->
      let hp = Hugepages.create ~page_size:65536 ~pages:4 () in
      let live = ref [] in
      let ok = ref true in
      List.iteri
        (fun i size ->
          if i mod 3 = 2 then (
            match !live with
            | e :: rest ->
                Hugepages.free hp e;
                live := rest
            | [] -> ())
          else
            match Hugepages.alloc hp size with
            | None -> ()
            | Some e ->
                List.iter
                  (fun (other : Hugepages.extent) ->
                    let disjoint =
                      e.Hugepages.offset >= other.Hugepages.offset + other.Hugepages.len
                      || other.Hugepages.offset >= e.Hugepages.offset + e.Hugepages.len
                    in
                    if not disjoint then ok := false)
                  !live;
                live := e :: !live)
        sizes;
      List.iter (Hugepages.free hp) !live;
      !ok && Hugepages.bytes_in_use hp = 0)

(* ---- the list allocator as an oracle ----------------------------------- *)

(* Hugepages' allocator as it was while its holes lived in a list: first fit
   over (offset, len) holes sorted by offset, 64-byte rounding, and a free
   that inserts the hole and coalesces the list. The array allocator must
   hand out exactly its offsets. *)
module List_alloc = struct
  type t = {
    mutable holes : (int * int) list;
    live : (int, int) Hashtbl.t;
    mutable in_use : int;
  }

  let create size = { holes = [ (0, size) ]; live = Hashtbl.create 64; in_use = 0 }
  let round n = (n + 63) land lnot 63

  let alloc t n =
    let need = round n in
    let rec take acc = function
      | [] -> None
      | (off, len) :: rest when len >= need ->
          let remainder = if len > need then [ (off + need, len - need) ] else [] in
          t.holes <- List.rev_append acc (remainder @ rest);
          t.in_use <- t.in_use + need;
          Hashtbl.replace t.live off need;
          Some off
      | hole :: rest -> take (hole :: acc) rest
    in
    take [] t.holes

  let free t offset =
    let rounded = Hashtbl.find t.live offset in
    Hashtbl.remove t.live offset;
    t.in_use <- t.in_use - rounded;
    let rec insert acc = function
      | [] -> List.rev ((offset, rounded) :: acc)
      | (off, len) :: rest ->
          if offset < off then List.rev_append acc ((offset, rounded) :: (off, len) :: rest)
          else insert ((off, len) :: acc) rest
    in
    let merged =
      List.fold_left
        (fun acc (o2, l2) ->
          match acc with
          | (o1, l1) :: tl when o1 + l1 = o2 -> (o1, l1 + l2) :: tl
          | _ -> (o2, l2) :: acc)
        [] (insert [] t.holes)
    in
    t.holes <- List.rev merged

  let allocations t = Hashtbl.length t.live
end

let oracle_region = 4 * 4096

(* Sizes from 1 B to the whole region, many of them one byte either side of
   a 64 B boundary. *)
let oracle_size_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_range 1 256);
        (3, map2 (fun k d -> (64 * k) + d) (int_range 1 40) (int_range (-1) 1));
        (1, int_range 1 oracle_region);
      ])

(* [`Free i] frees live extent [i mod live], oldest first, so any extent
   can go. The run then allocates 64 B until the region is full and frees
   what is left, [frees] picking the order. *)
let oracle_gen =
  QCheck.Gen.(
    let op =
      frequency [ (3, map (fun n -> `Alloc n) oracle_size_gen); (2, map (fun i -> `Free i) nat) ]
    in
    pair (list_size (int_range 0 120) op) (list_size (int_range 1 20) nat))

let oracle_arb =
  QCheck.make oracle_gen ~print:(fun (ops, frees) ->
      Printf.sprintf "ops [%s], frees [%s]"
        (String.concat "; "
           (List.map
              (function
                | `Alloc n -> Printf.sprintf "alloc %d" n
                | `Free i -> Printf.sprintf "free %d" i)
              ops))
        (String.concat "; " (List.map string_of_int frees)))

let qcheck_allocator_oracle =
  QCheck.Test.make ~name:"hugepage offsets equal the list allocator's" ~count:300 oracle_arb
    (fun (ops, frees) ->
      let hp = Hugepages.create ~page_size:4096 ~pages:4 () in
      let oracle = List_alloc.create oracle_region in
      let live = ref [] (* oldest first *) in
      let same_accounting () =
        Hugepages.bytes_in_use hp = oracle.List_alloc.in_use
        && Hugepages.allocations hp = List_alloc.allocations oracle
      in
      let alloc n =
        match (Hugepages.alloc hp n, List_alloc.alloc oracle n) with
        | None, None -> `Full
        | Some e, Some off when e.Hugepages.offset = off && e.Hugepages.len = n ->
            live := !live @ [ e ];
            `Ok
        | Some e, Some off ->
            QCheck.Test.fail_reportf "alloc %d: offset %d len %d, oracle %d" n
              e.Hugepages.offset e.Hugepages.len off
        | Some e, None ->
            QCheck.Test.fail_reportf "alloc %d: %d, oracle None" n e.Hugepages.offset
        | None, Some off -> QCheck.Test.fail_reportf "alloc %d: None, oracle %d" n off
      in
      let free i =
        match !live with
        | [] -> ()
        | l ->
            let e = List.nth l (i mod List.length l) in
            live := List.filter (fun x -> x != e) l;
            Hugepages.free hp e;
            List_alloc.free oracle e.Hugepages.offset
      in
      let step f =
        f ();
        if not (same_accounting ()) then
          QCheck.Test.fail_reportf "accounting: %d B in %d extents, oracle %d B in %d"
            (Hugepages.bytes_in_use hp) (Hugepages.allocations hp) oracle.List_alloc.in_use
            (List_alloc.allocations oracle)
      in
      List.iter
        (function
          | `Alloc n -> step (fun () -> ignore (alloc n)) | `Free i -> step (fun () -> free i))
        ops;
      let full = ref false in
      while not !full do
        step (fun () -> full := alloc 64 = `Full)
      done;
      let frees = Array.of_list frees in
      let k = ref 0 in
      while !live <> [] do
        step (fun () -> free frees.(!k mod Array.length frees));
        incr k
      done;
      Hugepages.bytes_in_use hp = 0
      && List_alloc.alloc oracle oracle_region = Some 0
      && (match Hugepages.alloc hp oracle_region with
         | Some e -> e.Hugepages.offset = 0
         | None -> false))

(* An alloc and a free that walk eight holes: seven 64 B holes below the
   one that fits. They allocate only the extent, its [Some] and the live
   table's binding, 9 words (228 when the holes were a list). *)
let hp_alloc_free_words () =
  let hp = Hugepages.create ~page_size:4096 ~pages:4 () in
  let extents = Array.init 15 (fun _ -> Option.get (Hugepages.alloc hp 64)) in
  Array.iteri (fun i e -> if i mod 2 = 0 then Hugepages.free hp e) extents;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    match Hugepages.alloc hp 1000 with
    | Some e -> Hugepages.free hp e
    | None -> Alcotest.fail "region full"
  done;
  let words = (Gc.minor_words () -. w0) /. 1_000.0 in
  if words > 24.0 then Alcotest.failf "%.1f minor words per alloc + free, want <= 24" words

let hp_fragmentation_stress () =
  (* Thousands of interleaved extents: freeing every second one first
     leaves ~n/2 disjoint holes, so each remaining free lands in a
     maximally fragmented hole set and merges two holes into one. *)
  let n = 8192 in
  let hp = Hugepages.create ~page_size:(2 * 1024 * 1024) ~pages:(n / 2) () in
  let extents = Array.init n (fun _ -> Option.get (Hugepages.alloc hp 64)) in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then Hugepages.free hp extents.(i)
  done;
  Alcotest.(check int) "live after even frees" (n / 2) (Hugepages.allocations hp);
  for i = 0 to n - 1 do
    if i mod 2 = 1 then Hugepages.free hp extents.(i)
  done;
  Alcotest.(check int) "all returned" 0 (Hugepages.bytes_in_use hp);
  Alcotest.(check int) "nothing live" 0 (Hugepages.allocations hp);
  (* Holes coalesced back into one region: the full capacity is allocatable
     again in a single extent. *)
  match Hugepages.alloc hp (Hugepages.capacity hp) with
  | Some e -> Hugepages.free hp e
  | None -> Alcotest.fail "free list did not coalesce back to one hole"

let tests =
  [
    Alcotest.test_case "roundtrip all ops" `Quick roundtrip_all_ops;
    Alcotest.test_case "decode garbage" `Quick decode_garbage;
    Alcotest.test_case "addr packing" `Quick addr_packing;
    Alcotest.test_case "err codes" `Quick err_codes;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "view equals decode (all ops)" `Quick view_equals_decode;
    Alcotest.test_case "view qset patch" `Quick view_set_qset;
    QCheck_alcotest.to_alcotest qcheck_view_equivalence;
    Alcotest.test_case "hugepages alloc/free/coalesce" `Quick hp_alloc_free;
    Alcotest.test_case "hugepages double free" `Quick hp_double_free;
    Alcotest.test_case "hugepages exhaustion" `Quick hp_exhaustion;
    Alcotest.test_case "hugepages payload roundtrip" `Quick hp_payload_roundtrip;
    Alcotest.test_case "hugepages fragmentation stress" `Quick hp_fragmentation_stress;
    QCheck_alcotest.to_alcotest qcheck_allocator;
    QCheck_alcotest.to_alcotest qcheck_allocator_oracle;
    Alcotest.test_case "hugepage alloc + free with 8 holes allocates <= 24 words" `Quick
      hp_alloc_free_words;
    QCheck_alcotest.to_alcotest qcheck_writer_oracle;
    Alcotest.test_case "slot writer at every field bound (all ops)" `Quick
      writer_bounds_all_ops;
    QCheck_alcotest.to_alcotest qcheck_nqe_ring;
  ]
