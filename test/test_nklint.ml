(* Fixture coverage for nklint's syntactic pass (tools/nklint): one
   minimal snippet per rule asserting it fires exactly where expected and
   stays silent on the sanctioned replacement idiom — plus a whole-system
   determinism regression: the CoreEngine connection table must dump
   byte-identically across two identical runs (the property rules D1/D2
   exist to protect). *)

open Nkcore
module L = Nklint.Syntactic
module Types = Tcpstack.Types

let lint ?(path = "lib/fixture.ml") src = L.lint_source ~path src

let check_diags what expected ?path src =
  let got = List.map (fun d -> (d.L.rule, d.L.line)) (lint ?path src) in
  Alcotest.(check (list (pair string int))) what expected got

(* ---- D1: wall clock / ambient randomness ------------------------------ *)

let d1_wall_clock () =
  check_diags "gettimeofday flagged in lib/"
    [ ("D1", 1) ]
    "let t0 = Unix.gettimeofday ()";
  check_diags "Sys.time flagged in lib/" [ ("D1", 2) ] "let x = 1\nlet t = Sys.time ()";
  check_diags "wall clock allowed in bench/" [] ~path:"bench/fixture.ml"
    "let t0 = Unix.gettimeofday ()"

let d1_randomness () =
  check_diags "ambient Random flagged" [ ("D1", 1) ] "let x = Random.int 5";
  (* The cluster fabric lives under lib/ like everything else: migration
     decisions must come from the seeded Rng, never ambient randomness. *)
  check_diags "ambient Random flagged under lib/nkfabric/"
    [ ("D1", 1) ]
    ~path:"lib/nkfabric/nkfabric.ml" "let pick = Random.int 2";
  (* The Homa grant pacer's SRPT choice must be a deterministic fold over
     active messages — ambient randomness there would desynchronize the
     grant clock across identical runs. *)
  check_diags "ambient Random flagged under lib/homastack/"
    [ ("D1", 1) ]
    ~path:"lib/homastack/homa.ml" "let quantum = Random.int 5792";
  (* The observability plane must observe virtual time only: a wall clock
     in an alert timestamp or flight dump would break byte-identical
     same-seed replays. *)
  check_diags "wall clock flagged under lib/nkobs/"
    [ ("D1", 1) ]
    ~path:"lib/nkobs/nkobs.ml" "let stamp = Unix.gettimeofday ()";
  check_diags "Random.self_init flagged" [ ("D1", 1) ] "let () = Random.self_init ()";
  check_diags "seeded Nkutil.Rng is the sanctioned source" []
    "let r = Nkutil.Rng.create ~seed:7\nlet x = Nkutil.Rng.int r 5"

(* ---- D2: order-sensitive Hashtbl iteration ---------------------------- *)

let d2_hashtbl_order () =
  check_diags "Hashtbl.iter flagged"
    [ ("D2", 1) ]
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl";
  check_diags "Hashtbl.fold flagged"
    [ ("D2", 1) ]
    "let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "Det_tbl replacement is silent" []
    "let f tbl = Nkutil.Det_tbl.fold ~cmp:Int.compare (fun _ _ acc -> acc) tbl 0";
  check_diags "Int_tbl iterates in key order: silent" []
    "let f tbl = Nkutil.Int_tbl.iter (fun _ _ -> ()) tbl";
  check_diags "ordered-ok waiver on the preceding line" []
    "(* nklint: ordered-ok *)\nlet f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "waiver only covers its own site"
    [ ("D2", 4) ]
    "(* nklint: ordered-ok *)\n\
     let f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0\n\
     \n\
     let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl"

(* ---- D3: bare polymorphic compare ------------------------------------- *)

let d3_poly_compare () =
  check_diags "Array.sort compare flagged"
    [ ("D3", 1) ]
    "let s a = Array.sort compare a";
  check_diags "Stdlib.compare as argument flagged"
    [ ("D3", 1) ]
    "let s l = List.sort Stdlib.compare l";
  check_diags "direct application is not the D3 target" [] "let c = compare 1 2";
  check_diags "monomorphic comparator is silent" []
    "let s l = List.sort Int.compare l"

(* ---- D4: Obj.magic and exception swallowing --------------------------- *)

let d4_obj_magic () =
  check_diags "Obj.magic flagged" [ ("D4", 1) ] "let f x = Obj.magic x";
  check_diags "typed dummy is silent" [] "let f d n = Array.make n d"

let d4_swallow () =
  check_diags "try ... with _ flagged" [ ("D4", 1) ] "let f g = try g () with _ -> ()";
  check_diags "specific exception is silent" []
    "let f g = try g () with Not_found -> ()";
  check_diags "swallow-ok waiver" []
    "let f g = try g () with _ -> () (* nklint: swallow-ok *)"

(* ---- P1: NQE wire-protocol invariants --------------------------------- *)

let p1_good =
  "type op = Socket | Close\n\
   let op_to_byte = function Socket -> 1 | Close -> 2\n\
   let op_of_byte = function 1 -> Some Socket | 2 -> Some Close | _ -> None\n\
   let size_bytes = 12\n\
   let write buf ~pos ~op =\n\
  \  Bytes.set_uint8 buf pos (op_to_byte op);\n\
  \  Bytes.set_int32_le buf (pos + 8) 0l\n"

let p1_bad =
  "type op = Socket | Close | Ev_err\n\
   let op_to_byte = function Socket -> 1 | Close -> 2 | Ev_err -> 2\n\
   let op_of_byte = function 1 -> Some Socket | 2 -> Some Close | _ -> None\n\
   let size_bytes = 16\n\
   let write buf ~pos ~op =\n\
  \  Bytes.set_uint8 buf pos (op_to_byte op);\n\
  \  Bytes.set_int64_le buf (pos + 4) 0L\n"

let p1_wire () =
  check_diags "consistent mini-codec is silent" ~path:"lib/core/nqe.ml" [] p1_good;
  check_diags "inconsistent codec: duplicate byte, missing decode arm, wrong span"
    ~path:"lib/core/nqe.ml"
    [ ("P1", 2); ("P1", 3); ("P1", 5) ]
    p1_bad;
  check_diags "P1 only applies to the real codec file" [] p1_bad

let p1_real_codec () =
  (* The invariant holds on the actual lib/core/nqe.ml writer: what it
     stores inside the declared wire size decodes back field for field. *)
  let nqe =
    Nqe_codec.make ~op:Nqe.Ev_data ~vm_id:3 ~qset:1 ~sock:99 ~op_data:42 ~data_ptr:512
      ~size:1024 ()
  in
  let buf = Bytes.make (Nqe.size_bytes + 1) '\xEE' in
  Nqe.write buf ~pos:0 ~op:nqe.Nqe_codec.op ~vm_id:3 ~qset:1 ~sock:99 ~op_data:42
    ~data_ptr:512 ~size:1024 ~synthetic:false ~span:0;
  Alcotest.(check char) "nothing past the wire size" '\xEE' (Bytes.get buf Nqe.size_bytes);
  match Nqe_codec.decode buf with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok d -> Alcotest.(check bool) "round-trip" true (d = nqe)

(* ---- H1: the NQE record codec on the datapath ------------------------- *)

let h1_hot_path_decode () =
  check_diags "Nqe.decode flagged in a hot-path module"
    ~path:"lib/core/coreengine.ml"
    [ ("H1", 1) ]
    "let f raw = Nqe.decode raw";
  check_diags "Nqe.decode_from flagged too" ~path:"lib/core/nk_device.ml"
    [ ("H1", 1) ]
    "let f raw = Nqe.decode_from raw 0";
  check_diags "Nqe.make, encode and encode_into flagged" ~path:"lib/core/guestlib.ml"
    [ ("H1", 1); ("H1", 2); ("H1", 3) ]
    "let r = Nqe.make ~op ~vm_id ~qset ~sock ()\n\
     let b = Nqe.encode r\n\
     let () = Nqe.encode_into r b ~pos:0";
  check_diags "the reference codec is flagged by its own name"
    ~path:"lib/core/servicelib.ml"
    [ ("H1", 1); ("H1", 2) ]
    "let b = Nqe_codec.encode r\nlet d = Nkcore_ref.Nqe_codec.decode b";
  check_diags "the cluster relay is covered" ~path:"lib/nkfabric/nkfabric.ml"
    [ ("H1", 1) ]
    "let f nqe = Nqe.encode nqe";
  check_diags "the old decode-ok waiver is an unknown token"
    ~path:"lib/core/guestlib.ml"
    [ ("W1", 1); ("H1", 2) ]
    "(* nklint: decode-ok *)\nlet f raw = Nqe.decode raw";
  check_diags "View accessors are the sanctioned idiom"
    ~path:"lib/core/coreengine.ml" []
    "let f raw = Nqe.View.qset raw 0";
  check_diags "the slot writer is the sanctioned idiom" ~path:"lib/core/nk_device.ml" []
    "let f b = Nqe.write b ~pos:0 ~op ~vm_id ~qset ~sock ~op_data ~data_ptr ~size \
     ~synthetic ~span";
  check_diags "full decode is fine off the hot path"
    ~path:"lib/experiments/fig11_nqe_switch.ml" []
    "let f raw = Nqe.decode raw";
  (* Same basename outside lib/core (e.g. a test fixture) is not hot path. *)
  check_diags "hot-path basenames only match under core/"
    ~path:"test/coreengine.ml" []
    "let f raw = Nqe.decode raw"

(* ---- H2: polymorphic Hashtbl on the datapath --------------------------- *)

let h2_hot_path_hashtbl () =
  check_diags "Hashtbl.create flagged in CoreEngine" ~path:"lib/core/coreengine.ml"
    [ ("H2", 1) ]
    "let t = Hashtbl.create 16";
  check_diags "lookups and writes flagged in the other datapath modules"
    ~path:"lib/tcpstack/epoll_core.ml"
    [ ("H2", 1); ("H2", 2); ("H2", 3) ]
    "let f t k = Hashtbl.find_opt t k\n\
     let g t k = Stdlib.Hashtbl.mem t k\n\
     let h t k v = Hashtbl.replace t k v";
  check_diags "every listed module" ~path:"lib/core/hugepages.ml" [ ("H2", 1) ]
    "let f t k = Hashtbl.find t k";
  check_diags "Hashtbl.Make flagged, Int_tbl is the sanctioned table"
    ~path:"lib/simnet/vswitch.ml" [ ("H2", 1) ]
    "module T = Hashtbl.Make (Int)\n\
     let f t k = T.find t k\n\
     let g t k = Nkutil.Int_tbl.find t k";
  check_diags "flow tables of the stacks and the registry" ~path:"lib/tcpstack/stack.ml"
    [ ("H2", 1); ("H2", 2) ]
    "module F = Stdlib.Hashtbl.Make (Flow)\n\
     module G = Hashtbl.MakeSeeded (Flow)\n\
     let f t a b = Nkutil.Int_tbl.Pair.find t a b";
  List.iter
    (fun path ->
      check_diags "every listed module" ~path [ ("H2", 1) ] "module T = Hashtbl.Make (K)")
    [ "lib/tcpstack/conn_registry.ml"; "lib/homastack/homa.ml"; "lib/core/nsm_shmem.ml" ];
  check_diags "off the datapath a polymorphic table is fine" ~path:"lib/nkmon/registry.ml"
    [] "let t = Hashtbl.create 16\nmodule T = Hashtbl.Make (String)";
  check_diags "only lib/ modules" ~path:"test/fabric.ml" [] "let t = Hashtbl.create 16"

(* ---- W1: waivers cannot rot -------------------------------------------- *)

let w1_stale_waivers () =
  check_diags "stale waiver is itself reported"
    [ ("W1", 1) ]
    "(* nklint: ordered-ok *)\nlet f x = x + 1";
  check_diags "used waiver is not reported" []
    "(* nklint: ordered-ok *)\nlet f tbl = Hashtbl.fold (fun _ _ acc -> acc) tbl 0";
  check_diags "unknown nklint token is reported"
    [ ("W1", 1) ]
    "(* nklint: frobnicate *)\nlet f x = x + 1";
  check_diags "token quoted in a string literal is fixture text" []
    "let s = \"(* nklint: ordered-ok *)\\nlet f = Hashtbl.fold\"";
  (* nkscope owns its tokens inside lib/ .ml files; elsewhere they can never
     suppress anything. *)
  check_diags "nkscope token outside lib/ is reported" ~path:"bin/fixture.ml"
    [ ("W1", 1) ]
    "(* nkscope: volatile *)\nlet f x = x + 1";
  check_diags "nkscope token under lib/ is left to nkscope" []
    "(* nkscope: volatile *)\nlet f x = x + 1";
  check_diags "unknown nkscope token is reported anywhere"
    [ ("W1", 1) ]
    "(* nkscope: volatil *)\nlet f x = x + 1"

(* ---- JSON output ------------------------------------------------------- *)

let json_format () =
  let d = { L.file = "lib/a.ml"; line = 3; col = 7; rule = "D1"; msg = "say \"hi\"\n" } in
  Alcotest.(check string)
    "escaping"
    "{\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"rule\":\"D1\",\"msg\":\"say \\\"hi\\\"\\n\"}"
    (L.to_json d);
  Alcotest.(check string) "empty array" "[]" (L.to_json_array [])

(* ---- S1: span stage begin/end pairing --------------------------------- *)

let s1_uses ~path src = L.stage_uses_of_source ~path src

let s1_span_pairing () =
  let begins, ends =
    s1_uses ~path:"lib/core/a.ml"
      "let f spans id = Nkspan.begin_stage spans ~id ~component:\"dev\" \"ring\""
  in
  let begins2, ends2 =
    s1_uses ~path:"lib/core/b.ml" "let g spans id = Nkspan.end_stage spans ~id \"ring\""
  in
  (* Opener and closer in different files: aggregation pairs them up. *)
  Alcotest.(check (list (pair string int)))
    "cross-file pairing is silent" []
    (List.map
       (fun d -> (d.L.rule, d.L.line))
       (L.span_pairing ~begins:(begins @ begins2) ~ends:(ends @ ends2)));
  (* The same opener with no closer anywhere fires once, at the begin site. *)
  Alcotest.(check (list (pair string int)))
    "unmatched begin_stage fires S1"
    [ ("S1", 1) ]
    (List.map (fun d -> (d.L.rule, d.L.line)) (L.span_pairing ~begins ~ends));
  (* A closer with no opener is just as suspicious. *)
  Alcotest.(check (list (pair string int)))
    "unmatched end_stage fires S1"
    [ ("S1", 1) ]
    (List.map
       (fun d -> (d.L.rule, d.L.line))
       (L.span_pairing ~begins:[] ~ends:ends2));
  (* Non-literal stage arguments are outside the syntactic rule's scope. *)
  let b3, e3 = s1_uses ~path:"lib/core/c.ml" "let h spans id s = Nkspan.begin_stage spans ~id ~component:\"x\" s" in
  Alcotest.(check (pair int int)) "non-literal stage ignored" (0, 0)
    (List.length b3, List.length e3)

(* ---- P2: the queue-set protocol lives in one place --------------------- *)

let p2_one_place () =
  let hash = "let pin key n = key * 2654435761 land max_int mod n" in
  check_diags "hash multiplier pasted into GuestLib" ~path:"lib/core/guestlib.ml"
    [ ("P2", 1) ] hash;
  check_diags "hash multiplier at its owner" ~path:"lib/core/nk_device.ml" [] hash;
  check_diags "P2 checks lib/ only" ~path:"test/fixture.ml" [] hash;
  let drain = "let f s b = Queue_set.drain_into s ~toward:`Nsm b ~budget:8 ~shared:true" in
  check_diags "drain_into called from CoreEngine" ~path:"lib/core/coreengine.ml"
    [ ("P2", 1) ] drain;
  check_diags "drain_into at its owner" ~path:"lib/core/nk_device.ml" [] drain;
  let of_op =
    "let ring = function\n\
    \  | Nqe.Send -> `Send\n\
    \  | Nqe.Socket | Nqe.Close -> `Job\n\
    \  | _ -> `Completion\n"
  in
  check_diags "op-to-ring map pasted into ServiceLib" ~path:"lib/core/servicelib.ml"
    [ ("P2", 2); ("P2", 3) ]
    of_op;
  check_diags "op-to-ring map at its owner" ~path:"lib/core/queue_set.ml" [] of_op

(* ---- X1: exports nothing else uses -------------------------------------- *)

let x1 files =
  List.filter_map
    (fun d -> if d.L.rule = "X1" then Some (d.L.file, d.L.line) else None)
    (L.lint_sources files)

let counter =
  [
    ("lib/a/counter.mli", "val create : unit -> int\n\nval dead : int -> int\n");
    ("lib/a/counter.ml", "let create () = 0\nlet dead x = x\n");
  ]

let x1_dead_exports () =
  let check what expected users =
    Alcotest.(check (list (pair string int))) what expected (x1 (counter @ users))
  in
  let both = [ ("lib/a/counter.mli", 1); ("lib/a/counter.mli", 3) ] in
  let dead = [ ("lib/a/counter.mli", 3) ] in
  check "no outside user: X1 at each val line" both [];
  check "qualified use in another file" dead
    [ ("bin/main.ml", "let n = Counter.create ()") ];
  check "use through the library path" dead
    [ ("bin/main.ml", "let n = Nkutil.Counter.create ()") ];
  check "use through module X = P" dead
    [ ("lib/b/user.ml", "module C = Nkutil.Counter\nlet n = C.create ()") ];
  check "use through let module X = P in" dead
    [ ("lib/b/user.ml", "let n = let module C = Counter in C.create ()") ];
  check "functor argument uses the module whole" []
    [ ("lib/b/user.ml", "module S = Set.Make (Counter)") ];
  check "include uses the module whole" [] [ ("lib/b/user.ml", "include Counter") ];
  check "first-class pack uses the module whole" []
    [ ("lib/b/user.ml", "let m = (module Counter : S)") ];
  check "use from test/" dead [ ("test/test_counter.ml", "let n = Counter.create ()") ];
  check "use from perfbench/" dead [ ("perfbench/main.ml", "let n = Counter.create ()") ];
  check "a bare name after open is not seen" both
    [ ("bin/main.ml", "open Counter\nlet n = create ()") ];
  Alcotest.(check (list (pair string int)))
    "interfaces outside lib/ are not checked" []
    (x1 [ ("bin/tool.mli", "val run : unit -> unit"); ("bin/tool.ml", "let run () = ()") ]);
  (* A submodule's values are keyed by the submodule; a use inside the
     module's own .ml does not count. *)
  Alcotest.(check (list (pair string int)))
    "a use in the module's own .ml does not count"
    [ ("lib/core/nqe.mli", 2) ]
    (x1
       [
         ("lib/core/nqe.mli", "module View : sig\n  val qset : bytes -> int\nend\n");
         ( "lib/core/nqe.ml",
           "module View = struct let qset = Bytes.length end\nlet q b = View.qset b\n" );
       ])

(* ---- whole-system determinism regression ------------------------------ *)

let conn_dump_once ~seed =
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Keepalive connections stay established, so the connection table is
     non-trivial when the run ends. *)
  let proto = Nkapps.Proto.Fixed { request = 64; response = 256; keepalive = true } in
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
       (Nkapps.Epoll_server.config ~proto (Addr.make 10 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
              {
                Nkapps.Loadgen.server = Addr.make 10 80;
                proto;
                mode =
                  Nkapps.Loadgen.Closed
                    { concurrency = 8; total = Some 200; duration = None };
                warmup = 0.0;
              })));
  Testbed.run tb ~until:10.0;
  Coreengine.dump_conn_table (Host.coreengine hosta)

let conn_table_dump_deterministic () =
  let a = conn_dump_once ~seed:4242 in
  let b = conn_dump_once ~seed:4242 in
  Alcotest.(check bool) "dump is non-trivial" true (String.length a > 0);
  Alcotest.(check string) "conn table dumps byte-identical" a b

let tests =
  [
    Alcotest.test_case "D1 wall clock" `Quick d1_wall_clock;
    Alcotest.test_case "D1 ambient randomness" `Quick d1_randomness;
    Alcotest.test_case "D2 Hashtbl order" `Quick d2_hashtbl_order;
    Alcotest.test_case "D3 polymorphic compare" `Quick d3_poly_compare;
    Alcotest.test_case "D4 Obj.magic" `Quick d4_obj_magic;
    Alcotest.test_case "D4 exception swallowing" `Quick d4_swallow;
    Alcotest.test_case "P1 NQE wire invariants" `Quick p1_wire;
    Alcotest.test_case "P1 holds on the real codec" `Quick p1_real_codec;
    Alcotest.test_case "H1 hot-path NQE decode" `Quick h1_hot_path_decode;
    Alcotest.test_case "H2 polymorphic Hashtbl on the datapath" `Quick h2_hot_path_hashtbl;
    Alcotest.test_case "W1 stale waivers" `Quick w1_stale_waivers;
    Alcotest.test_case "JSON output" `Quick json_format;
    Alcotest.test_case "S1 span stage pairing" `Quick s1_span_pairing;
    Alcotest.test_case "P2 queue-set protocol in one place" `Quick p2_one_place;
    Alcotest.test_case "X1 dead exports" `Quick x1_dead_exports;
    Alcotest.test_case "conn-table dump determinism" `Quick conn_table_dump_deterministic;
  ]
