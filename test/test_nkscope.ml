(* Fixture coverage for nklint's typedtree pass (tools/nklint/typed.ml).
   Each fixture is typed in-process (Parse -> Typemod against the real
   stdlib env) and fed to [Typed.unit_of_structure]/[analyze], so the
   tests exercise exactly the pipeline the @lint rule runs over the
   build's .cmt files — minus only the cmt (de)serialization. *)

module S = Nklint.Typed

let init =
  lazy
    (Clflags.dont_write_files := true;
     Compmisc.init_path ())

let typecheck ~path src =
  Lazy.force init;
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  let ast = Parse.implementation lexbuf in
  let env = Compmisc.initial_env () in
  match Typemod.type_structure env ast with
  | str, _, _, _, _ -> str
  | exception exn ->
      let msg =
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        (* [Location.report_exception] re-raises anything it has no printer
           for; fall back to the raw exception name. *)
        (try Location.report_exception fmt exn
         (* nklint: swallow-ok *)
         with _ -> Format.pp_print_string fmt (Printexc.to_string exn));
        Format.pp_print_flush fmt ();
        Buffer.contents buf
      in
      Alcotest.failf "fixture failed to type: %s" msg

let scope ?(path = "lib/fix.ml") ?(name = "Fix") src =
  let str = typecheck ~path src in
  S.analyze [ S.unit_of_structure ~file:path ~src ~name str ]

let check_diags what expected ?path ?name src =
  let got = List.map (fun d -> (d.S.rule, d.S.line)) (scope ?path ?name src) in
  Alcotest.(check (list (pair string int))) what expected got

(* ---- T1: transitive determinism taint ---------------------------------- *)

let t1_two_hop () =
  check_diags "two-hop chain flags the helper and its caller"
    [ ("T1", 1); ("T1", 2) ]
    ("let helper () = Sys.time ()\n" ^ "let outer () = helper () +. 1.0\n"
   ^ "let clean x = x + 1\n");
  check_diags "clean unit is silent" [] "let f x = x + 1\nlet g () = f 2\n"

let t1_function_as_value () =
  check_diags "taint follows a function passed as a value"
    [ ("T1", 1); ("T1", 2); ("T1", 3) ]
    ("let helper () = Sys.time ()\n" ^ "let by_value = [ helper ]\n"
   ^ "let user () = List.hd by_value\n")

let t1_random () =
  check_diags "ambient Random taints transitively"
    [ ("T1", 1); ("T1", 2) ]
    "let roll () = Random.int 6\nlet pick xs = List.nth xs (roll ())\n"

let t1_waiver () =
  (* The waiver covers exactly its function: callers still reach the source
     and must be waived (or fixed) on their own. *)
  check_diags "nondet-ok waives the marked binding only"
    [ ("T1", 3) ]
    ("(* nkscope: nondet-ok *)\n" ^ "let helper () = Sys.time ()\n"
   ^ "let outer () = helper ()\n")

(* ---- O1: shard-ownership discipline ------------------------------------ *)

let o1_base =
  "type shard = { idx : int }\n" (* 1 *) ^ "type costs = { ce_xshard : int }\n" (* 2 *)
  ^ "type t = { conn_table : (int, int) Hashtbl.t; costs : costs }\n" (* 3 *)
  ^ "let charge_xshard t (sh : shard) = ignore sh; ignore t.costs.ce_xshard\n" (* 4 *)
  ^ "let good_add t (sh : shard) k v = charge_xshard t sh; Hashtbl.replace t.conn_table k v\n"
    (* 5 *)
  ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n" (* 6 *)
  ^ "let helper_write t k v = Hashtbl.replace t.conn_table k v\n" (* 7 *)
  ^ "let sweep t (sh : shard) k v = ignore sh; helper_write t k v\n" (* 8 *)
  ^ "let control_clear t = Hashtbl.reset t.conn_table\n" (* 9 *)

let o1_discipline () =
  (* bad_add writes from shard context without charging; helper_write has no
     shard parameter itself but is called from one (sweep), so its write is
     in shard context transitively. good_add reaches charge_xshard and
     control_clear never runs in shard context: both legal. *)
  check_diags "shard-context writes without the xshard charge are flagged"
    [ ("O1", 6); ("O1", 7) ]
    o1_base

let o1_waiver () =
  check_diags "ce-owner waives a deliberate owner-shard accessor" []
    ("type shard = { idx : int }\n" ^ "type t = { conn_table : (int, int) Hashtbl.t }\n"
   ^ "(* nkscope: ce-owner *)\n"
   ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n");
  check_diags "without the waiver the same write is flagged"
    [ ("O1", 3) ]
    ("type shard = { idx : int }\n" ^ "type t = { conn_table : (int, int) Hashtbl.t }\n"
   ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n")

(* The dataplane's int table ([Nkutil.Int_tbl], a [Hashtbl.Make] instance),
   in miniature. *)
let int_tbl_module =
  "module Int_tbl = Hashtbl.Make (struct type t = int let equal = Int.equal let hash = \
   Hashtbl.hash end)\n"

let o1_int_tbl () =
  (* CoreEngine's shared tables are int tables: their writes count like
     Hashtbl's. *)
  check_diags "an Int_tbl write from shard context is flagged"
    [ ("O1", 4) ]
    ("type shard = { idx : int }\n" (* 1 *) ^ int_tbl_module (* 2 *)
   ^ "type t = { conn_table : int Int_tbl.t }\n" (* 3 *)
   ^ "let bad_add t (sh : shard) k v = ignore sh; Int_tbl.replace t.conn_table k v\n"
     (* 4 *)
   ^ "let control_remove t k = Int_tbl.remove t.conn_table k\n" (* 5 *))

let o1_cost_value () =
  (* The cross-shard cost as a module constant: reading the value
     [Nk_costs.ce_xshard] charges like reading the record field. *)
  check_diags "a read of the Nk_costs.ce_xshard value makes writes legal"
    [ ("O1", 6) ]
    ("type shard = { idx : int }\n" (* 1 *)
   ^ "module Nk_costs = struct let ce_xshard = 60.0 end\n" (* 2 *)
   ^ "type t = { conn_table : (int, int) Hashtbl.t }\n" (* 3 *)
   ^ "let charge_xshard (sh : shard) = ignore sh; ignore Nk_costs.ce_xshard\n" (* 4 *)
   ^ "let good_add t (sh : shard) k v = charge_xshard sh; Hashtbl.replace t.conn_table k v\n"
     (* 5 *)
   ^ "let bad_add t (sh : shard) k v = ignore sh; Hashtbl.replace t.conn_table k v\n" (* 6 *))

(* ---- H3: comparisons at a type variable on the hot path ---------------- *)

(* A linear search whose key [x] is annotated with [ann], or left to
   inference when [ann] is empty. *)
let search ann =
  "let rec search (x" ^ ann ^ ") arr i =\n" (* 1 *)
  ^ "  if i >= Array.length arr then -1\n" (* 2 *)
  ^ "  else if arr.(i) = x then i\n" (* 3 *)
  ^ "  else search x arr (i + 1)\n" (* 4 *)

let h3_type_var_compare () =
  let path = "lib/core/coreengine.ml" in
  check_diags "an unannotated polymorphic search is flagged" ~path
    [ ("H3", 3) ]
    (search "");
  check_diags "the same search with (x : int) is silent" ~path [] (search " : int");
  check_diags "off the hot path the rule does not apply" [] (search "")

(* ---- M1: migration snapshot completeness ------------------------------- *)

let m1_unsnapshotted_field () =
  (* The Tcb.t shape in miniature: a mutable field the snapshot forgets, a
     mutable field inside a record reachable through a Queue, and immutable
     fields that impose nothing. *)
  check_diags "mutable field missing from snapshot is flagged"
    [ ("M1", 2) ]
    ("type item = { mutable seq : int; tag : bool }\n" (* 1 *)
   ^ "type t = { name : string; mutable a : int; mutable missing : int; q : item Queue.t }\n"
     (* 2 *)
   ^ "let snapshot t = (t.a, t.name, Queue.fold (fun acc (i : item) -> i.seq :: acc) [] t.q)\n"
   ^ "let restore (a, name, seqs) =\n" ^ "  let q = Queue.create () in\n"
   ^ "  List.iter (fun s -> Queue.add { seq = s; tag = false } q) seqs;\n"
   ^ "  { name; a; missing = 0; q }\n")

let m1_complete () =
  check_diags "full coverage is silent" []
    ("type t = { mutable a : int; mutable b : int }\n"
   ^ "let snapshot t = (t.a, t.b)\n" ^ "let restore (a, b) = { a; b }\n")

let m1_restore_gap () =
  (* A restore that patches fields onto an externally built value must cover
     every mutable slot — here [b] is never written back. *)
  check_diags "mutable field missing from restore is flagged"
    [ ("M1", 1) ]
    ("type t = { mutable a : int; mutable b : int }\n"
   ^ "let snapshot t = (t.a, t.b)\n"
   ^ "let restore ext ((a, _b) : int * int) = let t : t = ext () in t.a <- a; t\n")

let m1_int_tbl () =
  check_diags "an Int_tbl field is migration state"
    [ ("M1", 2) ]
    (int_tbl_module (* 1 *)
   ^ "type t = { mutable a : int; socks : int Int_tbl.t }\n" (* 2 *)
   ^ "let snapshot t = t.a\n" ^ "let restore a = { a; socks = Int_tbl.create 1 }\n")

let m1_volatile_waiver () =
  check_diags "volatile waives a rebuilt-at-destination field" []
    ("type t = {\n" ^ "  mutable a : int;\n" ^ "  (* nkscope: volatile *)\n"
   ^ "  mutable missing : int;\n" ^ "}\n" ^ "let snapshot t = t.a\n"
   ^ "let restore a = { a; missing = 0 }\n")

let m1_export_import () =
  (* CC-module shape: the export/import closures must cover every mutable
     field of the local state record. *)
  check_diags "uncovered CC state field is flagged for both closures"
    [ ("M1", 2); ("M1", 2) ]
    ("type cc = { name : string; export : unit -> int; import : int -> unit }\n" (* 1 *)
   ^ "type st = { mutable cwnd : int; mutable uncovered : int }\n" (* 2 *)
   ^ "let create () =\n" ^ "  let s = { cwnd = 1; uncovered = 0 } in\n"
   ^ "  { name = \"x\"; export = (fun () -> s.cwnd); import = (fun v -> s.cwnd <- v) }\n")

(* ---- W1: waivers cannot rot -------------------------------------------- *)

let w1_stale_and_unknown () =
  check_diags "stale waiver is reported" [ ("W1", 1) ]
    "(* nkscope: ce-owner *)\nlet f x = x + 1\n";
  check_diags "unknown token is reported" [ ("W1", 1) ]
    "(* nkscope: bogus *)\nlet f x = x + 1\n";
  check_diags "token inside a string literal is fixture text, not a waiver" []
    "let s = \"(* nkscope: volatile *)\"\n"

let w1_once_across_passes () =
  (* Both passes report an unknown [nkscope:] token in lib/; the analyzer's
     report carries it once. *)
  let path = "lib/fix.ml" and src = "(* nkscope: volatil *)\nlet f x = x + 1\n" in
  let syntactic = Nklint.Syntactic.lint_sources [ (path, src) ] in
  let typed =
    S.analyze [ S.unit_of_structure ~file:path ~src ~name:"Fix" (typecheck ~path src) ]
  in
  let rules diags = List.map (fun d -> (d.S.rule, d.S.line)) diags in
  let check what diags =
    Alcotest.(check (list (pair string int))) what [ ("W1", 1) ] (rules diags)
  in
  check "syntactic pass" syntactic;
  check "typedtree pass" typed;
  check "one W1 in the merged report" (S.merge [ syntactic; typed ])

(* ---- JSON output ------------------------------------------------------- *)

let json_format () =
  let d = { S.file = "lib/a.ml"; line = 3; col = 7; rule = "O1"; msg = "say \"hi\"\n" } in
  Alcotest.(check string)
    "escaping"
    "{\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"rule\":\"O1\",\"msg\":\"say \\\"hi\\\"\\n\"}"
    (S.to_json d);
  Alcotest.(check string) "empty array" "[]" (S.to_json_array [])

let tests =
  [
    Alcotest.test_case "t1-two-hop" `Quick t1_two_hop;
    Alcotest.test_case "t1-function-as-value" `Quick t1_function_as_value;
    Alcotest.test_case "t1-random" `Quick t1_random;
    Alcotest.test_case "t1-waiver" `Quick t1_waiver;
    Alcotest.test_case "o1-discipline" `Quick o1_discipline;
    Alcotest.test_case "o1-waiver" `Quick o1_waiver;
    Alcotest.test_case "o1-int-tbl" `Quick o1_int_tbl;
    Alcotest.test_case "m1-unsnapshotted-field" `Quick m1_unsnapshotted_field;
    Alcotest.test_case "m1-complete" `Quick m1_complete;
    Alcotest.test_case "m1-restore-gap" `Quick m1_restore_gap;
    Alcotest.test_case "m1-int-tbl" `Quick m1_int_tbl;
    Alcotest.test_case "m1-volatile-waiver" `Quick m1_volatile_waiver;
    Alcotest.test_case "m1-export-import" `Quick m1_export_import;
    Alcotest.test_case "w1-stale-and-unknown" `Quick w1_stale_and_unknown;
    Alcotest.test_case "w1-once-across-passes" `Quick w1_once_across_passes;
    Alcotest.test_case "json-format" `Quick json_format;
    Alcotest.test_case "o1-cost-value" `Quick o1_cost_value;
    Alcotest.test_case "h3-type-var-compare" `Quick h3_type_var_compare;
  ]
