(* nklint's syntactic pass (DESIGN.md §10).

   Walks OCaml parsetrees (compiler-libs [Ast_iterator], no ppx) and
   enforces the determinism and invariant discipline the reproduction's
   scientific claim rests on:

   D1  no wall clock / ambient randomness under lib/ — simulated components
       must take time from [Sim.Engine] and randomness from [Nkutil.Rng];
   D2  no order-sensitive [Hashtbl.iter]/[Hashtbl.fold] — use
       [Nkutil.Int_tbl] or [Nkutil.Det_tbl] (both key-sorted) or waive with
       (* nklint: ordered-ok *);
   D3  no bare polymorphic [compare] passed as a function value — use the
       monomorphic [Int.compare]/[Float.compare]/... (polymorphic compare
       on non-immediate types walks structure, and on custom types orders
       by declaration accident);
   D4  no [Obj.magic]; no exception-swallowing [try ... with _ ->]
       (waivers: magic-ok / swallow-ok);
   P1  NQE wire-protocol invariants in lib/core/nqe.ml: the declared
       [size_bytes] must equal the span the slot writer [write] stores,
       every opcode constructor must appear in both the encode and decode
       match sites, and encode must assign distinct byte values;
   P2  the queue-set protocol lives in one place: outside nk_device.ml no
       lib/ file holds the queue-set hash multiplier or calls
       [Queue_set.drain_into], and outside queue_set.ml no match case maps
       an NQE op constructor to a ring;
   H1  no NQE record codec — [make], [encode], [encode_into], [decode],
       [decode_from] of [Nqe] or of the reference codec [Nqe_codec] — in
       the lib/core hot-path modules or lib/nkfabric/nkfabric.ml: an NQE
       lives in its 32-byte slot, producers write it with [Nqe.write] and
       consumers read it through [Nqe.View], so a record or a fresh buffer
       per NQE has no place there (no waiver);
   H2  no polymorphic [Hashtbl] values ([create], [find], [find_opt], [mem],
       [replace], [add], [remove]) and no [Hashtbl.Make] in H1's lib/core
       modules or the other datapath tables' modules (epoll, direct
       sockets, fabric, hugepages, reactor, the TCP stack, the content
       registry, Homa): a polymorphic lookup pays a C [caml_hash] and a
       polymorphic compare, a functor table an indirect hash and equal and
       a bucket chain; [Nkutil.Int_tbl] instead, with [Int_tbl.Pair] and
       the pair (Addr.key src, Addr.key dst) for flows;
   S1  every span stage a lib/ file opens is closed somewhere under lib/;
   X1  every value a lib/ .mli exports has a user outside its own module;
   W1  no rotten waivers: a waiver comment that suppresses zero diagnostics
       in its .ml file, an unknown [nklint:]/[nkscope:] token, or a
       [nkscope:] token outside the lib/ tree the typedtree pass analyzes,
       is itself reported. Tokens quoted inside string literals (the lint
       test fixtures) are exempt; .mli files are skipped (no waivable rule
       fires on interfaces, so a doc-comment mention of a token is not a
       waiver).

   S1 and X1 aggregate over every file of one invocation; the rest look at
   one file at a time. The analysis is purely syntactic: it can be fooled
   by shadowing, which is acceptable — the rules target idioms this
   codebase actually uses, and the waiver comments are the escape hatch
   for deliberate exceptions. *)

open Parsetree
include Common

let polymorphic_hashtbl_values =
  [ "create"; "find"; "find_opt"; "mem"; "replace"; "add"; "remove" ]

let h2_remedy =
  "use Nkutil.Int_tbl: an int key, or Int_tbl.Pair with the pair (Addr.key src, Addr.key \
   dst) for a flow"

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

(* The last two components of a path: the (module, value) X1 and P2 match
   on. *)
let rec last2 = function [ m; x ] -> Some (m, x) | _ :: tl -> last2 tl | [] -> None

(* A path naming the record codec: [Nqe.encode], [Nqe_codec.decode], ... *)
let is_nqe_codec l =
  match last2 l with
  | Some (("Nqe" | "Nqe_codec"), f) ->
      List.mem f [ "make"; "encode"; "encode_into"; "decode"; "decode_from" ]
  | Some _ | None -> false

(* ---- expression-level rules (D1–D4, H1, H2, P2) ------------------------ *)

(* P2: Queue_set.of_op's shape, a case mapping NQE op constructors to a
   ring. *)
let rec op_constructors p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, None) -> (
      match last2 (Longident.flatten txt) with Some (m, _) -> m = "Nqe" | None -> true)
  | Ppat_or (a, b) -> op_constructors a && op_constructors b
  | _ -> false

let maps_op_to_ring c =
  (match c.pc_rhs.pexp_desc with
  | Pexp_variant (("Job" | "Completion" | "Send" | "Receive"), None) -> true
  | _ -> false)
  && op_constructors c.pc_lhs

let expr_rules ~path ast =
  let diags = ref [] in
  let add loc rule msg =
    diags := { file = path; line = loc_line loc; col = loc_col loc; rule; msg } :: !diags
  in
  let lib = in_lib path in
  let outside owner = lib && Filename.basename path <> owner in
  (* Locations of idents in function-head position: [compare a b] is a
     direct (monomorphized-at-use) call and is not what D3 flags; the bare
     value [List.sort compare] is. *)
  let head_idents = Hashtbl.create 64 in
  let check_ident loc = function
    | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] as l
      when lib ->
        add loc "D1"
          (Printf.sprintf
             "wall-clock read %s in lib/ — take time from Sim.Engine (wall clock \
              belongs in bench/ only)"
             (String.concat "." l))
    | "Random" :: _ as l when lib ->
        add loc "D1"
          (Printf.sprintf
             "ambient randomness %s in lib/ — use Nkutil.Rng with an explicit seed"
             (String.concat "." l))
    | [ "Hashtbl"; ("iter" | "fold" as f) ] | [ "Stdlib"; "Hashtbl"; ("iter" | "fold" as f) ] ->
        add loc "D2"
          (Printf.sprintf
             "Hashtbl.%s visits entries in nondeterministic bucket order — use \
              Nkutil.Int_tbl.%s (int keys) or Nkutil.Det_tbl.fold, or waive a provably \
              order-insensitive site with (* nklint: ordered-ok *)"
             f f)
    | ([ "Hashtbl"; f ] | [ "Stdlib"; "Hashtbl"; f ])
      when List.mem f polymorphic_hashtbl_values && in_table_hot_path path ->
        add loc "H2"
          (Printf.sprintf
             "polymorphic Hashtbl.%s on the datapath hashes with caml_hash and compares \
              polymorphically — %s"
             f h2_remedy)
    | ([ "compare" ] | [ "Stdlib"; "compare" ]) when not (Hashtbl.mem head_idents loc) ->
        add loc "D3"
          "bare polymorphic compare passed as a function — use Int.compare / \
           Float.compare / String.compare or a purpose-built comparator"
    | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] ->
        add loc "D4"
          "Obj.magic defeats the type system (and corrupts flat-float-array \
           payloads) — store a typed dummy/option instead"
    | l when in_nqe_path path && is_nqe_codec l ->
        add loc "H1"
          (Printf.sprintf
             "NQE record codec %s on the datapath builds a record or a buffer per NQE — \
              write slots with Nqe.write and read them through Nqe.View"
             (String.concat "." l))
    | l when outside "nk_device.ml" && last2 l = Some ("Queue_set", "drain_into") ->
        add loc "P2"
          "Queue_set.drain_into outside nk_device.ml — poll through Nk_device.serve \
           or Nk_device.drain"
    | _ -> ()
  in
  let check_cases cases =
    if outside "queue_set.ml" then
      List.iter
        (fun c ->
          if maps_op_to_ring c then
            add c.pc_lhs.ppat_loc "P2"
              "maps an NQE op to its ring outside queue_set.ml — use Queue_set.of_op")
        cases
  in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident _; pexp_loc; _ }, _) ->
        Hashtbl.replace head_idents pexp_loc ()
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident loc (Longident.flatten txt)
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any ->
                add c.pc_lhs.ppat_loc "D4"
                  "try ... with _ -> swallows every exception (including \
                   Stack_overflow and Assert_failure) — match the specific \
                   exceptions, or waive with (* nklint: swallow-ok *)"
            | _ -> ())
          cases
    | Pexp_match (_, cases) | Pexp_function cases -> check_cases cases
    | Pexp_constant (Pconst_integer (s, None))
      when outside "nk_device.ml" && int_of_string_opt s = Some 2654435761 ->
        add e.pexp_loc "P2"
          "the queue-set hash multiplier outside nk_device.ml — pin a key to its \
           queue set with Nk_device.hash_qset"
    | _ -> ());
    default.expr self e
  in
  let module_expr self m =
    (match m.pmod_desc with
    | Pmod_apply ({ pmod_desc = Pmod_ident { txt; loc }; _ }, _) when in_table_hot_path path
      -> (
        match Longident.flatten txt with
        | [ "Hashtbl"; ("Make" | "MakeSeeded" as f) ]
        | [ "Stdlib"; "Hashtbl"; ("Make" | "MakeSeeded" as f) ] ->
            add loc "H2"
              (Printf.sprintf
                 "Hashtbl.%s on the datapath hashes and compares through the functor's \
                  closures and chains its buckets — %s"
                 f h2_remedy)
        | _ -> ())
    | _ -> ());
    default.module_expr self m
  in
  let it = { default with expr; module_expr } in
  it.structure it ast;
  !diags

(* ---- P1: NQE wire-protocol invariants --------------------------------- *)

(* Body of [let f = function ... ] or [let f x = match x with ...]. *)
let fn_cases e =
  match e.pexp_desc with
  | Pexp_function cases -> Some cases
  | Pexp_fun (_, _, _, { pexp_desc = Pexp_match (_, cases); _ }) -> Some cases
  | _ -> None

let binding_named name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt = name | _ -> false

let find_binding name ast =
  List.find_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.find_opt (binding_named name) vbs
      | _ -> None)
    ast

let int_of_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> int_of_string_opt s
  | _ -> None

(* Width in bytes of a [Bytes.set_*] writer, from its name. *)
let set_width = function
  | "set_uint8" | "set_int8" -> Some 1
  | "set_uint16_le" | "set_uint16_be" | "set_uint16_ne" | "set_int16_le" | "set_int16_be"
  | "set_int16_ne" ->
      Some 2
  | "set_int32_le" | "set_int32_be" | "set_int32_ne" -> Some 4
  | "set_int64_le" | "set_int64_be" | "set_int64_ne" -> Some 8
  | _ -> None

(* Offset of the write position relative to [pos]: [pos] itself or
   [pos + k]. *)
let rel_offset e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident "pos"; _ } -> Some 0
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "+"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident "pos"; _ }; _ });
          (_, k)
        ] ) ->
      int_of_const k
  | _ -> None

let encoder_span body =
  (* Max (offset + width) over every Bytes.set_* in the encoder body. *)
  let span = ref None in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_ :: (_, pos_arg) :: _ as _args))
      -> (
        match Longident.flatten txt with
        | [ "Bytes"; setter ] -> (
            match (set_width setter, rel_offset pos_arg) with
            | Some w, Some off ->
                let s = off + w in
                span := Some (match !span with None -> s | Some m -> Int.max m s)
            | _ -> ())
        | _ -> ())
    | _ -> ());
    default.expr self e
  in
  let it = { default with expr } in
  it.expr it body;
  !span

let constructors_in_patterns cases =
  List.filter_map
    (fun c ->
      match c.pc_lhs.ppat_desc with
      | Ppat_construct ({ txt; _ }, _) -> last (Longident.flatten txt)
      | _ -> None)
    cases

let has_wildcard_pattern cases =
  List.exists (fun c -> match c.pc_lhs.ppat_desc with Ppat_any -> true | _ -> false) cases

let constructors_in_exprs ~known body_list =
  (* Every known-constructor name mentioned anywhere in the given
     expressions (e.g. the [Some Socket] results of the decoder). *)
  let found = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
        match last (Longident.flatten txt) with
        | Some name when List.mem name known && not (List.mem name !found) ->
            found := name :: !found
        | _ -> ())
    | _ -> ());
    default.expr self e
  in
  let it = { default with expr } in
  List.iter (it.expr it) body_list;
  !found

let rhs_int_constants cases = List.filter_map (fun c -> int_of_const c.pc_rhs) cases

let nqe_rules ~path ast =
  let diags = ref [] in
  let add loc msg =
    diags := { file = path; line = loc_line loc; col = loc_col loc; rule = "P1"; msg } :: !diags
  in
  let missing what loc = add loc (Printf.sprintf "expected %s in the NQE codec" what) in
  let top_loc =
    match ast with it :: _ -> it.pstr_loc | [] -> Location.none
  in
  (* opcode constructor names from [type op = ...] *)
  let op_ctors =
    List.find_map
      (fun item ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
            List.find_map
              (fun d ->
                if d.ptype_name.Asttypes.txt = "op" then
                  match d.ptype_kind with
                  | Ptype_variant ctors ->
                      Some (List.map (fun c -> c.pcd_name.Asttypes.txt) ctors)
                  | _ -> None
                else None)
              decls
        | _ -> None)
      ast
  in
  (match op_ctors with
  | None -> missing "a [type op] variant declaration" top_loc
  | Some ctors -> (
      (* encode side: op_to_byte must pattern-match every constructor and
         assign distinct byte values *)
      (match find_binding "op_to_byte" ast with
      | None -> missing "an [op_to_byte] encode match" top_loc
      | Some vb -> (
          match fn_cases vb.pvb_expr with
          | None -> add vb.pvb_loc "op_to_byte is not a single-match function"
          | Some cases ->
              (if not (has_wildcard_pattern cases) then
                 let seen = constructors_in_patterns cases in
                 List.iter
                   (fun c ->
                     if not (List.mem c seen) then
                       add vb.pvb_loc
                         (Printf.sprintf "opcode %s missing from encode match (op_to_byte)" c))
                   ctors);
              let bytes = rhs_int_constants cases in
              let sorted = List.sort Int.compare bytes in
              let rec dup = function
                | a :: (b :: _ as tl) -> if a = b then Some a else dup tl
                | _ -> None
              in
              (match dup sorted with
              | Some b ->
                  add vb.pvb_loc
                    (Printf.sprintf "encode match assigns byte %d to two opcodes" b)
              | None -> ())));
      (* decode side: op_of_byte must produce every constructor *)
      match find_binding "op_of_byte" ast with
      | None -> missing "an [op_of_byte] decode match" top_loc
      | Some vb -> (
          match fn_cases vb.pvb_expr with
          | None -> add vb.pvb_loc "op_of_byte is not a single-match function"
          | Some cases ->
              let produced =
                constructors_in_exprs ~known:ctors (List.map (fun c -> c.pc_rhs) cases)
              in
              List.iter
                (fun c ->
                  if not (List.mem c produced) then
                    add vb.pvb_loc
                      (Printf.sprintf "opcode %s missing from decode match (op_of_byte)" c))
                ctors)));
  (* wire size: declared size_bytes = the slot writer's span *)
  (match (find_binding "size_bytes" ast, find_binding "write" ast) with
  | None, _ -> missing "a [size_bytes] wire-size constant" top_loc
  | _, None -> missing "a [write] slot writer" top_loc
  | Some size_vb, Some enc_vb -> (
      match (int_of_const size_vb.pvb_expr, encoder_span enc_vb.pvb_expr) with
      | None, _ -> add size_vb.pvb_loc "size_bytes is not an integer literal"
      | _, None -> add enc_vb.pvb_loc "write contains no analyzable Bytes.set_* write"
      | Some declared, Some span ->
          if declared <> span then
            add enc_vb.pvb_loc
              (Printf.sprintf
                 "encoder writes a %d-byte span but size_bytes declares %d" span declared)));
  !diags

(* ---- what one file contributes ----------------------------------------- *)

type stage_use = { su_file : string; su_line : int; su_stage : string }

type facts = {
  f_path : string;
  f_diags : diag list; (* per-file rules, waivers applied *)
  f_begins : stage_use list; (* [begin_stage] literals *)
  f_ends : stage_use list; (* [end_stage] literals *)
  f_exports : (string * string * Location.t) list; (* (module, value) of a lib/ .mli *)
  f_uses : string list list; (* value paths, module aliases expanded *)
  f_whole : string list; (* modules used whole: include, functor argument, pack *)
}

let facts_of path =
  {
    f_path = path;
    f_diags = [];
    f_begins = [];
    f_ends = [];
    f_exports = [];
    f_uses = [];
    f_whole = [];
  }

let syntax_error path =
  { (facts_of path) with
    f_diags = [ { file = path; line = 1; col = 0; rule = "parse"; msg = "syntax error" } ] }

let lexbuf ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  lexbuf

(* Every [val] of an interface, with the module it sits in: the unit for a
   top-level [val], the submodule for one inside [module M : sig ... end]. *)
let exports_of_signature ~path sg =
  let rec items m sg =
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd -> [ (m, vd.pval_name.Asttypes.txt, vd.pval_loc) ]
        | Psig_module
            {
              pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Pmty_signature s; _ };
              _;
            } ->
            items sub s
        | _ -> [])
      sg
  in
  items (String.capitalize_ascii (Filename.remove_extension (Filename.basename path))) sg

(* Stage literals, waiver-bearing string literals, value paths and
   whole-module uses of one implementation, in one walk. *)
let scan_structure ~path ast =
  let begins = ref [] and ends = ref [] and strlit = ref [] in
  let uses = ref [] and whole = ref [] and aliases = ref [] in
  let default = Ast_iterator.default_iterator in
  let stage_arg fn (label, arg) =
    match (label, arg.pexp_desc) with
    | Asttypes.Nolabel, Pexp_constant (Pconst_string (s, _, _)) ->
        let use = { su_file = path; su_line = loc_line arg.pexp_loc; su_stage = s } in
        if fn = "begin_stage" then begins := use :: !begins else ends := use :: !ends
    | _ -> ()
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_letmodule ({ txt = Some x; _ }, { pmod_desc = Pmod_ident p; _ }, body) ->
        aliases := (x, Longident.flatten p.txt) :: !aliases;
        self.Ast_iterator.expr self body
    | _ ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> uses := Longident.flatten txt :: !uses
        | Pexp_constant (Pconst_string (s, _, _)) ->
            Option.iter (fun r -> strlit := r :: !strlit) (waiver_literal e.pexp_loc s)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            match last (Longident.flatten txt) with
            | Some (("begin_stage" | "end_stage") as fn) -> List.iter (stage_arg fn) args
            | _ -> ())
        | _ -> ());
        default.expr self e
  in
  let pat self p =
    (match p.ppat_desc with
    | Ppat_constant (Pconst_string (s, _, _)) ->
        Option.iter (fun r -> strlit := r :: !strlit) (waiver_literal p.ppat_loc s)
    | _ -> ());
    default.pat self p
  in
  let structure_item self item =
    match item.pstr_desc with
    | Pstr_module
        { pmb_name = { txt = Some x; _ }; pmb_expr = { pmod_desc = Pmod_ident p; _ }; _ } ->
        aliases := (x, Longident.flatten p.txt) :: !aliases
    | _ -> default.structure_item self item
  in
  let module_expr self me =
    (match me.pmod_desc with
    | Pmod_ident p -> whole := Longident.flatten p.txt :: !whole
    | _ -> ());
    default.module_expr self me
  in
  (* [open M] brings names into scope without using them: not a use. *)
  let open_declaration self od =
    match od.popen_expr.pmod_desc with
    | Pmod_ident _ -> ()
    | _ -> default.open_declaration self od
  in
  let it = { default with expr; pat; structure_item; module_expr; open_declaration } in
  it.structure it ast;
  (* Expand aliases at the head of each path until none applies; each alias
     at most once, so [module M = M.Sub] terminates. *)
  let rec expand seen comps =
    match comps with
    | hd :: tl when not (List.mem hd seen) -> (
        match List.assoc_opt hd !aliases with
        | Some target -> expand (hd :: seen) (target @ tl)
        | None -> comps)
    | _ -> comps
  in
  ( List.rev !begins,
    List.rev !ends,
    !strlit,
    List.rev_map (expand []) !uses,
    List.filter_map (fun comps -> last (expand [] comps)) !whole )

let analyze_source ~path src =
  if Filename.check_suffix path ".mli" then
    match Parse.interface (lexbuf ~path src) with
    | exception _ -> syntax_error path
    | sg when in_lib path ->
        { (facts_of path) with f_exports = exports_of_signature ~path sg }
    | _ -> facts_of path
  else
    match Parse.implementation (lexbuf ~path src) with
    | exception _ -> syntax_error path
    | ast ->
        let f_begins, f_ends, strlit, f_uses, f_whole = scan_structure ~path ast in
        let codec = Filename.basename path = "nqe.ml" && in_lib path in
        let diags = expr_rules ~path ast @ if codec then nqe_rules ~path ast else [] in
        let waivers, w1 = scan_waivers ~prefix:"nklint" ~file:path ~strlit src in
        (* [nkscope:] tokens are the typedtree pass's, and it reads lib/ only. *)
        let scoped, w1_scoped = scan_waivers ~prefix:"nkscope" ~file:path ~strlit src in
        let no_effect w =
          rotten w "%S has no effect here — nkscope only analyzes .ml files under lib/"
            w.w_token
        in
        let w1 = w1 @ w1_scoped @ if in_lib path then [] else List.map no_effect scoped in
        {
          (facts_of path) with
          f_diags = List.sort compare_diag (apply_waivers waivers diags @ w1);
          f_begins;
          f_ends;
          f_uses;
          f_whole;
        }

let lint_source ~path src = (analyze_source ~path src).f_diags

let stage_uses_of_source ~path src =
  let f = analyze_source ~path src in
  (f.f_begins, f.f_ends)

(* ---- S1: span stage begin/end pairing ---------------------------------- *)

(* Every stage a lib/ component opens with [Nkspan.begin_stage] must be
   closed by a matching [end_stage] literal somewhere under lib/ — a begun
   stage with no closer anywhere would only ever be closed implicitly (by a
   later begin_stage or by finish), which silently reshapes the latency
   breakdown. The check is aggregated across the whole invocation, because
   the opener and the closer legitimately live in different components:
   Nk_device opens "ring", GuestLib/CoreEngine/ServiceLib close it. *)
let span_pairing ~begins ~ends =
  (* One diagnostic per unmatched stage literal, anchored at its first use. *)
  let stages uses =
    List.sort_uniq String.compare (List.map (fun u -> u.su_stage) uses)
  in
  let first stage uses = List.find (fun u -> String.equal u.su_stage stage) uses in
  let unmatched uses others fn other_fn =
    List.filter_map
      (fun stage ->
        if List.exists (fun u -> String.equal u.su_stage stage) others then None
        else
          let u = first stage uses in
          Some
            {
              file = u.su_file;
              line = u.su_line;
              col = 0;
              rule = "S1";
              msg =
                Printf.sprintf
                  "%s %S has no matching %s literal anywhere under lib/" fn stage
                  other_fn;
            })
      (stages uses)
  in
  List.sort compare_diag
    (unmatched begins ends "begin_stage" "end_stage"
    @ unmatched ends begins "end_stage" "begin_stage")

(* ---- X1: exports nothing else uses ------------------------------------- *)

(* A [val] in a lib/ .mli is used when an .ml other than the module's own
   names it by its last two path components (module aliases expanded), or
   uses its module whole. A bare name after [open] is not seen. *)
let dead_exports facts =
  let users = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  let note tbl key path =
    Hashtbl.replace tbl key (path :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun f ->
      List.iter (fun c -> Option.iter (fun k -> note users k f.f_path) (last2 c)) f.f_uses;
      List.iter (fun m -> note whole m f.f_path) f.f_whole)
    facts;
  List.concat_map
    (fun f ->
      let own = Filename.remove_extension f.f_path ^ ".ml" in
      let outside tbl key =
        match Hashtbl.find_opt tbl key with
        | Some paths -> List.exists (fun p -> p <> own) paths
        | None -> false
      in
      List.filter_map
        (fun (m, v, loc) ->
          if outside users (m, v) || outside whole m then None
          else
            Some
              {
                file = f.f_path;
                line = loc_line loc;
                col = loc_col loc;
                rule = "X1";
                msg =
                  Printf.sprintf
                    "%s.%s is exported but used nowhere outside %s — delete it or drop \
                     it from the interface"
                    m v own;
              })
        f.f_exports)
    facts

(* ---- one invocation ---------------------------------------------------- *)

(* The whole syntactic pass over (path, source) pairs: each file's own
   rules, then S1 over lib/ implementations and X1 over everything. *)
let lint_sources files =
  let facts = List.map (fun (path, src) -> analyze_source ~path src) files in
  let lib_ml =
    List.filter (fun f -> in_lib f.f_path && Filename.check_suffix f.f_path ".ml") facts
  in
  List.concat_map (fun f -> f.f_diags) facts
  @ span_pairing
      ~begins:(List.concat_map (fun f -> f.f_begins) lib_ml)
      ~ends:(List.concat_map (fun f -> f.f_ends) lib_ml)
  @ dead_exports facts
