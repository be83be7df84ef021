(* nklint's typedtree pass (DESIGN.md §15).

   Where the syntactic pass (Syntactic) reads one parsetree at a time, this
   pass loads the *typedtrees* the main dune build already produced (.cmt
   files under lib/), links them into an interprocedural call graph, and
   enforces discipline that no single-function syntactic check can see:

   O1  shard-ownership: CoreEngine's shared tables (conn_table, nsm_conns,
       assignment, buckets; [Hashtbl] or [Nkutil.Int_tbl] values) may be
       written directly from shard context only
       on paths that charge the cross-shard cost — i.e. the writer reads
       the cost itself (the value [Nk_costs.ce_xshard], or a record field
       [ce_xshard]) or reaches a function that does (charge_xshard, via
       the table_add/table_remove accessors). Control
       verbs running on no CE core are exempt (they never execute in shard
       context). Waiver for a deliberate owner-shard accessor:
       (* nkscope: ce-owner *).
   M1  migration snapshot completeness: in a unit with top-level [snapshot]
       and [restore] over a record [t], every mutable or stateful slot
       reachable from [t] must be read by [snapshot] and written by
       [restore]; in a CC module (a unit constructing a record with
       [export]/[import] closures), every mutable field of the local state
       record must be covered by both closures. Fields legitimately rebuilt
       at the destination carry (* nkscope: volatile *).
   H3  no comparison at a type variable on the hot path: in H1's and H2's
       modules (Common's hot-path lists), [=], [<>], [<], [>], [<=], [>=],
       [compare], [min] and [max] of [Stdlib] must not be used at an
       operand type that inference left a type variable (an unannotated
       helper): the compiler emits a C call ([caml_equal],
       [caml_lessthan], ...) for those, where an annotated [int] compiles
       to one instruction. No waiver.
   T1  transitive determinism taint: taint seeded at wall-clock / ambient
       Random references propagates over the call graph (any mention of a
       function, including as a value, taints the mentioner), so a lib/
       function reaching Unix.gettimeofday through helper chains is flagged
       even though the syntactic D1 only sees the direct call site. Waiver:
       (* nkscope: nondet-ok *).
   W1  a [nkscope:] waiver comment that suppresses nothing, or an unknown
       [nkscope:] token, is itself reported so waivers cannot rot. Tokens
       inside string literals (lint-test fixtures) are exempt.

   Approximations, chosen deliberately: call edges are resolved by
   (module, value) name after normalizing dune wrapper prefixes
   ([Nkcore__Coreengine] -> [Coreengine]), one level of local
   [module X = Path] aliases, and a leading [Stdlib.]. An alias chain that
   crosses another unit can drop an edge, and same-named modules in two
   libraries link to every candidate. Both err on the side the rules
   tolerate: a dropped edge loses at most a diagnostic the syntactic D1
   rule still catches at the direct site, and a duplicate edge only widens
   taint/legality conservatively. *)

open Typedtree
include Common

(* ---- name normalization ------------------------------------------------ *)

(* [Nkcore__Coreengine] -> [Coreengine]: dune wrapper-prefixed unit names. *)
let after_dunder s =
  let n = String.length s in
  let rec find i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then find (i + 2) (Some (i + 2))
    else find (i + 1) best
  in
  match find 0 None with Some i when i < n -> String.sub s i (n - i) | _ -> s

let split_path s = List.map after_dunder (String.split_on_char '.' s)

let strip_stdlib = function "Stdlib" :: (_ :: _ as tl) -> tl | l -> l

(* ---- per-function / per-unit facts ------------------------------------- *)

type func = {
  f_unit : string;
  f_file : string;
  f_name : string;
  f_line : int;
  f_col : int;
  f_in_lib : bool;
  mutable f_id : int;
  mutable f_refs : string list list; (* normalized components of every ident use *)
  mutable f_field_reads : string list;
  mutable f_field_writes : string list; (* setfield targets + record-construction labels *)
  mutable f_table_writes : (string * int * int) list; (* shared-table label, line, col *)
  mutable f_shard_param : bool;
}

type type_field = { tf_name : string; tf_mut : bool; tf_type : core_type; tf_line : int }

type type_decl = {
  td_name : string;
  td_fields : type_field list; (* record labels; [] for variants/aliases *)
  td_args : core_type list; (* variant constructor args + alias manifest *)
}

type unit_info = {
  u_name : string;
  u_file : string;
  u_src : string; (* "" when the source text is unavailable *)
  u_in_lib : bool;
  u_funcs : func list;
  u_types : type_decl list;
  u_exports : (expression * expression) option; (* (export, import) closures *)
  u_strlits : (int * int) list; (* line ranges of waiver-bearing string literals *)
  u_poly_cmps : (string * int * int) list; (* H3: operator, line, col *)
}

(* ---- typedtree extraction ---------------------------------------------- *)

let shared_tables = [ "conn_table"; "nsm_conns"; "assignment"; "buckets" ]

let hashtbl_mutators =
  [ "replace"; "remove"; "add"; "reset"; "clear"; "filter_map_inplace" ]

(* A table mutator: [Hashtbl]'s, or [Nkutil.Int_tbl]'s under any prefix
   ([Int_tbl.replace], [Nkutil.Int_tbl.replace]). *)
let is_table_mutator comps =
  match comps with
  | [ "Hashtbl"; m ] -> List.mem m hashtbl_mutators
  | _ -> (
      match List.rev comps with
      | m :: "Int_tbl" :: _ -> List.mem m hashtbl_mutators
      | _ -> false)

(* H3's comparisons: the polymorphic ones [Stdlib] provides. *)
let polymorphic_comparisons =
  List.map
    (fun op -> "Stdlib." ^ op)
    [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

(* Is [ty], an instance of a comparison's type ['a -> 'a -> _], taken at a
   type variable? *)
let compared_at_type_var ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> (
      match Types.get_desc a with Types.Tvar _ | Types.Tunivar _ -> true | _ -> false)
  | _ -> false

(* Does a parameter's inferred type mention the [shard] record anywhere
   outside an arrow (a callback taking a shard does not put its taker in
   shard context)? *)
let type_mentions_shard ty =
  let rec go visited ty =
    let id = Types.get_id ty in
    if List.mem id visited then false
    else
      let visited = id :: visited in
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
          Path.last p = "shard" || List.exists (go visited) args
      | Types.Ttuple l -> List.exists (go visited) l
      | Types.Tpoly (t, _) -> go visited t
      | _ -> false
  in
  go [] ty

(* Walk the curried-lambda spine of a binding, checking every parameter. *)
let rec spine_has_shard_param e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.exists (fun c -> type_mentions_shard c.c_lhs.pat_type) cases
      || (match cases with [ { c_rhs; _ } ] -> spine_has_shard_param c_rhs | _ -> false)
  | _ -> false

let unit_of_structure ~file ~src ~name (str : structure) =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  (* Pass 1: local [module X = Path] aliases, collected up front so
     references through them resolve regardless of declaration order. *)
  let rec alias_pass items =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_module mb -> (
            match (mb.mb_name.Asttypes.txt, mb.mb_expr.mod_desc) with
            | Some n, Tmod_ident (p, _) ->
                Hashtbl.replace aliases n (split_path (Path.name p))
            | _, Tmod_structure s -> alias_pass s.str_items
            | _, Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                alias_pass s.str_items
            | _ -> ())
        | _ -> ())
      items
  in
  alias_pass str.str_items;
  let normalize path =
    let comps = split_path (Path.name path) in
    let comps =
      match comps with
      | hd :: tl -> (
          match Hashtbl.find_opt aliases hd with
          | Some full -> full @ tl
          | None -> comps)
      | [] -> []
    in
    strip_stdlib comps
  in
  let funcs = ref [] in
  let types = ref [] in
  let exports = ref None in
  let strlits = ref [] in
  let poly_cmps = ref [] in
  let scan_expr (f : func) e0 =
    let default = Tast_iterator.default_iterator in
    let expr self e =
      (match e.exp_desc with
      | Texp_ident (p, _, _) ->
          f.f_refs <- normalize p :: f.f_refs;
          if
            List.mem (Path.name p) polymorphic_comparisons
            && compared_at_type_var e.exp_type
          then
            poly_cmps :=
              (Path.last p, loc_line e.exp_loc, loc_col e.exp_loc) :: !poly_cmps
      | Texp_field (_, _, ld) -> f.f_field_reads <- ld.Types.lbl_name :: f.f_field_reads
      | Texp_setfield (_, _, ld, _) ->
          f.f_field_writes <- ld.Types.lbl_name :: f.f_field_writes
      | Texp_constant (Asttypes.Const_string (s, _, _)) ->
          Option.iter (fun r -> strlits := r :: !strlits) (waiver_literal e.exp_loc s)
      | Texp_record { fields; _ } ->
          let labels =
            Array.to_list fields
            |> List.filter_map (fun (ld, def) ->
                   match def with
                   | Overridden (_, fe) -> Some (ld.Types.lbl_name, fe)
                   | Kept _ -> None)
          in
          List.iter
            (fun (l, _) -> f.f_field_writes <- l :: f.f_field_writes)
            labels;
          if !exports = None then (
            match (List.assoc_opt "export" labels, List.assoc_opt "import" labels) with
            | Some ex, Some im -> exports := Some (ex, im)
            | _ -> ())
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          match normalize p with
          | comps when is_table_mutator comps -> (
              let first_pos =
                List.find_map
                  (fun (lbl, a) ->
                    match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
                  args
              in
              match first_pos with
              | Some { exp_desc = Texp_field (_, _, ld); exp_loc; _ }
                when List.mem ld.Types.lbl_name shared_tables ->
                  f.f_table_writes <-
                    (ld.Types.lbl_name, loc_line exp_loc, loc_col exp_loc)
                    :: f.f_table_writes
              | _ -> ())
          | _ -> ())
      | _ -> ());
      default.expr self e
    in
    let it = { default with expr } in
    it.expr it e0
  in
  let add_func fname loc expr =
    let f =
      {
        f_unit = name;
        f_file = file;
        f_name = fname;
        f_line = loc_line loc;
        f_col = loc_col loc;
        f_in_lib = in_lib file;
        f_id = -1;
        f_refs = [];
        f_field_reads = [];
        f_field_writes = [];
        f_table_writes = [];
        f_shard_param = spine_has_shard_param expr;
      }
    in
    scan_expr f expr;
    funcs := f :: !funcs
  in
  let add_type (d : type_declaration) =
    let fields_of lds =
      List.map
        (fun ld ->
          {
            tf_name = ld.ld_name.Asttypes.txt;
            tf_mut = ld.ld_mutable = Asttypes.Mutable;
            tf_type = ld.ld_type;
            tf_line = loc_line ld.ld_loc;
          })
        lds
    in
    let td =
      match d.typ_kind with
      | Ttype_record lds ->
          { td_name = d.typ_name.Asttypes.txt; td_fields = fields_of lds; td_args = [] }
      | Ttype_variant ctors ->
          let args =
            List.concat_map
              (fun c ->
                match c.cd_args with
                | Cstr_tuple l -> l
                | Cstr_record lds -> List.map (fun ld -> ld.ld_type) lds)
              ctors
          in
          { td_name = d.typ_name.Asttypes.txt; td_fields = []; td_args = args }
      | _ ->
          {
            td_name = d.typ_name.Asttypes.txt;
            td_fields = [];
            td_args = (match d.typ_manifest with Some t -> [ t ] | None -> []);
          }
    in
    types := td :: !types
  in
  let rec item_pass items =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, n) -> add_func n.Asttypes.txt vb.vb_pat.pat_loc vb.vb_expr
                | _ -> ())
              vbs
        | Tstr_type (_, decls) -> List.iter add_type decls
        | Tstr_module mb -> (
            match mb.mb_expr.mod_desc with
            | Tmod_structure s -> item_pass s.str_items
            | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                item_pass s.str_items
            | _ -> ())
        | _ -> ())
      items
  in
  item_pass str.str_items;
  {
    u_name = name;
    u_file = file;
    u_src = src;
    u_in_lib = in_lib file;
    u_funcs = List.rev !funcs;
    u_types = List.rev !types;
    u_exports = !exports;
    u_strlits = !strlits;
    u_poly_cmps = List.rev !poly_cmps;
  }

(* ---- M1: snapshot / export completeness -------------------------------- *)

let builtin_mutable =
  [ "Queue.t"; "Hashtbl.t"; "Buffer.t"; "Bytes.t"; "bytes"; "ref"; "array"; "Atomic.t"; "Stack.t" ]

(* [Nkutil.Int_tbl.t] under any prefix is a mutable container too. *)
let is_int_tbl comps =
  match List.rev comps with "t" :: "Int_tbl" :: _ -> true | _ -> false

let builtin_immutable =
  [ "int"; "float"; "bool"; "char"; "string"; "unit"; "int32"; "int64"; "nativeint";
    "Int32.t"; "Int64.t"; "String.t" ]

let transparent = [ "option"; "list"; "Option.t"; "List.t" ]

let find_decl u n = List.find_opt (fun td -> td.td_name = n) u.u_types

(* A type is "stateful" if a value of it can carry mutable state the
   migration snapshot would have to move: a builtin mutable container, a
   local type with (transitively) mutable content, or — conservatively —
   any abstract type from another module. Arrows are opaque and stateless
   (closures are rebuilt, not moved). *)
let ty_stateful u ct =
  let rec go visited ct =
    match ct.ctyp_desc with
    | Ttyp_arrow _ -> false
    | Ttyp_tuple l -> List.exists (go visited) l
    | Ttyp_poly (_, t) -> go visited t
    | Ttyp_constr (p, _, args) ->
        let comps = strip_stdlib (split_path (Path.name p)) in
        let pname = String.concat "." comps in
        if List.mem pname builtin_mutable || is_int_tbl comps then true
        else if List.mem pname builtin_immutable then false
        else if List.mem pname transparent then List.exists (go visited) args
        else if String.contains (Path.name p) '.' then true (* external abstract *)
        else (
          match find_decl u (Path.last p) with
          | Some td when not (List.mem td.td_name visited) ->
              let visited = td.td_name :: visited in
              List.exists (fun tf -> tf.tf_mut || go visited tf.tf_type) td.td_fields
              || List.exists (go visited) td.td_args
          | Some _ -> false
          | None -> true)
    | _ -> false
  in
  go [] ct

(* Local record decls reachable from [td]'s fields through local types
   (skipping arrows): their mutable fields are migration slots too
   (e.g. tcb's [retx_item] inside [retxq : retx_item Queue.t]). *)
let reachable_records u td0 =
  let reached = ref [] in
  let rec walk_ty ct =
    match ct.ctyp_desc with
    | Ttyp_arrow _ -> ()
    | Ttyp_tuple l -> List.iter walk_ty l
    | Ttyp_poly (_, t) -> walk_ty t
    | Ttyp_constr (p, _, args) ->
        List.iter walk_ty args;
        if not (String.contains (Path.name p) '.') then (
          match find_decl u (Path.last p) with
          | Some td when not (List.exists (fun r -> r.td_name = td.td_name) !reached) ->
              reached := td :: !reached;
              List.iter (fun tf -> walk_ty tf.tf_type) td.td_fields;
              List.iter walk_ty td.td_args
          | _ -> ())
    | _ -> ()
  in
  List.iter (fun tf -> walk_ty tf.tf_type) td0.td_fields;
  List.filter (fun td -> td.td_name <> td0.td_name && td.td_fields <> []) !reached

(* Field reads/writes of [roots] plus every same-unit function they reach
   (snapshot/restore may delegate to helpers like [arm_rto]). *)
let unit_closure u roots =
  let local f = List.filter (fun g -> g.f_name = f) u.u_funcs in
  let seen = ref [] in
  let rec visit f =
    if not (List.memq f !seen) then (
      seen := f :: !seen;
      List.iter
        (fun comps ->
          match comps with [ x ] -> List.iter visit (local x) | _ -> ())
        f.f_refs)
  in
  List.iter visit roots;
  !seen

let m1_unit u =
  let diags = ref [] in
  let add line name what where =
    diags :=
      {
        file = u.u_file;
        line;
        col = 0;
        rule = "M1";
        msg =
          Printf.sprintf
            "%s holds mutable state but is not %s by %s — migration would silently drop \
             it; cover it or waive a rebuilt-at-destination field with (* nkscope: \
             volatile *)"
            name what where;
      }
      :: !diags
  in
  (* Mode A: top-level snapshot/restore over record [t]. *)
  (match
     ( find_decl u "t",
       List.filter (fun f -> f.f_name = "snapshot") u.u_funcs,
       List.filter (fun f -> f.f_name = "restore") u.u_funcs )
   with
  | Some trec, (_ :: _ as snaps), (_ :: _ as rests) when trec.td_fields <> [] ->
      let reads =
        List.concat_map (fun f -> f.f_field_reads) (unit_closure u snaps)
      in
      let writes =
        List.concat_map (fun f -> f.f_field_writes) (unit_closure u rests)
      in
      let check rec_name tf =
        if not (List.mem tf.tf_name reads) then
          add tf.tf_line (rec_name ^ "." ^ tf.tf_name) "read" "[snapshot]";
        if not (List.mem tf.tf_name writes) then
          add tf.tf_line (rec_name ^ "." ^ tf.tf_name) "written" "[restore]"
      in
      List.iter
        (fun tf -> if tf.tf_mut || ty_stateful u tf.tf_type then check "t" tf)
        trec.td_fields;
      List.iter
        (fun td ->
          List.iter (fun tf -> if tf.tf_mut then check td.td_name tf) td.td_fields)
        (reachable_records u trec)
  | _ -> ());
  (* Mode B: CC-style export/import closures over local state records. *)
  (match u.u_exports with
  | Some (ex, im) ->
      let probe =
        {
          f_unit = u.u_name; f_file = u.u_file; f_name = "(export)"; f_line = 0; f_col = 0;
          f_in_lib = u.u_in_lib; f_id = -1; f_refs = []; f_field_reads = [];
          f_field_writes = []; f_table_writes = []; f_shard_param = false;
        }
      in
      let collect e =
        let f = { probe with f_refs = []; f_field_reads = []; f_field_writes = [] } in
        let default = Tast_iterator.default_iterator in
        let expr self e =
          (match e.exp_desc with
          | Texp_field (_, _, ld) -> f.f_field_reads <- ld.Types.lbl_name :: f.f_field_reads
          | Texp_setfield (_, _, ld, _) ->
              f.f_field_writes <- ld.Types.lbl_name :: f.f_field_writes
          | _ -> ());
          default.expr self e
        in
        let it = { default with expr } in
        it.expr it e;
        f
      in
      let er = (collect ex).f_field_reads in
      let iw = (collect im).f_field_writes in
      List.iter
        (fun td ->
          if td.td_name <> "t" then
            List.iter
              (fun tf ->
                if tf.tf_mut then (
                  if not (List.mem tf.tf_name er) then
                    add tf.tf_line (td.td_name ^ "." ^ tf.tf_name) "read" "the [export] closure";
                  if not (List.mem tf.tf_name iw) then
                    add tf.tf_line (td.td_name ^ "." ^ tf.tf_name) "written" "the [import] closure"))
              td.td_fields)
        (List.filter (fun td -> td.td_fields <> []) u.u_types)
  | None -> ());
  List.rev !diags

(* ---- O1 / T1: interprocedural graph rules ------------------------------ *)

let taint_source comps =
  match comps with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      Some (String.concat "." comps)
  | "Random" :: _ :: _ -> Some (String.concat "." comps)
  | _ -> None

let graph_diags units =
  let funcs = Array.of_list (List.concat_map (fun u -> u.u_funcs) units) in
  let n = Array.length funcs in
  Array.iteri (fun i f -> f.f_id <- i) funcs;
  let index : (string * string, int list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i f ->
      let key = (f.f_unit, f.f_name) in
      Hashtbl.replace index key (i :: (try Hashtbl.find index key with Not_found -> [])))
    funcs;
  let resolve f comps =
    let rec last2 = function
      | [ m; x ] -> Some (m, x)
      | _ :: tl -> last2 tl
      | [] -> None
    in
    let key =
      match comps with [ x ] -> Some (f.f_unit, x) | l -> last2 l
    in
    match key with
    | None -> []
    | Some k -> ( try Hashtbl.find index k with Not_found -> [])
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  Array.iteri
    (fun i f ->
      let out =
        List.sort_uniq Int.compare (List.concat_map (resolve f) f.f_refs)
      in
      let out = List.filter (fun j -> j <> i) out in
      succs.(i) <- out;
      List.iter (fun j -> preds.(j) <- i :: preds.(j)) out)
    funcs;
  let propagate seeds edges =
    let mark = Array.make n false in
    let q = Queue.create () in
    List.iter
      (fun i ->
        if not mark.(i) then (
          mark.(i) <- true;
          Queue.add i q))
      seeds;
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      List.iter
        (fun j ->
          if not mark.(j) then (
            mark.(j) <- true;
            Queue.add j q))
        edges.(i)
    done;
    mark
  in
  let ids p =
    Array.to_list funcs |> List.filter p |> List.map (fun f -> f.f_id)
  in
  (* O1: shard context flows caller -> callee from shard-parameter functions;
     cross-shard legality flows callee -> caller from ce_xshard readers. *)
  let shard_ctx = propagate (ids (fun f -> f.f_shard_param)) succs in
  let reads_xshard f =
    List.mem "ce_xshard" f.f_field_reads
    || List.exists
         (fun comps ->
           match List.rev comps with "ce_xshard" :: "Nk_costs" :: _ -> true | _ -> false)
         f.f_refs
  in
  let xshard = propagate (ids reads_xshard) preds in
  let o1 =
    Array.to_list funcs
    |> List.concat_map (fun f ->
           if f.f_table_writes <> [] && shard_ctx.(f.f_id) && not xshard.(f.f_id) then
             List.rev_map
               (fun (label, line, col) ->
                 {
                   file = f.f_file;
                   line;
                   col;
                   rule = "O1";
                   msg =
                     Printf.sprintf
                       "direct write to shared table [%s] in [%s], which runs in shard \
                        context but never charges Nk_costs.ce_xshard — route it through \
                        the table accessors, or waive a deliberate owner-shard accessor \
                        with (* nkscope: ce-owner *)"
                       label f.f_name;
                 })
               f.f_table_writes
           else [])
  in
  (* T1: BFS from direct nondeterminism references backwards to callers,
     recording a shortest witness chain per function. *)
  let via = Array.make n None in
  let q = Queue.create () in
  Array.iter
    (fun f ->
      match List.find_map taint_source f.f_refs with
      | Some src when via.(f.f_id) = None ->
          via.(f.f_id) <- Some src;
          Queue.add f.f_id q
      | _ -> ())
    funcs;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let chain =
      match via.(i) with Some c -> funcs.(i).f_name ^ " -> " ^ c | None -> assert false
    in
    List.iter
      (fun j ->
        if via.(j) = None then (
          via.(j) <- Some chain;
          Queue.add j q))
      preds.(i)
  done;
  let t1 =
    Array.to_list funcs
    |> List.filter_map (fun f ->
           match via.(f.f_id) with
           | Some chain when f.f_in_lib ->
               Some
                 {
                   file = f.f_file;
                   line = f.f_line;
                   col = f.f_col;
                   rule = "T1";
                   msg =
                     Printf.sprintf
                       "[%s] reaches a nondeterminism source (%s) — take time from \
                        Sim.Engine / randomness from Nkutil.Rng, or waive with (* \
                        nkscope: nondet-ok *)"
                       f.f_name chain;
                 }
           | _ -> None)
  in
  o1 @ t1

(* ---- H3: comparisons at a type variable on the hot path --------------- *)

let h3_unit u =
  if in_nqe_path u.u_file || in_table_hot_path u.u_file then
    List.map
      (fun (op, line, col) ->
        {
          file = u.u_file;
          line;
          col;
          rule = "H3";
          msg =
            Printf.sprintf
              "[%s] at a type variable compiles to a polymorphic C comparison on the \
               hot path — annotate the operand's type (e.g. (x : int))"
              op;
        })
      u.u_poly_cmps
  else []

(* ---- driver ------------------------------------------------------------ *)

let analyze units =
  let pre =
    graph_diags units
    @ List.concat_map m1_unit (List.filter (fun u -> u.u_in_lib) units)
    @ List.concat_map h3_unit units
  in
  let scans =
    List.map
      (fun u -> scan_waivers ~prefix:"nkscope" ~file:u.u_file ~strlit:u.u_strlits u.u_src)
      units
  in
  List.sort compare_diag
    (apply_waivers (List.concat_map fst scans) pre @ List.concat_map snd scans)

(* ---- cmt loading ------------------------------------------------------- *)

let unit_of_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | ci -> (
      match ci.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let name = after_dunder ci.Cmt_format.cmt_modname in
          let file =
            match ci.Cmt_format.cmt_sourcefile with Some f -> f | None -> path
          in
          (* cmt_builddir can be stale (dune sanitizes it), so resolve the
             source cwd-relative first and fall back to the recorded dir. *)
          let src =
            if Sys.file_exists file then read_file file
            else
              let alt = Filename.concat ci.Cmt_format.cmt_builddir file in
              if Sys.file_exists alt then read_file alt else ""
          in
          Some (unit_of_structure ~file ~src ~name str)
      | _ -> None)
