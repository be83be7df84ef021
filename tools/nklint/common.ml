(* What both nklint passes share (DESIGN.md §10): the diagnostic record and
   its writers, path and location helpers, the hot-path module lists, and
   the waiver table with its scanner and stale-waiver (W1) filter.
   [Syntactic] and [Typed] include this module, so each pass exposes the
   whole core. *)

type diag = { file : string; line : int; col : int; rule : string; msg : string }

let to_string d = Printf.sprintf "%s:%d: %s: %s" d.file d.line d.rule d.msg

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"msg\":\"%s\"}"
    (json_escape d.file) d.line d.col (json_escape d.rule) (json_escape d.msg)

let to_json_array diags = "[" ^ String.concat ",\n " (List.map to_json diags) ^ "]"

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

(* The report of one invocation: every pass's diagnostics in order, each
   once. Both passes report an unknown [nkscope:] token in lib/. *)
let merge passes = List.sort_uniq compare_diag (List.concat passes)

(* The index just past the first [sub] in [s]. *)
let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec at i =
    if i + m > n then None else if matches i 0 then Some (i + m) else at (i + 1)
  in
  at 0

let contains ~sub s = find_sub ~sub s <> None

let in_lib path =
  (String.length path >= 4 && String.sub path 0 4 = "lib/") || contains ~sub:"/lib/" path

(* ---- the hot path (H1, H2, H3) ------------------------------------------ *)

(* The lib/core modules on the per-NQE datapath, where a full record decode
   is wall-clock the whole simulation pays millions of times. *)
let hot_path_modules =
  [
    "coreengine.ml"; "nk_device.ml"; "queue_set.ml"; "vswitch.ml"; "nsm_shmem.ml";
    "guestlib.ml"; "servicelib.ml";
  ]

let in_hot_path path =
  contains ~sub:"core/" path && List.mem (Filename.basename path) hot_path_modules

(* H1's files: the hot path plus the cluster relay, which moves NQEs
   between hosts. *)
let in_nqe_path path =
  in_hot_path path
  || (contains ~sub:"nkfabric/" path && Filename.basename path = "nkfabric.ml")

(* H2's modules: H1's lib/core ones, plus those whose tables every socket
   event, segment or payload extent consults. *)
let table_hot_path_modules =
  hot_path_modules
  @ [
      "epoll_core.ml"; "direct_socket.ml"; "fabric.ml"; "hugepages.ml"; "reactor.ml";
      "stack.ml"; "conn_registry.ml"; "homa.ml";
    ]

let in_table_hot_path path =
  in_lib path && List.mem (Filename.basename path) table_hot_path_modules

let loc_line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
let loc_end_line (loc : Location.t) = loc.Location.loc_end.Lexing.pos_lnum

let loc_col (loc : Location.t) =
  loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- waivers ----------------------------------------------------------- *)

(* The line range of a string literal that carries waiver-like tokens — the
   lint test fixtures quote whole waived programs, and those quoted tokens
   are not waivers of anything in the quoting file. *)
let waiver_literal (loc : Location.t) s =
  if contains ~sub:"nklint:" s || contains ~sub:"nkscope:" s then
    Some (loc_line loc, loc_end_line loc)
  else None

(* Every waiver token and the rule it silences. A waiver on line N covers
   diagnostics of its rule on lines N and N+1, so it can sit on its own
   line above the flagged code or at the end of the same line. The
   [nklint:] tokens belong to the syntactic pass; the [nkscope:] tokens to
   the typedtree pass, which reads lib/ only. *)
let waiver_tokens =
  [
    ("nklint: ordered-ok", "D2");
    ("nklint: magic-ok", "D4");
    ("nklint: swallow-ok", "D4");
    ("nkscope: volatile", "M1");
    ("nkscope: ce-owner", "O1");
    ("nkscope: nondet-ok", "T1");
  ]

type waiver = {
  w_file : string;
  w_line : int;
  w_rule : string;
  w_token : string;
  mutable w_used : bool;
}

(* A W1 (rotten waiver) diagnostic at [w]'s line. *)
let rotten w =
  Printf.ksprintf (fun msg ->
      { file = w.w_file; line = w.w_line; col = 0; rule = "W1"; msg })

(* The word following [marker] on [line] ("ordered-ok" after "nklint:"), or
   None when the marker is absent. *)
let token_word line marker =
  let n = String.length line in
  match find_sub ~sub:marker line with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < n && line.[!i] = ' ' do
        incr i
      done;
      let j = ref !i in
      while
        !j < n
        &&
        match line.[!j] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
        | _ -> false
      do
        incr j
      done;
      Some (String.sub line !i (!j - !i))

(* The waivers spelled [prefix ^ ":"] ("nklint:" or "nkscope:") in [src],
   and a W1 for each unknown token with that prefix. Lines inside the
   [strlit] ranges (string literals quoting waivers: the lint test
   fixtures) are fixture text, not waivers. *)
let scan_waivers ~prefix ~file ~strlit src =
  let in_strlit line = List.exists (fun (a, b) -> line >= a && line <= b) strlit in
  let marker = prefix ^ ":" and waivers = ref [] and w1 = ref [] in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      if not (in_strlit lnum) then
        match token_word line marker with
        | None | Some "" -> ()
        | Some word -> (
            let token = prefix ^ ": " ^ word in
            let w =
              { w_file = file; w_line = lnum; w_rule = ""; w_token = token; w_used = false }
            in
            match List.assoc_opt token waiver_tokens with
            | Some rule -> waivers := { w with w_rule = rule } :: !waivers
            | None -> w1 := rotten w "unknown %s waiver token %S" prefix token :: !w1))
    (String.split_on_char '\n' src);
  (List.rev !waivers, List.rev !w1)

(* [diags] minus every diagnostic a waiver covers, plus a stale W1 for each
   waiver that covers none. *)
let apply_waivers waivers diags =
  let kept =
    List.filter
      (fun d ->
        let covering =
          List.filter
            (fun w ->
              w.w_file = d.file && w.w_rule = d.rule
              && (w.w_line = d.line || w.w_line = d.line - 1))
            waivers
        in
        List.iter (fun w -> w.w_used <- true) covering;
        covering = [])
      diags
  in
  kept
  @ List.filter_map
      (fun w ->
        if w.w_used then None
        else
          Some (rotten w "stale waiver %S suppresses no %s diagnostic" w.w_token w.w_rule))
      waivers
