(* Committed performance baselines and the `nk bench --compare` diff.

   A bench snapshot is the simulated result table of a quick-mode
   experiment (deterministic, so any drift is a real behaviour change)
   plus the wall-clock seconds the run took (machine-dependent, reported
   but never gating). Snapshots serialize to a small JSON file that gets
   committed (BENCH_<id>.json) and diffed by CI against a fresh run. *)

type entry = {
  b_id : string;
  b_headers : string list;
  b_rows : string list list;
  b_percentiles : Report.pctl list;
  b_wall_s : float;
}

(* ---- serialization ------------------------------------------------------ *)

let to_json entries =
  let str s = "\"" ^ Nkmon.json_escape s ^ "\"" in
  let arr items = "[" ^ String.concat ", " items ^ "]" in
  (* Fixed decimals keep the rendering deterministic across runs. *)
  let pctl (p : Report.pctl) =
    Printf.sprintf
      "{\"label\": %s, \"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": %.4f, \
       \"p999_ms\": %.4f}"
      (str p.Report.p_label) p.Report.p50_ms p.Report.p90_ms p.Report.p99_ms
      p.Report.p999_ms
  in
  let entry e =
    String.concat "\n"
      ([
         "  {";
         Printf.sprintf "    \"id\": %s," (str e.b_id);
         Printf.sprintf "    \"headers\": %s," (arr (List.map str e.b_headers));
         Printf.sprintf "    \"rows\": %s,"
           (arr (List.map (fun r -> arr (List.map str r)) e.b_rows));
       ]
      @ (if e.b_percentiles = [] then []
         else
           [
             Printf.sprintf "    \"percentiles\": %s,"
               (arr (List.map pctl e.b_percentiles));
           ])
      @ [ Printf.sprintf "    \"wall_s\": %.3f" e.b_wall_s; "  }" ])
  in
  "[\n" ^ String.concat ",\n" (List.map entry entries) ^ "\n]\n"

(* Minimal recursive-descent parser for the JSON subset we emit (objects,
   arrays, strings, numbers). Good enough to read our own baselines back
   without a JSON dependency. *)
type json = S of string | N of float | A of json list | O of (string * json) list

exception Parse of string

let of_json text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Parse (Printf.sprintf "expected %c at offset %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> raise (Parse "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
              if !pos + 4 >= len then raise (Parse "bad \\u escape");
              let code = int_of_string ("0x" ^ String.sub text (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (code land 0xFF))
          | Some c -> Buffer.add_char b c
          | None -> raise (Parse "unterminated escape"));
          advance ();
          loop ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          A []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> raise (Parse "expected , or ] in array")
          in
          A (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          O []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> raise (Parse "expected , or } in object")
          in
          O (fields [])
        end
    | Some _ ->
        let start = !pos in
        let is_num c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while (match peek () with Some c -> is_num c | None -> false) do
          advance ()
        done;
        if !pos = start then raise (Parse (Printf.sprintf "unexpected input at %d" start));
        N (float_of_string (String.sub text start (!pos - start)))
    | None -> raise (Parse "unexpected end of input")
  in
  try
    let v = parse_value () in
    skip_ws ();
    let field o k =
      match List.assoc_opt k o with
      | Some v -> v
      | None -> raise (Parse ("missing field " ^ k))
    in
    let as_string = function S s -> s | _ -> raise (Parse "expected string") in
    let as_list = function A l -> l | _ -> raise (Parse "expected array") in
    let as_float = function N f -> f | _ -> raise (Parse "expected number") in
    let pctl = function
      | O o ->
          {
            Report.p_label = as_string (field o "label");
            p50_ms = as_float (field o "p50_ms");
            p90_ms = as_float (field o "p90_ms");
            p99_ms = as_float (field o "p99_ms");
            p999_ms = as_float (field o "p999_ms");
          }
      | _ -> raise (Parse "expected percentile object")
    in
    let entry = function
      | O o ->
          {
            b_id = as_string (field o "id");
            b_headers = List.map as_string (as_list (field o "headers"));
            b_rows = List.map (fun r -> List.map as_string (as_list r)) (as_list (field o "rows"));
            (* Baselines predate the percentiles key; absent means none
               recorded, not a malformed snapshot. *)
            b_percentiles =
              (match List.assoc_opt "percentiles" o with
              | None -> []
              | Some v -> List.map pctl (as_list v));
            b_wall_s = as_float (field o "wall_s");
          }
      | _ -> raise (Parse "expected entry object")
    in
    Ok (List.map entry (as_list v))
  with
  | Parse msg -> Error msg
  | Failure msg -> Error msg

(* ---- comparison --------------------------------------------------------- *)

(* Cells are rendered numbers with unit suffixes ("1687.6K", "34.8",
   "86%"). Compare the numeric prefix with a relative tolerance when both
   sides have one (suffixes must still match); fall back to string
   equality otherwise. *)
let split_number cell =
  let n = String.length cell in
  let i = ref 0 in
  if !i < n && (cell.[0] = '-' || cell.[0] = '+') then incr i;
  let digits = ref false in
  while
    !i < n && (match cell.[!i] with '0' .. '9' -> true | '.' -> true | _ -> false)
  do
    (match cell.[!i] with '0' .. '9' -> digits := true | _ -> ());
    incr i
  done;
  if not !digits then None
  else
    match float_of_string_opt (String.sub cell 0 !i) with
    | None -> None
    | Some f -> Some (f, String.sub cell !i (n - !i))

type mismatch = { m_id : string; m_where : string; m_old : string; m_new : string }

let compare_entries ~tolerance ~baseline ~fresh =
  let mismatches = ref [] in
  let fail ~id ~where ~old_v ~new_v =
    mismatches := { m_id = id; m_where = where; m_old = old_v; m_new = new_v } :: !mismatches
  in
  let check_cell ~id ~where old_c new_c =
    match (split_number old_c, split_number new_c) with
    | Some (a, sa), Some (b, sb) when sa = sb ->
        let scale = Float.max (Float.abs a) (Float.abs b) in
        let delta = Float.abs (a -. b) in
        if scale > 0.0 && delta /. scale > tolerance then
          fail ~id ~where ~old_v:old_c ~new_v:new_c
    | _ -> if old_c <> new_c then fail ~id ~where ~old_v:old_c ~new_v:new_c
  in
  List.iter
    (fun old_e ->
      match List.find_opt (fun e -> e.b_id = old_e.b_id) fresh with
      | None ->
          fail ~id:old_e.b_id ~where:"entry" ~old_v:"present" ~new_v:"missing"
      | Some new_e ->
          if old_e.b_headers <> new_e.b_headers then
            fail ~id:old_e.b_id ~where:"headers"
              ~old_v:(String.concat "," old_e.b_headers)
              ~new_v:(String.concat "," new_e.b_headers)
          else if List.length old_e.b_rows <> List.length new_e.b_rows then
            fail ~id:old_e.b_id ~where:"row count"
              ~old_v:(string_of_int (List.length old_e.b_rows))
              ~new_v:(string_of_int (List.length new_e.b_rows))
          else
            List.iteri
              (fun ri (old_r, new_r) ->
                if List.length old_r <> List.length new_r then
                  fail ~id:old_e.b_id
                    ~where:(Printf.sprintf "row %d width" ri)
                    ~old_v:(String.concat "," old_r) ~new_v:(String.concat "," new_r)
                else
                  List.iteri
                    (fun ci (old_c, new_c) ->
                      let where =
                        Printf.sprintf "row %d, %s" ri
                          (match List.nth_opt old_e.b_headers ci with
                          | Some h -> h
                          | None -> Printf.sprintf "col %d" ci)
                      in
                      check_cell ~id:old_e.b_id ~where old_c new_c)
                    (List.combine old_r new_r))
              (List.combine old_e.b_rows new_e.b_rows);
          (* An empty baseline list means the snapshot predates percentile
             recording — nothing to hold the fresh run to. *)
          List.iter
            (fun (op : Report.pctl) ->
              match
                List.find_opt
                  (fun (np : Report.pctl) -> np.Report.p_label = op.Report.p_label)
                  new_e.b_percentiles
              with
              | None ->
                  fail ~id:old_e.b_id
                    ~where:(Printf.sprintf "percentiles %s" op.Report.p_label)
                    ~old_v:"present" ~new_v:"missing"
              | Some np ->
                  List.iter
                    (fun (metric, a, b) ->
                      let scale = Float.max (Float.abs a) (Float.abs b) in
                      let delta = Float.abs (a -. b) in
                      if scale > 0.0 && delta /. scale > tolerance then
                        fail ~id:old_e.b_id
                          ~where:(Printf.sprintf "%s %s" op.Report.p_label metric)
                          ~old_v:(Printf.sprintf "%.4f" a)
                          ~new_v:(Printf.sprintf "%.4f" b))
                    [
                      ("p50_ms", op.Report.p50_ms, np.Report.p50_ms);
                      ("p90_ms", op.Report.p90_ms, np.Report.p90_ms);
                      ("p99_ms", op.Report.p99_ms, np.Report.p99_ms);
                      ("p999_ms", op.Report.p999_ms, np.Report.p999_ms);
                    ])
            old_e.b_percentiles)
    baseline;
  List.rev !mismatches

(* The DRIFT line an operator actually reads: which metric moved and by how
   much, relative to the baseline, when both cells carry a number. *)
let describe m =
  let delta =
    match (split_number m.m_old, split_number m.m_new) with
    | Some (a, _), Some (b, _) when Float.abs a > 0.0 ->
        Printf.sprintf " (%+.1f%%)" (100.0 *. (b -. a) /. Float.abs a)
    | _ -> ""
  in
  Printf.sprintf "%-20s %s -> %s%s" m.m_where m.m_old m.m_new delta

let wall_ratios ~baseline ~fresh =
  List.filter_map
    (fun old_e ->
      match List.find_opt (fun e -> e.b_id = old_e.b_id) fresh with
      | Some new_e when old_e.b_wall_s > 0.0 ->
          Some (old_e.b_id, old_e.b_wall_s, new_e.b_wall_s, new_e.b_wall_s /. old_e.b_wall_s)
      | _ -> None)
    baseline

let of_report ~wall_s (r : Report.t) =
  {
    b_id = r.Report.id;
    b_headers = r.Report.headers;
    b_rows = r.Report.rows;
    b_percentiles = r.Report.percentiles;
    b_wall_s = wall_s;
  }

(* The whole rendered report is compared, notes included: a snapshot keeps
   only rows and percentiles, but a nondeterministic note (an error count,
   a flight-dump digest) is as much a behaviour leak as a drifted cell. *)
let run_twice run =
  let first, wall_s = run () in
  let second, _ = run () in
  let lines r = String.split_on_char '\n' (Report.to_json r) in
  let rec first_diff = function
    | a :: ra, b :: rb -> if String.equal a b then first_diff (ra, rb) else Some (a, b)
    | a :: _, [] -> Some (a, "(missing)")
    | [], b :: _ -> Some ("(missing)", b)
    | [], [] -> None
  in
  match first_diff (lines first, lines second) with
  | None -> Ok (of_report ~wall_s first)
  | Some (a, b) ->
      Error (Printf.sprintf "run 1: %s\nrun 2: %s" (String.trim a) (String.trim b))
