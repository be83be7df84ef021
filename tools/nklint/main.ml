(* nklint CLI: [nklint [--format text|json] PATH...] runs both passes over
   the given files or directories — the syntactic pass over every .ml/.mli,
   the typedtree pass over the lib/ .cmt files the main build leaves in
   dune's hidden object directories — and exits nonzero if any diagnostic
   fires. Wired into the build as [dune build @lint] (see the root dune
   file) and tools/check.sh. *)

open Nklint

(* (sources, cmts) under [path]: .ml/.mli outside hidden directories, and
   lib/ .cmt files (dune keeps them in hidden object directories). *)
let rec walk ~hidden path ((srcs, cmts) as acc) =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "_build" then acc
           else walk ~hidden:(hidden || name.[0] = '.') (Filename.concat path name) acc)
         acc
  else if Filename.check_suffix path ".cmt" then
    if Common.in_lib path then (srcs, path :: cmts) else acc
  else if hidden then acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    (path :: srcs, cmts)
  else acc

let usage () =
  prerr_endline "usage: nklint [--format text|json] PATH...";
  exit 2

let () =
  let format = ref `Text in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "text" -> format := `Text
        | "json" -> format := `Json
        | _ -> usage ());
        parse rest
    | "--format" :: [] -> usage ()
    | arg :: rest ->
        roots := arg :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !roots = [] then usage ();
  let srcs, cmts = List.fold_left (fun acc r -> walk ~hidden:false r acc) ([], []) !roots in
  let sources = List.map (fun p -> (p, Common.read_file p)) srcs in
  let units = List.filter_map Typed.unit_of_cmt cmts in
  let diags = Common.merge [ Syntactic.lint_sources sources; Typed.analyze units ] in
  (match !format with
  | `Text -> List.iter (fun d -> print_endline (Common.to_string d)) diags
  | `Json -> print_endline (Common.to_json_array diags));
  Printf.eprintf "nklint: %d files and %d units checked, %d diagnostic%s\n%!"
    (List.length sources) (List.length units) (List.length diags)
    (if List.length diags = 1 then "" else "s");
  exit (if diags = [] then 0 else 1)
