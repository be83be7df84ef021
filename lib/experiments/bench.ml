(* The `nk bench` double run. A BENCH baseline is the {!Report.to_json}
   rendering of a quick run, committed as BENCH_<id>.json and checked with
   `diff`. The run is done twice first: the tables are deterministic, so a
   row, percentile or note that differs between the two is a leak. *)

let run_twice run =
  let first = Report.to_json (run ()) in
  let second = Report.to_json (run ()) in
  let rec first_diff = function
    | a :: ra, b :: rb -> if String.equal a b then first_diff (ra, rb) else Some (a, b)
    | a :: _, [] -> Some (a, "(missing)")
    | [], b :: _ -> Some ("(missing)", b)
    | [], [] -> None
  in
  match first_diff (String.split_on_char '\n' first, String.split_on_char '\n' second) with
  | None -> Ok first
  | Some (a, b) ->
      Error (Printf.sprintf "run 1: %s\nrun 2: %s" (String.trim a) (String.trim b))
