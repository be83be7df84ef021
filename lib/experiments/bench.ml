(* The `nk bench` double run. A BENCH baseline is the {!Report.to_json}
   rendering of a quick run, committed as BENCH_<id>.json and checked with
   `diff`. The run is done twice first: the tables are deterministic, so a
   row, percentile or note that differs between the two is a leak.

   Each rendering also carries the run's minor-heap allocation as its last
   note. For a given build the count repeats exactly, so the double run
   and the baseline `diff` gate the simulator's allocation like any other
   output: a word added to a hot path moves it. *)

let measured run =
  let w0 = Gc.minor_words () in
  let report = run () in
  let words = Gc.minor_words () -. w0 in
  Report.to_json
    {
      report with
      Report.notes =
        report.Report.notes @ [ Printf.sprintf "host: %.0f minor words allocated" words ];
    }

let run_twice run =
  let first = measured run in
  let second = measured run in
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
