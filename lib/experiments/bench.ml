(* The `nk bench` double run. A BENCH baseline is the {!Report.to_json}
   rendering of a quick run, committed as BENCH_<id>.json and checked with
   `diff`. The run is done twice first: the tables are deterministic, so a
   row, percentile or note that differs between the two is a leak.

   Each rendering also carries two host counters as its last notes: the
   engine events the run executed and its minor-heap allocation. The
   events count is the same for every build, the allocation count for a
   given build, so the double run and the baseline `diff` gate the
   simulator's work like any other output: an event or a word added to a
   hot path moves them. *)

let measured run =
  let e0 = Sim.Engine.total_executed () in
  let w0 = Gc.minor_words () in
  let report = run () in
  let words = Gc.minor_words () -. w0 in
  let events = Sim.Engine.total_executed () - e0 in
  Report.to_json
    {
      report with
      Report.notes =
        report.Report.notes
        @ [
            Printf.sprintf "host: %d engine events executed" events;
            Printf.sprintf "host: %.0f minor words allocated" words;
          ];
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
