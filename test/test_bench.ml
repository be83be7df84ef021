(* The `nk bench` double run: each experiment runs twice and the whole
   rendered report (rows, percentiles and notes) must match. The first
   rendering is the snapshot a BENCH_<id>.json baseline commits. *)

module Report = Experiments.Report
module Bench = Experiments.Bench

let report ?(rows = [ [ "1"; "2.0" ] ]) ~notes () =
  Report.make ~id:"exp" ~title:"t" ~headers:[ "a"; "b" ] ~notes rows

(* Each call returns the next report of the script. *)
let scripted reports =
  let n = ref 0 in
  fun () ->
    let r = List.nth reports !n in
    incr n;
    r

(* The snapshot is the report's rendering with two more notes last: the
   run's engine events and minor words, which the double run compares like
   any other note. A scripted run executes no event. *)
let identical_runs_pass () =
  let r = report ~notes:[ "x" ] () in
  match Bench.run_twice (scripted [ r; r ]) with
  | Ok snapshot ->
      let words =
        List.find_map
          (fun line ->
            Scanf.sscanf_opt (String.trim line) "\"host: %d minor words allocated\"%!" Fun.id)
          (String.split_on_char '\n' snapshot)
        |> Option.value ~default:(-1)
      in
      let notes =
        [ "host: 0 engine events executed"; Printf.sprintf "host: %d minor words allocated" words ]
      in
      Alcotest.(check string) "snapshot"
        (Report.to_json { r with Report.notes = r.Report.notes @ notes })
        snapshot
  | Error d -> Alcotest.failf "identical runs flagged: %s" d

let note_only_difference_flagged () =
  let first = report ~notes:[ "errors 0" ] () and second = report ~notes:[ "errors 1" ] () in
  match Bench.run_twice (scripted [ first; second ]) with
  | Ok _ -> Alcotest.fail "a note-only difference passed the double run"
  | Error d ->
      let mentions s =
        let n = String.length s and m = String.length d in
        let rec go i = i + n <= m && (String.sub d i n = s || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names both notes" true
        (mentions "errors 0" && mentions "errors 1")

(* One row, percentile record or note per line: a single moved cell shows
   as its own row's line, not as the whole table. *)
let one_cell_quotes_its_row () =
  let rows cell = [ [ "1"; "2.0" ]; [ "3"; cell ]; [ "5"; "6.0" ] ] in
  let first = report ~rows:(rows "4.0") ~notes:[ "x" ] ()
  and second = report ~rows:(rows "4.5") ~notes:[ "x" ] () in
  match Bench.run_twice (scripted [ first; second ]) with
  | Ok _ -> Alcotest.fail "a changed cell passed the double run"
  | Error d ->
      Alcotest.(check string) "the row's line only"
        "run 1: [\"3\", \"4.0\"],\nrun 2: [\"3\", \"4.5\"]," d

let tests =
  [
    Alcotest.test_case "double run passes identical reports" `Quick identical_runs_pass;
    Alcotest.test_case "double run flags a note-only difference" `Quick
      note_only_difference_flagged;
    Alcotest.test_case "double run quotes only the differing row" `Quick
      one_cell_quotes_its_row;
  ]
