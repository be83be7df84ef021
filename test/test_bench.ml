(* The `nk bench` double run: each experiment runs twice and the whole
   rendered report (rows, percentiles and notes) must match, because a
   snapshot keeps only rows and percentiles. *)

module Report = Experiments.Report
module Bench = Experiments.Bench

let report ~notes =
  Report.make ~id:"exp" ~title:"t" ~headers:[ "a"; "b" ] ~notes [ [ "1"; "2.0" ] ]

(* Each call returns the next report of the script, with its run number as
   the wall time. *)
let scripted reports =
  let n = ref 0 in
  fun () ->
    let r = List.nth reports !n in
    incr n;
    (r, float_of_int !n)

let identical_runs_pass () =
  match Bench.run_twice (scripted [ report ~notes:[ "x" ]; report ~notes:[ "x" ] ]) with
  | Ok e ->
      Alcotest.(check string) "id" "exp" e.Bench.b_id;
      Alcotest.(check (float 0.0)) "wall_s is the first run's" 1.0 e.Bench.b_wall_s
  | Error d -> Alcotest.failf "identical runs flagged: %s" d

let note_only_difference_flagged () =
  let first = report ~notes:[ "errors 0" ] and second = report ~notes:[ "errors 1" ] in
  Alcotest.(check bool) "the snapshots alone agree" true
    (Bench.compare_entries ~tolerance:0.0
       ~baseline:[ Bench.of_report ~wall_s:0.0 first ]
       ~fresh:[ Bench.of_report ~wall_s:0.0 second ]
    = []);
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

let tests =
  [
    Alcotest.test_case "double run passes identical reports" `Quick identical_runs_pass;
    Alcotest.test_case "double run flags a note-only difference" `Quick
      note_only_difference_flagged;
  ]
