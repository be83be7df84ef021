(* The benchmark's own tests, on short runs. [python3 perfbench/run.py
   --selftest] runs them, then checks that two same-seed processes repeat
   the deterministic metrics exactly.

   - Driving a world in virtual-time slices executes exactly the events of
     one [Testbed.run] and gives identical simulated metrics, paced or
     not.
   - So does the traced run (spans on, cycle hook installed, stepped with
     [Engine.step]): the per-layer numbers describe the measured run.
   - Every workload passes its output checks.
   - A second seed moves the simulated metrics, but only slightly: no
     workload is tuned to one seed. *)

module W = Workloads
module H = Harness
module M = Metrics

let duration = 0.03

let sim (w : W.world) = M.sim ~server_cycles:(H.server_cycles w) (w.W.outcome ())

let show ms =
  String.concat " " (List.map (fun x -> Printf.sprintf "%s=%s" x.M.name (M.number x.M.value)) ms)

let run () =
  let failed = ref 0 in
  let check name ok detail =
    Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name
      (if ok then "" else "\n     " ^ detail);
    if not ok then incr failed
  in
  List.iter
    (fun (spec : W.spec) ->
      let build ?(seed = 1) ?(span_every = 0) () = spec.W.build { W.seed; span_every; duration } in
      let name what = spec.W.name ^ ": " ^ what in
      let sliced = build () in
      let d = H.drive sliced in
      let reference = sim sliced in
      let problems = M.problems (sliced.W.outcome ()) in
      check (name "output checks pass") (problems = []) (String.concat "; " problems);
      let single = build () in
      Nkcore.Testbed.run single.W.tb;
      let events = Sim.Engine.events_executed single.W.tb.Nkcore.Testbed.engine in
      check
        (name "slice-driven run = one Testbed.run")
        (d.H.events = events && sim single = reference)
        (Printf.sprintf "events %d vs %d; %s vs %s" d.H.events events (show reference)
           (show (sim single)));
      (* Pacing spins must not change the run. *)
      let paced = build () in
      let pd = H.drive paced ~pace:{ H.spread_ns = 50_000_000; virtual_end = duration } in
      check
        (name "paced drive = plain drive")
        (pd.H.events = d.H.events && sim paced = reference)
        (Printf.sprintf "events %d vs %d; %s vs %s" pd.H.events d.H.events (show reference)
           (show (sim paced)));
      let traced = build ~span_every:32 () in
      let t = H.step_traced traced in
      check
        (name "traced run = untraced run")
        (t.H.t_events = d.H.events && sim traced = reference)
        (Printf.sprintf "events %d vs %d; %s vs %s" t.H.t_events d.H.events (show reference)
           (show (sim traced)));
      let other = build ~seed:2 () in
      ignore (H.drive other);
      let moved =
        List.filter_map
          (fun x ->
            List.find_map
              (fun y ->
                if y.M.name = x.M.name then
                  Some (x.M.name, Float.abs (y.M.value -. x.M.value) /. Float.abs x.M.value)
                else None)
              (sim other))
          reference
      in
      let worst, by =
        List.fold_left (fun (v, n) (n', v') -> if v' > v then (v', n') else (v, n)) (0.0, "") moved
      in
      check
        (name (Printf.sprintf "seed 2 moves simulated metrics by at most %.2f%% (%s)" (worst *. 100.0) by))
        (worst < 0.10) (show (sim other)))
    W.all;
  Printf.printf "selftest: %d failed\n" !failed;
  if !failed = 0 then 0 else 1
