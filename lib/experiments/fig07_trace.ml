(* Fig 7: traffic of the three most utilized application gateways.

   The production trace is proprietary; we use the synthetic AG generator
   ({!Nktrace.Traffic}) matched to the paper's description: extremely low
   average utilization and bursty per-minute rates. The report summarizes
   each AG series plus a coarse sparkline of the hour. *)

let run ?quick:(_ = false) () =
  let fleet = Nktrace.Traffic.generate_fleet ~seed:2018 ~n:64 () in
  let top3 = Nktrace.Traffic.top_k_by_utilization fleet 3 in
  let rows =
    List.map
      (fun (t : Nktrace.Traffic.t) ->
        [
          Printf.sprintf "AG-%d" t.Nktrace.Traffic.ag_id;
          Printf.sprintf "%.0f" t.Nktrace.Traffic.mean;
          Printf.sprintf "%.0f" t.Nktrace.Traffic.peak;
          Printf.sprintf "%.1f" (Nktrace.Traffic.peak_to_mean t);
          Printf.sprintf "%.2f"
            (Nkutil.Stats.coefficient_of_variation t.Nktrace.Traffic.rates);
          Report.sparkline t.Nktrace.Traffic.rates;
        ])
      top3
  in
  Report.make ~id:"fig07"
    ~title:"Three most-utilized AGs: per-minute request rate over one hour (synthetic)"
    ~headers:[ "AG"; "mean rps"; "peak rps"; "peak/mean"; "CoV"; "minutes 0..59" ]
    ~notes:
      [
        "substitution: synthetic bursty trace generator in place of the proprietary \
         Sep-2018 production trace (DESIGN.md)";
        "shape to check: low mean vs peak (bursty), like the paper's Fig 7";
      ]
    rows
