(* Table 2: AG consolidation on a 32-core machine.

   Baseline: the operator reserves 2 cores per AG -> 16 AGs per machine.
   NetKernel: 1 core per AG of application logic + a shared 2-core NSM +
   1 CoreEngine core -> 29 AGs, provided the NSM absorbs the aggregate
   (paper: worst-case utilization well under 60% for ~97% of the time).

   The NSM's per-core capacity comes from a measured kernel-stack NSM run
   rather than a constant, tying the arithmetic to the simulator. *)

let run ?(quick = false) () =
  (* Measure what one NSM core actually sustains for AG-sized requests. *)
  let capacity_per_core =
    let w = Worlds.netkernel ~config:{ Worlds.Config.default with vcpus = 4 } () in
    let r =
      Worlds.measure_rps w ~concurrency:64
        ~total:(if quick then 5_000 else 20_000)
        ~msg_size:256 ()
    in
    r.Worlds.rps
  in
  let fleet = Nktrace.Traffic.generate_fleet ~seed:2018 ~n:64 () in
  let result =
    Nktrace.Agpack.pack ~traces:fleet ~machine_cores:32 ~baseline_cores_per_ag:2
      ~nsm_cores:2 ~ce_cores:1 ~nsm_capacity_rps_per_core:capacity_per_core
  in
  Report.make ~id:"table2" ~title:"AG packing on a 32-core machine"
    ~headers:[ "metric"; "Baseline"; "NetKernel" ]
    ~notes:
      [
        "paper: 16 vs 29 AGs (81% more), saving >40% cores; NSM worst-case utilization \
         well under 60% for ~97% of AGs";
        Printf.sprintf "NSM capacity measured from the simulator: %.0f rps/core"
          capacity_per_core;
      ]
    [
      [ "total cores"; "32"; "32" ];
      [ "NSM cores"; "0"; "2" ];
      [ "CoreEngine cores"; "0"; "1" ];
      [
        "# AGs";
        string_of_int result.Nktrace.Agpack.baseline_ags;
        string_of_int result.Nktrace.Agpack.netkernel_ags;
      ];
      [
        "NSM utilization (worst / P97)";
        "-";
        Printf.sprintf "%.0f%% / %.0f%%"
          (result.Nktrace.Agpack.nsm_worst_utilization *. 100.0)
          (result.Nktrace.Agpack.nsm_p97_utilization *. 100.0);
      ];
      [
        "core saving at equal population";
        "-";
        Report.cell_pct result.Nktrace.Agpack.core_saving_fraction;
      ];
    ]
