(* Fig 8 (use case 1, §6.1): multiplexing AGs onto one NSM.

   The three most-utilized AGs replay their (synthetic) traces:
   - Baseline: each AG is a 4-core VM (provisioned for peak) with its own
     in-guest stack — 12 cores total.
   - NetKernel: each AG is a 1-core VM holding only the application logic;
     one shared 5-core kernel-stack NSM carries the aggregate, plus the
     CoreEngine core — 9 cores total.

   Both systems must serve every request (no loss); the win is the per-core
   RPS: the paper reports +33% (12 -> 9 cores). Trace time is compressed
   (1 trace-minute = 1 simulated second) and rates scaled for simulation
   cost; both are noted in the report. *)

open Nkcore

let ag_app_cycles = 30_000.0 (* per-request application-gateway logic *)

let time_compress = 60.0 (* one trace minute per simulated second *)

let run_system ~system ~traces ~duration ~rate_scale ~tb_seed =
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = tb_seed } () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm =
    match system with
    | `Netkernel -> Some (Nsm.create_kernel hosta ~name:"nsm" ~vcpus:5 ())
    | `Baseline -> None
  in
  let vms =
    List.mapi
      (fun i _trace ->
        let name = Printf.sprintf "ag%d" i in
        match nsm with
        | Some nsm -> Vm.create_nk hosta ~name ~vcpus:1 ~ips:[ 10 + i ] ~nsms:[ nsm ] ()
        | None -> Vm.create_baseline hosta ~name ~vcpus:4 ~ips:[ 10 + i ] ())
      traces
  in
  let client =
    Vm.create_baseline hostb ~name:"clients" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 20 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 256; response = 1024; keepalive = false } in
  let lgs =
    List.mapi
      (fun i (trace : Nktrace.Traffic.t) ->
        let vm = List.nth vms i in
        let addr = Addr.make (10 + i) 80 in
        ignore
          (Worlds.serve tb vm
             (Nkapps.Epoll_server.config ~proto ~app_cycles:ag_app_cycles
                ~app_cores:(Vm.cores vm) addr));
        Worlds.load tb ~delay:1e-3 client
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Open
                {
                  rate_at =
                    (fun t ->
                      rate_scale *. Nktrace.Traffic.rate_at trace (t *. time_compress));
                  duration;
                };
            warmup = 0.0;
          })
      traces
  in
  Testbed.run tb ~until:(duration +. 0.5);
  Worlds.served lgs

let run ?(quick = false) () =
  let duration = if quick then 10.0 else 30.0 in
  let rate_scale = 0.5 in
  let fleet = Nktrace.Traffic.generate_fleet ~seed:2018 ~n:64 () in
  let traces = Nktrace.Traffic.top_k_by_utilization fleet 3 in
  let b_completed, b_errors =
    run_system ~system:`Baseline ~traces ~duration ~rate_scale ~tb_seed:7
  in
  let n_completed, n_errors =
    run_system ~system:`Netkernel ~traces ~duration ~rate_scale ~tb_seed:7
  in
  let baseline_cores = 12.0 and nk_cores = 9.0 in
  let per_core c cores = float_of_int c /. duration /. cores in
  let rows =
    [
      [
        "Baseline (3 x 4-core VMs)";
        "12";
        string_of_int b_completed;
        string_of_int b_errors;
        Report.cell_krps (per_core b_completed baseline_cores);
      ];
      [
        "NetKernel (3 x 1-core VMs + 5-core NSM + CE)";
        "9";
        string_of_int n_completed;
        string_of_int n_errors;
        Report.cell_krps (per_core n_completed nk_cores);
      ];
      [
        "per-core RPS gain";
        "";
        "";
        "";
        Printf.sprintf "%.0f%%"
          ((per_core n_completed nk_cores /. per_core b_completed baseline_cores -. 1.0)
          *. 100.0);
      ];
    ]
  in
  Report.make ~id:"fig08"
    ~title:"Multiplexing the 3 most-utilized AGs: trace replay, same served load"
    ~headers:[ "system"; "cores"; "requests served"; "errors"; "per-core RPS" ]
    ~notes:
      [
        "paper: 12 cores -> 9 cores for identical RPS and no loss; per-core RPS +33%";
        Printf.sprintf
          "substitution+scale-down: synthetic traces, time compressed %.0fx, rates x%.1f"
          time_compress rate_scale;
      ]
    rows
