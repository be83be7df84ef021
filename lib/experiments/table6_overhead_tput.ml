(* Table 6: NetKernel CPU overhead at fixed bulk-throughput levels.

   8 TCP streams of 8KB messages paced to 20..100 Gb/s; we count the cycles
   spent by the VM (Baseline) against VM+NSM (NetKernel) over the same
   interval and report the ratio.

   Paper: 1.14 / 1.28 / 1.42 / 1.56 / 1.70 at 20/40/60/80/100G — the rise
   comes from the extra hugepage copy competing for memory bandwidth. *)

open Nkcore

let levels = [ 20.0; 40.0; 60.0; 80.0; 100.0 ]

let cycles_at w ~gbps ~duration =
  let engine = w.Worlds.tb.Testbed.engine in
  let sink_addr = Addr.make Worlds.client_ip 5001 in
  let sink =
    match
      Nkapps.Stream.sink ~engine ~api:(Vm.api w.Worlds.client_vm) ~addr:sink_addr
    with
    | Ok s -> s
    | Error e -> failwith (Tcpstack.Types.err_to_string e)
  in
  let vm0 = ref 0.0 and nsm0 = ref 0.0 in
  ignore
    (Sim.Engine.schedule engine ~delay:1e-3 (fun () ->
         ignore
           (Nkapps.Stream.senders ~engine ~api:(Vm.api w.Worlds.server_vm) ~dst:sink_addr
              ~streams:8 ~msg_size:8192 ~pace_gbps:gbps
              ~stop:(Sim.Engine.now engine +. duration +. 1e-3)
              ());
         (* Skip the slow-start warmup in the accounting. *)
         ignore
           (Sim.Engine.schedule engine ~delay:0.2 (fun () ->
                vm0 := Vm.busy_cycles w.Worlds.server_vm;
                nsm0 :=
                  List.fold_left (fun acc n -> acc +. Nsm.busy_cycles n) 0.0 w.Worlds.nsms))));
  Testbed.run w.Worlds.tb ~until:(duration +. 0.05);
  let vm = Vm.busy_cycles w.Worlds.server_vm -. !vm0 in
  let nsm =
    List.fold_left (fun acc n -> acc +. Nsm.busy_cycles n) 0.0 w.Worlds.nsms -. !nsm0
  in
  let achieved = Nkapps.Stream.sink_throughput_gbps sink in
  (vm +. nsm, achieved)

let run ?(quick = false) () =
  let duration = if quick then 0.5 else 1.0 in
  let rows =
    List.map
      (fun gbps ->
        let baseline_cycles, base_achieved =
          cycles_at (Worlds.baseline ~config:{ Worlds.Config.default with vcpus = 4 } ()) ~gbps
            ~duration
        in
        let nk_cycles, nk_achieved =
          cycles_at
            (Worlds.netkernel
               ~config:{ Worlds.Config.default with vcpus = 4; nsm_cores = 4 }
               ())
            ~gbps ~duration
        in
        [
          Printf.sprintf "%.0fG" gbps;
          Printf.sprintf "%.1f/%.1f" base_achieved nk_achieved;
          Printf.sprintf "%.2f" (nk_cycles /. baseline_cycles);
        ])
      levels
  in
  Report.make ~id:"table6" ~title:"CPU overhead for bulk throughput (normalized over Baseline)"
    ~headers:[ "target"; "achieved Gb/s (base/NK)"; "normalized CPU" ]
    ~notes:
      [
        "paper: 1.14 / 1.28 / 1.42 / 1.56 / 1.70 at 20..100G";
        "VM+NSM cycles over VM cycles at the same paced throughput; CE's dedicated core \
         is reported separately by the paper and excluded here too";
      ]
    rows
