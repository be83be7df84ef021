(* Table 7: NetKernel CPU overhead at fixed request rates.

   Open-loop load of 100K..500K requests/s (64B messages, concurrency-
   bounded); cycles spent by VM (Baseline) vs VM+NSM (NetKernel).

   Paper: 1.06 / 1.05 / 1.08 / 1.08 / 1.09 — mild, the NQE machinery is
   cheap against the connection lifecycle. *)

open Nkcore

let levels = [ 100e3; 200e3; 300e3; 400e3; 500e3 ]

let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false }

let cycles_at w ~rate ~duration =
  let addr = Addr.make Worlds.server_ip 80 in
  let _server =
    Worlds.serve w.Worlds.tb w.Worlds.server_vm (Nkapps.Epoll_server.config ~proto addr)
  in
  let vm0 = ref 0.0 and nsm0 = ref 0.0 and served = ref 0 in
  ignore
    (Sim.Engine.schedule w.Worlds.tb.Testbed.engine ~delay:1e-3 (fun () ->
         let lg =
           Nkapps.Loadgen.start ~engine:w.Worlds.tb.Testbed.engine
             ~api:(Vm.api w.Worlds.client_vm)
             {
               Nkapps.Loadgen.server = addr;
               proto;
               mode = Nkapps.Loadgen.Open { rate_at = (fun _ -> rate); duration };
               warmup = 0.0;
             }
         in
         ignore
           (Sim.Engine.schedule w.Worlds.tb.Testbed.engine ~delay:0.1 (fun () ->
                vm0 := Vm.busy_cycles w.Worlds.server_vm;
                nsm0 :=
                  List.fold_left (fun acc n -> acc +. Nsm.busy_cycles n) 0.0 w.Worlds.nsms;
                served := (Nkapps.Loadgen.results lg).Nkapps.Loadgen.completed))));
  Testbed.run w.Worlds.tb ~until:(duration +. 0.05);
  let vm = Vm.busy_cycles w.Worlds.server_vm -. !vm0 in
  let nsm =
    List.fold_left (fun acc n -> acc +. Nsm.busy_cycles n) 0.0 w.Worlds.nsms -. !nsm0
  in
  (vm +. nsm)

let run ?(quick = false) () =
  let duration = if quick then 0.4 else 1.0 in
  let rows =
    List.map
      (fun rate ->
        let baseline = cycles_at (Worlds.baseline ~config:{ Worlds.Config.default with vcpus = 8 } ()) ~rate ~duration in
        let nk = cycles_at
            (Worlds.netkernel ~config:{ Worlds.Config.default with vcpus = 8; nsm_cores = 8 } ())
            ~rate ~duration in
        [ Report.cell_krps rate; Printf.sprintf "%.2f" (nk /. baseline) ])
      levels
  in
  Report.make ~id:"table7"
    ~title:"CPU overhead for short TCP connections (normalized over Baseline)"
    ~headers:[ "request rate"; "normalized CPU" ]
    ~notes:
      [
        "paper: 1.06 / 1.05 / 1.08 / 1.08 / 1.09 at 100K..500K rps";
        "open-loop arrivals at the target rate; 64B messages, non-keepalive";
      ]
    rows
