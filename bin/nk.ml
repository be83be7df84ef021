(* The `nk` command-line tool: run any paper reproduction by id, list them,
   or dump CSV for plotting. *)

open Cmdliner

(* The simulations allocate short-lived NQE buffers and event closures at
   a rate that thrashes the default 256K-word minor heap (~2500 minor
   collections per quick ce-scale run). A bigger minor heap is pure
   wall-clock: it changes no simulated behaviour. 1M words (8 MB) was the
   sweet spot in a sweep — larger heaps only trade minor-GC time for
   page-fault time. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 }

let print_report ~csv report =
  if csv then print_endline (Experiments.Report.to_csv report)
  else Experiments.Report.print Format.std_formatter report;
  Format.pp_print_flush Format.std_formatter ()

let run_cmd =
  let ids_doc = "Experiment ids (e.g. fig18 table5); 'all' runs everything." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:ids_doc) in
  let quick =
    Arg.(value & flag & info [ "quick"; "q" ] ~doc:"Shorter runs (reduced durations).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.") in
  let run ids quick csv =
    let selected =
      if List.mem "all" ids then Experiments.Registry.all
      else
        List.filter_map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %S; try `nk list`\n" id;
                exit 2)
          ids
    in
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "running %s: %s...\n%!" e.Experiments.Registry.id
          e.Experiments.Registry.title;
        print_report ~csv (e.Experiments.Registry.run ~quick ()))
      selected
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run paper reproductions by id")
    Term.(const run $ ids $ quick $ csv)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-8s %s\n" e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

let write_file path contents =
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "nk: cannot write %s\n" msg;
      exit 2
  | oc ->
      output_string oc contents;
      close_out oc;
      Printf.eprintf "nk: wrote %s\n" path

let bench_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment to snapshot.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  let run id out =
    match Experiments.Registry.find id with
    | None ->
        Printf.eprintf "nk bench: unknown experiment %S; try `nk list`\n" id;
        exit 2
    | Some e -> (
        (* Host seconds are for information only: they vary run to run. *)
        let timed () =
          let t0 = Unix.gettimeofday () in
          let report = e.Experiments.Registry.run ~quick:true () in
          Printf.eprintf "nk bench: %s quick run took %.2f s (host time)\n%!" id
            (Unix.gettimeofday () -. t0);
          report
        in
        match Experiments.Bench.run_twice timed with
        | Error diff ->
            Printf.eprintf "nk bench: %s is nondeterministic, two runs differ:\n%s\n" id diff;
            exit 1
        | Ok json -> (
            match out with Some path -> write_file path json | None -> print_string json))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run an experiment's quick mode twice and print its report as the \
          JSON snapshot that BENCH_<id>.json commits. Exits 1 if the two \
          runs render differently, notes included.")
    Term.(const run $ id $ out)

let demo_cmd =
  (* A tiny live demo: kv store in a NetKernel VM, queried from another
     machine. *)
  let run () =
    let open Nkcore in
    let tb = Testbed.create () in
    let hosta = Testbed.add_host tb ~name:"hostA" in
    let hostb = Testbed.add_host tb ~name:"hostB" in
    let nsm = Nsm.create_kernel hosta ~name:"nsm" ~vcpus:2 () in
    let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:2 ~ips:[ 10 ] ~nsms:[ nsm ] () in
    let client =
      Vm.create_baseline hostb ~name:"client" ~vcpus:4 ~ips:[ 20 ]
        ~profile:Sim.Cost_profile.ideal ()
    in
    let addr = Addr.make 10 6379 in
    (match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr with
    | Ok _ -> ()
    | Error e -> failwith (Tcpstack.Types.err_to_string e));
    Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
      ~k:(fun r ->
        match r with
        | Error e -> failwith (Tcpstack.Types.err_to_string e)
        | Ok conn ->
            Nkapps.Kvstore.Client.set conn ~key:"stack" ~value:"operated by the cloud"
              ~k:(fun _ ->
                Nkapps.Kvstore.Client.get conn ~key:"stack" ~k:(fun r ->
                    (match r with
                    | Ok (Some v) -> Printf.printf "GET stack -> %S\n" v
                    | Ok None -> print_endline "GET stack -> (nil)"
                    | Error e -> Printf.printf "error: %s\n" e);
                    Nkapps.Kvstore.Client.close conn)));
    Testbed.run tb ~until:1.0;
    print_endline "demo complete: redis-like app served through NetKernel"
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"One-minute NetKernel demo (kv store through an NSM)")
    Term.(const run $ const ())

(* A small representative NetKernel workload (kernel-stack NSM, epoll
   server in the VM, closed-loop load). The stats and trace subcommands
   export its one testbed-wide Nkmon handle as a one-source list. Its
   trace ring holds 2^17 records, room for the whole run's ~74,000, so
   the export starts at seq 0; the ring allocates only what it keeps. *)
let observed_world ~trace ~config =
  let tb =
    {
      config.Experiments.Worlds.Config.tb with
      Nkcore.Testbed.Config.trace_capacity = Some (1 lsl 17);
    }
  in
  let w = Experiments.Worlds.netkernel ~config:{ config with tb } () in
  let mon = w.Experiments.Worlds.tb.Nkcore.Testbed.mon in
  if trace then Nkmon.Trace.set_enabled (Nkmon.trace mon) true;
  ignore (Experiments.Worlds.measure_rps w ~concurrency:32 ~total:2_000 ());
  [ ("testbed", mon) ]

(* The cluster counterpart for the --cluster variants: fig-cluster's
   two-node world under 20 ms of keep-alive load, watched by an Nkobs plane
   whose sources (the testbed plus one per node) feed the same exporters. *)
let observed_cluster ~trace ~seed =
  let open Nkcore in
  let tb =
    Testbed.create
      ~config:{ Testbed.Config.default with seed; trace_enabled = trace }
      ()
  in
  let w = Experiments.Fig_cluster.world tb ~load:0.02 in
  let obs = Nkobs.of_fabric w.Experiments.Fig_cluster.cluster in
  Nkobs.start obs;
  Testbed.run tb ~until:1.0;
  Nkobs.stop obs;
  Nkobs.sources obs

let observed ~trace ~cluster config =
  if cluster then
    let seed = config.Experiments.Worlds.Config.tb.Nkcore.Testbed.Config.seed in
    observed_cluster ~trace ~seed
  else observed_world ~trace ~config

let cluster_flag =
  Arg.(
    value & flag
    & info [ "cluster" ]
        ~doc:
          "Observe fig-cluster's two-node Nkfabric world (four VMs) instead \
           of a single host: one source per node plus the testbed, rendered \
           exactly like the single-host source. World knobs other than \
           --seed are ignored.")

let ce_cores_arg =
  Arg.(
    value & opt int 1
    & info [ "ce-cores" ] ~docv:"N"
        ~doc:
          "Number of CoreEngine switching shards (dedicated cores); with \
           more than one, per-shard metrics appear as ce.shard<k>.")

(* The world knobs the workload subcommands expose, assembled straight
   into a [Worlds.Config.t] so a new knob is one field + one flag here
   rather than another optional argument through every signature. *)
let world_config_term =
  let vcpus_arg =
    Arg.(value & opt int 1 & info [ "vcpus" ] ~docv:"N" ~doc:"Server-VM vCPUs.")
  in
  let nsm_cores_arg =
    Arg.(value & opt int 1 & info [ "nsm-cores" ] ~docv:"N" ~doc:"Cores per NSM.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Testbed RNG seed.")
  in
  let build ce_cores vcpus nsm_cores seed =
    Experiments.Worlds.Config.with_seed seed
      { Experiments.Worlds.Config.default with ce_cores; vcpus; nsm_cores }
  in
  Term.(const build $ ce_cores_arg $ vcpus_arg $ nsm_cores_arg $ seed_arg)

let stats_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: table, csv or json. json is the full-detail export \
             (histogram percentiles, every time-series bin) and ignores --filter.")
  in
  let filter =
    Arg.(
      value & opt string ""
      & info [ "filter" ] ~docv:"PREFIX"
          ~doc:"Keep only metrics whose component name starts with $(docv).")
  in
  let run format filter cluster config =
    let sources = observed ~trace:false ~cluster config in
    match format with
    | `Table -> print_report ~csv:false (Experiments.Mon_report.table ~filter sources)
    | `Csv -> print_report ~csv:true (Experiments.Mon_report.table ~filter sources)
    | `Json -> print_string (Nkobs.metrics_json sources)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a small NetKernel workload and print every Nkmon metric \
          (host/component/instance/metric) it produced; with --cluster, the \
          same view of a two-node fabric")
    Term.(const run $ format $ filter $ cluster_flag $ world_config_term)

let trace_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of JSON.") in
  let run csv cluster config =
    let sources = observed ~trace:true ~cluster config in
    print_string ((if csv then Nkobs.trace_csv else Nkobs.trace_json) sources);
    List.iter
      (fun (host, mon) ->
        let dropped = Nkmon.dropped_events mon in
        if dropped > 0 then
          Printf.eprintf
            "nk trace: warning: host %s dropped %d events (ring capacity %d)\n" host
            dropped
            (Nkmon.Trace.capacity (Nkmon.trace mon)))
      sources
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small NetKernel workload with event tracing enabled and dump \
          the host-tagged virtual-time trace (JSON by default); with \
          --cluster, every host's trace merged in virtual-time order")
    Term.(const run $ csv $ cluster_flag $ world_config_term)

let span_cmd =
  let every =
    Arg.(
      value & opt int 16
      & info [ "every" ] ~docv:"N" ~doc:"Sample one request span in every $(docv).")
  in
  let quick = Arg.(value & flag & info [ "quick"; "q" ] ~doc:"Shorter run.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  let catapult =
    Arg.(
      value & opt (some string) None
      & info [ "catapult" ] ~docv:"FILE"
          ~doc:
            "Also write the spans as Chrome trace-event JSON (load in \
             chrome://tracing or Perfetto).")
  in
  let run every quick csv catapult ce_cores =
    if every < 1 then begin
      Printf.eprintf "nk span: --every must be >= 1\n";
      exit 2
    end;
    let report, spans =
      Experiments.Latency_breakdown.run_world ~quick ~span_every:every ~ce_cores ()
    in
    print_report ~csv report;
    (match catapult with
    | Some path -> write_file path (Nkspan.to_catapult spans)
    | None -> ());
    if Nkspan.dropped spans > 0 then
      Printf.eprintf "nk span: warning: %d spans dropped (capacity)\n"
        (Nkspan.dropped spans)
  in
  Cmd.v
    (Cmd.info "span"
       ~doc:
         "Trace sampled requests end to end through the NetKernel datapath \
          and print the per-stage latency breakdown")
    Term.(const run $ every $ quick $ csv $ catapult $ ce_cores_arg)

let profile_cmd =
  let quick = Arg.(value & flag & info [ "quick"; "q" ] ~doc:"Shorter run.") in
  let collapsed =
    Arg.(
      value & opt (some string) None
      & info [ "collapsed" ] ~docv:"FILE"
          ~doc:
            "Also write flamegraph.pl-compatible collapsed stacks \
             (component;stage cycles).")
  in
  let run quick collapsed config =
    let w = Experiments.Worlds.netkernel ~config () in
    let tb = w.Experiments.Worlds.tb in
    let spans = tb.Nkcore.Testbed.spans in
    Nkspan.enable_profiler spans tb.Nkcore.Testbed.engine;
    let total = if quick then 2_000 else 10_000 in
    let r = Experiments.Worlds.measure_rps w ~concurrency:32 ~total () in
    let cells = Nkspan.profile_table spans in
    let all = Nkspan.total_cycles spans in
    Printf.printf "cycle profile (%d requests, %.1fK rps, %.0f cycles attributed):\n\n"
      total
      (r.Experiments.Worlds.rps /. 1e3)
      all;
    Printf.printf "  %-14s %-12s %14s %7s\n" "component" "stage" "self-cycles" "share";
    List.iter
      (fun (c : Nkspan.cell) ->
        Printf.printf "  %-14s %-12s %14.0f %6.1f%%\n" c.Nkspan.p_comp c.Nkspan.p_stage
          c.Nkspan.p_cycles
          (if all > 0.0 then 100.0 *. c.Nkspan.p_cycles /. all else 0.0))
      cells;
    match collapsed with
    | Some path -> write_file path (Nkspan.to_collapsed spans)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a NetKernel workload with the cycle profiler on and print the \
          per-(component, stage) self-cycles table")
    Term.(const run $ quick $ collapsed $ world_config_term)

let orchestrate_cmd =
  (* The control plane live: two NetKernel VMs under closed-loop load, the
     Nkctl autoscaler ticking, one NSM crash injected mid-run. Prints the
     virtual-time control-event log and a service summary. *)
  let crash_at_doc = "Inject an NSM crash at this virtual time (seconds); 0 disables." in
  let crash_at =
    Arg.(value & opt float 2.0 & info [ "crash-at" ] ~docv:"SECONDS" ~doc:crash_at_doc)
  in
  let duration =
    Arg.(value & opt float 6.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let run crash_at duration =
    let open Nkcore in
    let tb = Testbed.create () in
    let hosta = Testbed.add_host tb ~name:"hostA" in
    let hostb = Testbed.add_host tb ~name:"hostB" in
    let spawn i = Nsm.create_kernel hosta ~name:(Printf.sprintf "nsm%d" i) ~vcpus:1 () in
    let nsm0 = spawn 0 in
    let ctl =
      Nkctl.create hosta
        ~policy:{ Nkctl.Policy.default with period = 0.25; max_nsms = 3 }
        ~spawn:(fun i -> spawn (i + 1))
        ()
    in
    Nkctl.manage ctl nsm0;
    let proto = Nkapps.Proto.Fixed { request = 64; response = 512; keepalive = false } in
    let client =
      Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ 20; 21 ]
        ~profile:Sim.Cost_profile.ideal ()
    in
    let lgs =
      List.map
        (fun i ->
          let vm =
            Vm.create_nk hosta
              ~name:(Printf.sprintf "vm%d" i)
              ~vcpus:1 ~ips:[ 10 + i ] ~nsms:[ nsm0 ] ()
          in
          Nkctl.add_vm ctl vm ~home:nsm0;
          let addr = Addr.make (10 + i) 80 in
          ignore (Experiments.Worlds.serve tb vm (Nkapps.Epoll_server.config ~proto addr));
          Experiments.Worlds.load tb ~delay:0.0 client
            {
              Nkapps.Loadgen.server = addr;
              proto;
              mode =
                Nkapps.Loadgen.Closed
                  { concurrency = 16; total = None; duration = Some duration };
              warmup = 0.0;
            })
        [ 0; 1 ]
    in
    Nkctl.start ctl;
    if crash_at > 0.0 then
      ignore
        (Sim.Engine.schedule tb.Testbed.engine ~delay:crash_at (fun () ->
             match Nkctl.active_nsms ctl with
             | nsm :: _ -> Nsm.fail nsm
             | [] -> ()));
    Testbed.run tb ~until:(duration +. 0.5);
    Nkctl.stop ctl;
    print_endline "control events (virtual time):";
    List.iter
      (fun (r : Nkmon.Trace.record) ->
        match r.Nkmon.Trace.event with
        | Nkmon.Trace.Custom { component = ("nkctl" | "coreengine") as c; name; detail }
          when c = "nkctl" || List.mem name [ "deregister_nsm"; "crash_nsm" ] ->
            Printf.printf "  %8.3fs  %-10s %-12s %s\n" r.Nkmon.Trace.time c name detail
        | _ -> ())
      (Nkmon.Trace.records (Nkmon.trace tb.Testbed.mon));
    let completed, errors = Experiments.Worlds.served lgs in
    let s = Nkctl.stats ctl in
    Printf.printf
      "summary: %d requests served, %d errors; scale-ups %d, scale-downs %d, \
       handovers %d, failovers %d, drains completed %d; %d NSM(s) active\n"
      completed errors s.Nkctl.scale_ups s.Nkctl.scale_downs s.Nkctl.handovers
      s.Nkctl.failovers s.Nkctl.drains_completed
      (List.length (Nkctl.active_nsms ctl))
  in
  Cmd.v
    (Cmd.info "orchestrate"
       ~doc:
         "Run the Nkctl control plane live: autoscaling under load, a \
          mid-run NSM crash with failover, and the control-event log")
    Term.(const run $ crash_at $ duration)

let cluster_cmd =
  (* The cluster fabric live: fig-cluster's two nodes serving keep-alive
     RPC through NetKernel until 0.5 s before the end, one live cross-host
     NSM migration mid-run. Prints the virtual-time fabric-event log and a
     service summary. *)
  let migrate_at_doc = "Start the live NSM migration at this virtual time (seconds)." in
  let migrate_at =
    Arg.(value & opt float 2.0 & info [ "migrate-at" ] ~docv:"SECONDS" ~doc:migrate_at_doc)
  in
  let duration =
    Arg.(
      value & opt float 6.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Run length (> 0.5; load stops 0.5 s before the end).")
  in
  let back =
    Arg.(
      value & flag
      & info [ "back" ]
          ~doc:"Also migrate the destination NSM back home (re-migration) at 2x the first time.")
  in
  let run migrate_at duration back =
    if duration <= 0.5 then begin
      Printf.eprintf "nk cluster: --duration must be > 0.5\n";
      exit 2
    end;
    let open Nkcore in
    let tb = Testbed.create () in
    let { Experiments.Fig_cluster.cluster; nodea; nodeb; nsma; lgs; _ } =
      Experiments.Fig_cluster.world tb ~load:(duration -. 0.5)
    in
    ignore
      (Sim.Engine.schedule tb.Testbed.engine ~delay:migrate_at (fun () ->
           let dest = Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb () in
           if back then
             ignore
               (Sim.Engine.schedule tb.Testbed.engine ~delay:migrate_at (fun () ->
                    ignore (Nkfabric.migrate_nsm cluster ~nsm:dest ~dst:nodea ())))));
    Testbed.run tb ~until:(duration +. 0.5);
    print_endline "fabric events (virtual time):";
    List.iter
      (fun (r : Nkmon.Trace.record) ->
        match r.Nkmon.Trace.event with
        | Nkmon.Trace.Custom { component = "nkfabric"; name; detail } ->
            Printf.printf "  %8.3fs  %-8s %s\n" r.Nkmon.Trace.time name detail
        | _ -> ())
      (Nkmon.Trace.records (Nkmon.trace tb.Testbed.mon));
    let completed, errors = Experiments.Worlds.served lgs in
    let s = Nkfabric.stats cluster in
    Printf.printf
      "summary: %d requests served, %d errors; %d migration(s), %d VM(s) relayed, \
       %d NQEs (%d bytes) over the spine; nodeA serves %d VM(s), nodeB %d\n"
      completed errors s.Nkfabric.migrations s.Nkfabric.vms_relayed s.Nkfabric.nqes_shipped
      s.Nkfabric.bytes_shipped
      (Nkfabric.node_vm_count cluster nodea)
      (Nkfabric.node_vm_count cluster nodeb)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the Nkfabric cluster live: two nodes under keep-alive load, a \
          live cross-host NSM migration, and the fabric-event log")
    Term.(const run $ migrate_at $ duration $ back)

let () =
  let doc = "NetKernel reproduction: decoupled VM network stacks, simulated" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "nk" ~version:"1.0.0" ~doc)
          [
            run_cmd; list_cmd; bench_cmd; demo_cmd; stats_cmd; trace_cmd; span_cmd;
            profile_cmd; orchestrate_cmd; cluster_cmd;
          ]))
