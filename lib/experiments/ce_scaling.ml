(* CoreEngine shard scaling. One CE core switches ~8M NQEs/s (Fig 11), so
   a single tenant never saturates it — the CE becomes the bottleneck on a
   multi-tenant host, where every VM<->NSM pair funnels through the same
   switch. This sweep packs [n_tenants] NetKernel VMs (each with its own
   single-core kernel NSM and a closed-loop 64B RPS workload) onto one
   host and scales the number of CE switching shards: aggregate RPS must
   rise monotonically with shards until the VM/NSM side saturates, while
   the maximum per-shard core load drops. *)

open Nkcore

let shard_points = [ 1; 2; 4 ]

let n_tenants = 32

let run_point ~ce_cores ~total_per_tenant =
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = 42 } () in
  let server_host = Testbed.add_host tb ~name:"hostA" in
  let client_host = Testbed.add_host tb ~name:"hostB" in
  Host.enable_netkernel ~ce_cores server_host;
  let proto = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false } in
  let client =
    Vm.create_baseline client_host ~name:"client" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 100 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  let lgs =
    List.init n_tenants (fun i ->
        let nsm =
          Nsm.create_kernel server_host ~name:(Printf.sprintf "nsm%d" i) ~vcpus:1 ()
        in
        let vm =
          Vm.create_nk server_host
            ~name:(Printf.sprintf "vm%d" i)
            ~vcpus:1 ~ips:[ 10 + i ] ~nsms:[ nsm ] ()
        in
        let addr = Addr.make (10 + i) 80 in
        ignore (Worlds.serve tb vm (Nkapps.Epoll_server.config ~proto addr));
        Worlds.load tb ~delay:1e-3 client
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Closed
                { concurrency = 64; total = Some total_per_tenant; duration = None };
            warmup = 0.0;
          })
  in
  Testbed.run tb ~until:120.0;
  let rps =
    List.fold_left
      (fun acc lg ->
        match !lg with
        | None -> failwith "loadgen never started"
        | Some lg -> acc +. (Nkapps.Loadgen.results lg).Nkapps.Loadgen.rps)
      0.0 lgs
  in
  let shard_cycles = Array.map Sim.Cpu.busy_cycles (Host.ce_cores server_host) in
  let total_cycles = Array.fold_left ( +. ) 0.0 shard_cycles in
  let max_shard = Array.fold_left Float.max 0.0 shard_cycles in
  (rps, total_cycles, max_shard)

let run ?(quick = false) () =
  let total_per_tenant = if quick then 800 else 4_000 in
  let rows =
    List.map
      (fun ce_cores ->
        let rps, total_cycles, max_shard = run_point ~ce_cores ~total_per_tenant in
        [
          string_of_int ce_cores;
          Report.cell_krps rps;
          Printf.sprintf "%.1f" (total_cycles /. 1e6);
          Printf.sprintf "%.1f" (max_shard /. 1e6);
        ])
      shard_points
  in
  Report.make ~id:"ce-scale"
    ~title:
      (Printf.sprintf
         "Aggregate RPS vs CoreEngine shards (%d tenants, 64B messages, concurrency 64 \
          each)"
         n_tenants)
    ~headers:[ "CE shards"; "RPS"; "CE Mcycles total"; "CE Mcycles max/shard" ]
    ~notes:
      [
        "the paper runs one CoreEngine core; sharding is the multi-core extension";
        "aggregate RPS must rise monotonically with shards until the VM/NSM side saturates";
        "max/shard shows the affinity function spreading queue sets across cores";
      ]
    rows
