(* fig-cluster (beyond the paper, §2/§8 taken across the host boundary):
   a two-node Nkfabric cluster serving keep-alive RPC traffic while NSMs
   are live-migrated between hosts mid-run.

   Four server VMs are spread across node A and node B (two kernel NSMs,
   one per node); a baseline client host drives a closed loop of
   keep-alive requests at each VM, so every connection established before
   the migration must survive it. At one third of the run node A's NSM is
   live-migrated to node B (quick mode stops there); at two thirds the
   full run migrates node B's original NSM to node A, swapping the
   serving load between the hosts a second time.

   Shape to check: per-node NSM utilization crosses over at each
   migration (A's pool empties, B's picks up the relayed VMs, then the
   reverse), the spine NQE counter only moves after the first cut, and
   the client sees zero errors — no connection is reset by either
   migration. Deterministic: byte-identical output across runs. *)

open Nkcore

let n_vms = 4

type world = {
  cluster : Nkfabric.t;
  nodea : Nkfabric.node;
  nodeb : Nkfabric.node;
  nsma : Nsm.t;
  nsmb : Nsm.t;
  lgs : Nkapps.Loadgen.t option ref list;
}

(* The one two-node cluster world, also run by [nk cluster] and the
   [--cluster] views of [nk stats] and [nk trace]: one kernel NSM per node,
   four server VMs and a client host whose keep-alive closed loops start at
   1 ms and issue for [load] seconds. No migration is scheduled; callers
   add their own. *)
let world tb ~load =
  let cluster = Nkfabric.create ~policy:Nkfabric.Spread tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let nsma = Nsm.create_kernel (Nkfabric.node_host nodea) ~name:"nsmA" ~vcpus:1 () in
  let nsmb = Nsm.create_kernel (Nkfabric.node_host nodeb) ~name:"nsmB" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsma;
  Nkfabric.add_nsm cluster nodeb nsmb;
  (* Spread placement: VMs alternate A, B, A, B (equal utilization, ties by
     VM count then node order). *)
  let vms =
    List.init n_vms (fun i ->
        Nkfabric.place_vm cluster
          ~name:(Printf.sprintf "srv%d" i)
          ~vcpus:1 ~ips:[ 10 + i ] ())
  in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"clients" ~vcpus:16
      ~ips:(List.init 8 (fun i -> 100 + i))
      ~profile:Sim.Cost_profile.ideal ()
  in
  (* Keep-alive: the same connections carry requests across the migration
     cut, so any reset shows up as a client error. *)
  let proto = Nkapps.Proto.Fixed { request = 128; response = 1024; keepalive = true } in
  let lgs =
    List.mapi
      (fun i vm ->
        let addr = Addr.make (10 + i) 80 in
        ignore (Worlds.serve tb vm (Nkapps.Epoll_server.config ~proto addr));
        Worlds.load tb ~delay:1e-3 client
          {
            Nkapps.Loadgen.server = addr;
            proto;
            mode =
              Nkapps.Loadgen.Closed { concurrency = 8; total = None; duration = Some load };
            warmup = 0.0;
          })
      vms
  in
  { cluster; nodea; nodeb; nsma; nsmb; lgs }

let run ?(quick = false) () =
  let duration = if quick then 6.0 else 15.0 in
  let tb = Testbed.create ~config:{ Testbed.Config.default with seed = 7 } () in
  let { cluster; nodea; nodeb; nsma; nsmb; lgs } = world tb ~load:(duration -. 0.5) in
  let migration_times = ref [] in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:(duration /. 3.0) (fun () ->
         ignore (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ());
         migration_times := Sim.Engine.now tb.Testbed.engine :: !migration_times));
  if not quick then
    ignore
      (Sim.Engine.schedule tb.Testbed.engine
         ~delay:(2.0 *. duration /. 3.0)
         (fun () ->
           ignore (Nkfabric.migrate_nsm cluster ~nsm:nsmb ~dst:nodea ());
           migration_times := Sim.Engine.now tb.Testbed.engine :: !migration_times));
  (* Sample windowed per-node utilization over the node's current NSM pool
     (a just-emptied pool reads as zero — exactly the load shift we want to
     see), plus served-VM counts and the cumulative spine NQE counter. *)
  let nodes = [| nodea; nodeb |] in
  let prev_busy = Array.make (Array.length nodes) 0.0 in
  let prev_t = ref 0.0 in
  let samples = ref [] in
  let node_busy n =
    List.fold_left (fun acc nsm -> acc +. Nsm.busy_cycles nsm) 0.0 (Nkfabric.node_nsms n)
  in
  let node_cap n =
    List.fold_left
      (fun acc nsm ->
        Array.fold_left
          (fun acc core -> acc +. Sim.Cpu.freq_hz core)
          acc
          (Sim.Cpu.Set.cores (Nsm.cores nsm)))
      0.0 (Nkfabric.node_nsms n)
  in
  let period = 0.1 in
  let rec tick () =
    let t = Sim.Engine.now tb.Testbed.engine in
    let dt = t -. !prev_t in
    if dt > 0.0 then begin
      let util =
        Array.mapi
          (fun i n ->
            let busy = node_busy n in
            let delta = Float.max 0.0 (busy -. prev_busy.(i)) in
            prev_busy.(i) <- busy;
            let cap = node_cap n in
            if cap <= 0.0 then 0.0 else Float.min 1.0 (delta /. (cap *. dt)))
          nodes
      in
      let counts = Array.map (fun n -> Nkfabric.node_vm_count cluster n) nodes in
      let st = Nkfabric.stats cluster in
      samples := (t, util, counts, st.Nkfabric.nqes_shipped) :: !samples;
      prev_t := t
    end;
    if t < duration then ignore (Sim.Engine.schedule tb.Testbed.engine ~delay:period tick)
  in
  ignore (Sim.Engine.schedule tb.Testbed.engine ~delay:period tick);
  Testbed.run tb ~until:(duration +. 0.5);
  let completed, errors = Worlds.served lgs in
  let samples = List.rev !samples in
  let k = 40 in
  let series f = Report.bucket ~k ~duration (List.map f samples) in
  let util_a = series (fun (t, u, _, _) -> (t, u.(0))) in
  let util_b = series (fun (t, u, _, _) -> (t, u.(1))) in
  let vms_a = series (fun (t, _, c, _) -> (t, float_of_int c.(0))) in
  let vms_b = series (fun (t, _, c, _) -> (t, float_of_int c.(1))) in
  let spine =
    (* per-bucket growth of the cumulative spine counter *)
    let cum = series (fun (t, _, _, nq) -> (t, float_of_int nq)) in
    Array.mapi (fun i v -> if i = 0 then v else Float.max 0.0 (v -. cum.(i - 1))) cum
  in
  let st = Nkfabric.stats cluster in
  let rows =
    [
      Report.series_row "nodeA NSM vCPU utilization" util_a Report.sparkline;
      Report.series_row "nodeB NSM vCPU utilization" util_b Report.sparkline;
      Report.series_row "VMs served on nodeA" vms_a Report.digits;
      Report.series_row "VMs served on nodeB" vms_b Report.digits;
      Report.series_row "spine NQEs shipped (per bucket)" spine Report.sparkline;
    ]
  in
  Report.make ~id:"fig-cluster"
    ~title:"Cluster fabric: cross-host live NSM migration (Nkfabric)"
    ~headers:[ "series"; "min"; "max"; Printf.sprintf "time 0..%.0fs" duration ]
    ~notes:
      [
        Printf.sprintf
          "requests served %d, errors %d; migrations %d, VMs relayed %d, spine NQEs %d \
           (%d bytes)"
          completed errors st.Nkfabric.migrations st.Nkfabric.vms_relayed
          st.Nkfabric.nqes_shipped st.Nkfabric.bytes_shipped;
        Printf.sprintf "migrations at [%s] of a %.0fs run; %d VMs spread over 2 nodes, \
                        keep-alive closed loop x8 per VM"
          (String.concat "; "
             (List.rev_map (fun t -> Printf.sprintf "%.2fs" t) !migration_times))
          duration n_vms;
        "shape to check: per-node utilization crosses over at each migration, spine \
         traffic starts at the first cut, and errors stay zero (no connection is \
         reset by a migration)";
      ]
    rows
