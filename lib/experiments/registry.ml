type entry = {
  id : string;
  title : string;
  run : ?quick:bool -> unit -> Report.t;
}

let all =
  [
    { id = "fig07"; title = "AG traffic burstiness"; run = Fig07_trace.run };
    { id = "fig08"; title = "Multiplexing AGs on one NSM"; run = Fig08_multiplexing.run };
    { id = "fig0708"; title = "Autoscaling NSMs under the AG trace"; run = Fig0708_autoscale.run };
    { id = "table2"; title = "AG packing / core saving"; run = Table2_packing.run };
    { id = "fig09"; title = "VM-level fair bandwidth sharing"; run = Fig09_fairshare.run };
    { id = "table3"; title = "nginx: kernel vs mTCP NSM"; run = Table3_nginx.run };
    { id = "fig10"; title = "Shared-memory NSM"; run = Fig10_shmem.run };
    { id = "fig11"; title = "CoreEngine NQE switching"; run = Fig11_nqe_switch.run };
    { id = "fig12"; title = "Hugepage copy throughput"; run = Fig12_memcopy.run };
    { id = "fig13"; title = "Single-stream send"; run = Fig13_16_streams.run_fig13 };
    { id = "fig14"; title = "Single-stream receive"; run = Fig13_16_streams.run_fig14 };
    { id = "fig15"; title = "8-stream send"; run = Fig13_16_streams.run_fig15 };
    { id = "fig16"; title = "8-stream receive"; run = Fig13_16_streams.run_fig16 };
    { id = "fig17"; title = "RPS vs message size"; run = Fig17_rps.run };
    { id = "fig18"; title = "Send scaling with vCPUs"; run = Fig18_19_scaling.run_fig18 };
    { id = "fig19"; title = "Receive scaling with vCPUs";
      run = Fig18_19_scaling.run_fig19 };
    { id = "fig20"; title = "RPS scaling (kernel + mTCP)"; run = Fig20_rps_scaling.run };
    { id = "ce-scale"; title = "RPS scaling with CoreEngine shards"; run = Ce_scaling.run };
    { id = "cluster"; title = "Cluster fabric: cross-host live NSM migration";
      run = Fig_cluster.run };
    { id = "incast"; title = "N-to-1 incast: live TCP->Homa protocol handover";
      run = Incast.run };
    { id = "slo"; title = "Tenant SLO breach -> Nkobs alert -> Nkctl reaction";
      run = Slo.run };
    { id = "table4"; title = "Multi-NSM scalability"; run = Table4_multi_nsm.run };
    { id = "fig21"; title = "Isolation time series"; run = Fig21_isolation.run };
    { id = "table5"; title = "Latency distribution"; run = Table5_latency.run };
    { id = "latency-breakdown"; title = "Per-stage latency decomposition (Nkspan)";
      run = Latency_breakdown.run };
    { id = "table6"; title = "CPU overhead, throughput"; run = Table6_overhead_tput.run };
    { id = "table7"; title = "CPU overhead, RPS"; run = Table7_overhead_rps.run };
    { id = "abl-zerocopy"; title = "Ablation: NSM zerocopy"; run = Abl_zerocopy.run };
    { id = "abl-ce-offload"; title = "Ablation: SmartNIC CoreEngine"; run = Abl_ce_offload.run };
    { id = "abl-batching"; title = "Ablation: CE batch size"; run = Abl_batching.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
