(* Calibration probe: measures the simulator against the paper's published
   single-core and scaling anchors (DESIGN.md section 5). Run after touching
   any cost constant:

     dune exec bin/calibrate.exe *)

module W = Experiments.Worlds

let baseline vcpus = W.baseline ~config:{ W.Config.default with vcpus } ()

let netkernel vcpus nsm_cores nsm_kind =
  W.netkernel ~config:{ W.Config.default with vcpus; nsm_cores; nsm_kind } ()

let gbps name v = Printf.printf "%-40s %6.1f Gbps\n%!" name v

let send name w ~streams ~msg =
  gbps name (W.measure_send_throughput w ~streams ~msg_size:msg ())

let recv name w ~streams ~msg =
  gbps name (W.measure_recv_throughput w ~streams ~msg_size:msg ())

let rps name w ~conc ~total =
  let r = W.measure_rps w ~concurrency:conc ~total ~backlog:1024 () in
  Printf.printf "%-40s %8.0f rps  (errors %d, mean lat %.2f ms)\n%!" name r.W.rps r.W.errors
    (Nkutil.Histogram.mean r.W.latency *. 1e3)

let () =
  (* Paper anchors:
     - 8-stream 16KB send, 1 core: 55.2G | receive: 13.6..17.4G
     - single stream 16KB send: 30.9G
     - RPS 64B conc100: ~70K (kernel), 190K (mtcp, 1 core)
     - 8 cores RPS: ~400K kernel *)
  send "baseline 1-core send 8x16KB (55.2G)" (baseline 1) ~streams:8 ~msg:16384;
  send "baseline 1-core send 1x16KB (30.9G)" (baseline 1) ~streams:1 ~msg:16384;
  recv "baseline 1-core recv 8x16KB (17.4G)" (baseline 1) ~streams:8 ~msg:16384;
  send "baseline 3-core send 8x8KB (100G)" (baseline 3) ~streams:8 ~msg:8192;
  recv "baseline 8-core recv 8x8KB (91G)" (baseline 8) ~streams:8 ~msg:8192;
  rps "baseline 1-core rps (70K)" (baseline 1) ~conc:100 ~total:50_000;
  rps "baseline 8-core rps (400K)" (baseline 8) ~conc:1000 ~total:200_000;
  send "NK 1c/1c send 8x16KB (55G)" (netkernel 1 1 `Kernel) ~streams:8 ~msg:16384;
  recv "NK 1c/1c recv 8x16KB (17G)" (netkernel 1 1 `Kernel) ~streams:8 ~msg:16384;
  rps "NK kernel 1c rps (70K)" (netkernel 1 1 `Kernel) ~conc:100 ~total:50_000;
  rps "NK mtcp 1c rps (190K)" (netkernel 1 1 `Mtcp) ~conc:100 ~total:50_000;
  rps "NK mtcp 8c/8c rps (1.1M)" (netkernel 8 8 `Mtcp) ~conc:1000 ~total:200_000;
  rps "NK kernel 8c/8c rps (400K)" (netkernel 8 8 `Kernel) ~conc:1000 ~total:200_000
