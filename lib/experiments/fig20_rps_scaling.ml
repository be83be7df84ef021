(* Fig 20: short-connection RPS scaling with vCPUs, 64B messages,
   concurrency 1000, SO_REUSEPORT-style parallel accepts. Kernel-stack and
   mTCP NSMs (the paper runs mTCP at 1/2/4/8 vCPUs only).

   Paper: Baseline == NetKernel(kernel) reaching ~400K rps at 8 vCPUs
   (5.7x one core); mTCP: 190K / 366K / 652K / 1.1M rps. *)

let run ?(quick = false) () =
  let total n = (if quick then 4_000 else 20_000) * n in
  let kernel_points = [ 1; 2; 3; 4; 8 ] in
  let mtcp_points = [ 1; 2; 4; 8 ] in
  let measure_baseline vcpus =
    let w = Worlds.baseline ~config:{ Worlds.Config.default with vcpus } () in
    (Worlds.measure_rps w ~concurrency:1000 ~total:(total vcpus) ()).Worlds.rps
  in
  let measure_nk kind vcpus =
    let w =
      Worlds.netkernel
        ~config:{ Worlds.Config.default with vcpus; nsm_cores = vcpus; nsm_kind = kind }
        ()
    in
    (Worlds.measure_rps w ~concurrency:1000 ~total:(total vcpus) ()).Worlds.rps
  in
  let rows =
    List.map
      (fun vcpus ->
        let baseline = measure_baseline vcpus in
        let nk_kernel = measure_nk `Kernel vcpus in
        let nk_mtcp =
          if List.mem vcpus mtcp_points then Report.cell_krps (measure_nk `Mtcp vcpus)
          else "-"
        in
        [
          string_of_int vcpus;
          Report.cell_krps baseline;
          Report.cell_krps nk_kernel;
          nk_mtcp;
        ])
      kernel_points
  in
  Report.make ~id:"fig20"
    ~title:"Short-connection RPS scaling with vCPUs (64B messages, concurrency 1000)"
    ~headers:[ "vCPUs"; "Baseline"; "NK kernel NSM"; "NK mTCP NSM" ]
    ~notes:
      [
        "paper: kernel reaches ~400K rps at 8 vCPUs (5.7x single core); NK == Baseline";
        "paper mTCP NSM: 190K / 366K / 652K / 1.1M rps at 1/2/4/8 vCPUs";
        "scale-down: 20K requests per vCPU per point (paper: 10M total)";
      ]
    rows
