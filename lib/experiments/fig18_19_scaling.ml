(* Figs 18-19: throughput scalability with vCPUs. 8 TCP streams, 8KB
   messages; NetKernel gives the NSM the same number of vCPUs as the VM.

   Paper: send reaches the ~94 Gb/s line rate with 3 vCPUs (Fig 18);
   receive scales to 91 Gb/s at 8 vCPUs (Fig 19); NK == Baseline. *)

let vcpu_points = [ 1; 2; 3; 4; 8 ]

let figure ~id ~title ~direction ~duration ~notes =
  let rows =
    List.map
      (fun vcpus ->
        let baseline =
          let w = Worlds.baseline ~config:{ Worlds.Config.default with vcpus } () in
          match direction with
          | `Send -> Worlds.measure_send_throughput w ~streams:8 ~msg_size:8192 ~duration ()
          | `Recv -> Worlds.measure_recv_throughput w ~streams:8 ~msg_size:8192 ~duration ()
        in
        let nk =
          let w =
            Worlds.netkernel
              ~config:{ Worlds.Config.default with vcpus; nsm_cores = vcpus }
              ()
          in
          match direction with
          | `Send -> Worlds.measure_send_throughput w ~streams:8 ~msg_size:8192 ~duration ()
          | `Recv -> Worlds.measure_recv_throughput w ~streams:8 ~msg_size:8192 ~duration ()
        in
        [ string_of_int vcpus; Report.cell_gbps baseline; Report.cell_gbps nk ])
      vcpu_points
  in
  Report.make ~id ~title ~headers:[ "vCPUs"; "Baseline Gb/s"; "NetKernel Gb/s" ] ~notes rows

let run_fig18 ?(quick = false) () =
  figure ~id:"fig18" ~title:"Send throughput scaling, 8 streams x 8KB"
    ~direction:`Send
    ~duration:(if quick then 0.3 else 1.0)
    ~notes:[ "paper: line rate (~94 Gb/s after framing) from 3 vCPUs; NK == Baseline" ]

let run_fig19 ?(quick = false) () =
  figure ~id:"fig19" ~title:"Receive throughput scaling, 8 streams x 8KB"
    ~direction:`Recv
    ~duration:(if quick then 0.3 else 1.0)
    ~notes:[ "paper: 91 Gb/s at 8 vCPUs, near-linear scaling; NK == Baseline" ]
