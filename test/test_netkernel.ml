(* End-to-end tests of the NetKernel path: GuestLib -> NQEs -> CoreEngine ->
   ServiceLib -> NSM stack -> wire, against real applications. *)

open Nkcore
module Types = Tcpstack.Types

let ip_vm = 10
let ip_vm2 = 11
let ip_client = 20

let fixed64 = Nkapps.Proto.Fixed { request = 64; response = 64; keepalive = false }

(* Standard two-host NetKernel world: server host with one NSM and [vms] NK
   VMs (1 vCPU each), client host with an ideal-profile baseline VM. *)
let nk_world ?(nsm_kind = `Kernel) ?(nsm_cores = 1) ?(vm_ips = [ [ ip_vm ] ]) () =
  let tb = Testbed.create () in
  let server_host = Testbed.add_host tb ~name:"hostA" in
  let client_host = Testbed.add_host tb ~name:"hostB" in
  let nsm =
    match nsm_kind with
    | `Kernel -> Nsm.create_kernel server_host ~name:"nsm0" ~vcpus:nsm_cores ()
    | `Mtcp -> Nsm.create_mtcp server_host ~name:"nsm0" ~vcpus:nsm_cores ()
  in
  let vms =
    List.mapi
      (fun i ips ->
        Vm.create_nk server_host ~name:(Printf.sprintf "vm%d" i) ~vcpus:1 ~ips
          ~nsms:[ nsm ] ())
      vm_ips
  in
  let client =
    Vm.create_baseline client_host ~name:"client" ~vcpus:8
      ~ips:[ ip_client; ip_client + 1; ip_client + 2 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  (tb, server_host, nsm, vms, client)

let kv_over_netkernel () =
  let tb, _host, _nsm, vms, client = nk_world () in
  let vm = List.hd vms in
  let addr = Addr.make ip_vm 6379 in
  (match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv start: %s" (Types.err_to_string e));
  let got = ref None and deleted = ref None and miss = ref None in
  Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
    ~k:(fun r ->
      match r with
      | Error e -> Alcotest.failf "kv connect: %s" (Types.err_to_string e)
      | Ok conn ->
          Nkapps.Kvstore.Client.set conn ~key:"paper" ~value:"netkernel atc20" ~k:(fun r ->
              (match r with Ok () -> () | Error e -> Alcotest.failf "set: %s" e);
              Nkapps.Kvstore.Client.get conn ~key:"paper" ~k:(fun r ->
                  (match r with
                  | Ok v -> got := v
                  | Error e -> Alcotest.failf "get: %s" e);
                  Nkapps.Kvstore.Client.del conn ~key:"paper" ~k:(fun r ->
                      (match r with
                      | Ok b -> deleted := Some b
                      | Error e -> Alcotest.failf "del: %s" e);
                      Nkapps.Kvstore.Client.get conn ~key:"paper" ~k:(fun r ->
                          (match r with
                          | Ok v -> miss := Some v
                          | Error e -> Alcotest.failf "get2: %s" e);
                          Nkapps.Kvstore.Client.close conn)))));
  Testbed.run tb ~until:2.0;
  Alcotest.(check (option string)) "value through NetKernel" (Some "netkernel atc20") !got;
  Alcotest.(check (option bool)) "deleted" (Some true) !deleted;
  Alcotest.(check (option (option string))) "miss after delete" (Some None) !miss

(* Start the client a moment after the server so listeners are installed
   before the first SYN (as in any real deployment). *)
let delayed_loadgen tb client_api ~addr ~total ~concurrency =
  let lg = ref None in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         lg :=
           Some
             (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:client_api
                {
                  Nkapps.Loadgen.server = addr;
                  proto = fixed64;
                  mode =
                    Nkapps.Loadgen.Closed { concurrency; total = Some total; duration = None };
                  warmup = 0.0;
                })));
  lg

let loadgen_against server_api client_api tb ~addr ~total ~concurrency =
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:server_api
       (Nkapps.Epoll_server.config ~proto:fixed64 addr)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server start: %s" (Types.err_to_string e));
  let lg = delayed_loadgen tb client_api ~addr ~total ~concurrency in
  Testbed.run tb ~until:30.0;
  Nkapps.Loadgen.results (Option.get !lg)

let rps_over_netkernel () =
  let tb, _host, _nsm, vms, client = nk_world () in
  let vm = List.hd vms in
  let r =
    loadgen_against (Vm.api vm) (Vm.api client) tb ~addr:(Addr.make ip_vm 80) ~total:2000
      ~concurrency:32
  in
  Alcotest.(check int) "all requests completed" 2000 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Nkapps.Loadgen.errors;
  if r.Nkapps.Loadgen.rps < 10_000.0 then
    Alcotest.failf "suspiciously low NetKernel RPS: %.0f" r.Nkapps.Loadgen.rps

let rps_parity_with_baseline () =
  (* The paper's central performance claim: NetKernel ~= Baseline. *)
  let nk_rps =
    let tb, _host, _nsm, vms, client = nk_world () in
    let r =
      loadgen_against (Vm.api (List.hd vms)) (Vm.api client) tb ~addr:(Addr.make ip_vm 80)
        ~total:3000 ~concurrency:64
    in
    r.Nkapps.Loadgen.rps
  in
  let baseline_rps =
    let tb = Testbed.create () in
    let hosta = Testbed.add_host tb ~name:"hostA" in
    let hostb = Testbed.add_host tb ~name:"hostB" in
    let vm = Vm.create_baseline hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] () in
    let client =
      Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ ip_client ]
        ~profile:Sim.Cost_profile.ideal ()
    in
    let r =
      loadgen_against (Vm.api vm) (Vm.api client) tb ~addr:(Addr.make ip_vm 80) ~total:3000
        ~concurrency:64
    in
    r.Nkapps.Loadgen.rps
  in
  let ratio = nk_rps /. baseline_rps in
  if ratio < 0.7 || ratio > 1.4 then
    Alcotest.failf "NetKernel/Baseline RPS ratio out of range: %.0f vs %.0f (%.2fx)" nk_rps
      baseline_rps ratio

let mtcp_nsm_serves_unmodified_app () =
  let tb, _host, nsm, vms, client = nk_world ~nsm_kind:`Mtcp () in
  let r =
    loadgen_against (Vm.api (List.hd vms)) (Vm.api client) tb ~addr:(Addr.make ip_vm 80)
      ~total:2000 ~concurrency:32
  in
  Alcotest.(check int) "all requests completed" 2000 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Nkapps.Loadgen.errors;
  let conns =
    List.fold_left
      (fun acc (s : Tcpstack.Stack.stats) -> acc + s.Tcpstack.Stack.conns_established)
      0 (Nsm.stack_stats nsm)
  in
  if conns < 2000 then Alcotest.failf "mTCP shards accepted too few conns: %d" conns

(* mTCP's per-core sharding seen through the NSM path: a 4-core mTCP NSM
   listens on every shard and RSS spreads the accepted connections. *)
let mtcp_nsm_rss_spread () =
  let tb, _host, nsm, vms, client = nk_world ~nsm_kind:`Mtcp ~nsm_cores:4 () in
  let r =
    loadgen_against (Vm.api (List.hd vms)) (Vm.api client) tb ~addr:(Addr.make ip_vm 80)
      ~total:2000 ~concurrency:32
  in
  Alcotest.(check int) "all requests completed" 2000 r.Nkapps.Loadgen.completed;
  Alcotest.(check int) "no errors" 0 r.Nkapps.Loadgen.errors;
  let shards = Nsm.stack_stats nsm in
  Alcotest.(check int) "one stack per core" 4 (List.length shards);
  List.iteri
    (fun i (s : Tcpstack.Stack.stats) ->
      if s.Tcpstack.Stack.conns_established = 0 then
        Alcotest.failf "mTCP shard %d accepted no connections" i)
    shards

let multiplexing_two_vms_one_nsm () =
  let tb, _host, nsm, vms, client = nk_world ~vm_ips:[ [ ip_vm ]; [ ip_vm2 ] ] () in
  ignore nsm;
  let vm1, vm2 = (List.nth vms 0, List.nth vms 1) in
  (* Two different "applications" multiplexed on one NSM. *)
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm1)
       (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server1: %s" (Types.err_to_string e));
  (match
     Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm2)
       (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm2 80))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "server2: %s" (Types.err_to_string e));
  let lg1 = delayed_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 80) ~total:1000 ~concurrency:16 in
  let lg2 = delayed_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm2 80) ~total:1000 ~concurrency:16 in
  Testbed.run tb ~until:30.0;
  Alcotest.(check int) "vm1 requests" 1000
    (Nkapps.Loadgen.results (Option.get !lg1)).Nkapps.Loadgen.completed;
  Alcotest.(check int) "vm2 requests" 1000
    (Nkapps.Loadgen.results (Option.get !lg2)).Nkapps.Loadgen.completed

let multi_nsm_per_socket_spread () =
  (* One VM served by two NSMs; its two listeners land on different NSMs
     (paper §7.5). *)
  let tb = Testbed.create () in
  let hosta = Testbed.add_host tb ~name:"hostA" in
  let hostb = Testbed.add_host tb ~name:"hostB" in
  let nsm1 = Nsm.create_kernel hosta ~name:"nsm1" ~vcpus:1 () in
  let nsm2 = Nsm.create_kernel hosta ~name:"nsm2" ~vcpus:1 () in
  let vm = Vm.create_nk hosta ~name:"vm" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm1; nsm2 ] () in
  let client =
    Vm.create_baseline hostb ~name:"client" ~vcpus:8 ~ips:[ ip_client ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  List.iter
    (fun port ->
      match
        Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
          (Nkapps.Epoll_server.config ~proto:fixed64 (Addr.make ip_vm port))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "server on %d: %s" port (Types.err_to_string e))
    [ 80; 81 ];
  let lg1 = delayed_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 80) ~total:500 ~concurrency:8 in
  let lg2 = delayed_loadgen tb (Vm.api client) ~addr:(Addr.make ip_vm 81) ~total:500 ~concurrency:8 in
  Testbed.run tb ~until:30.0;
  Alcotest.(check int) "port 80 done" 500
    (Nkapps.Loadgen.results (Option.get !lg1)).Nkapps.Loadgen.completed;
  Alcotest.(check int) "port 81 done" 500
    (Nkapps.Loadgen.results (Option.get !lg2)).Nkapps.Loadgen.completed;
  let conns nsm =
    List.fold_left
      (fun acc (s : Tcpstack.Stack.stats) -> acc + s.Tcpstack.Stack.conns_established)
      0 (Nsm.stack_stats nsm)
  in
  if conns nsm1 = 0 || conns nsm2 = 0 then
    Alcotest.failf "expected both NSMs to carry connections (%d / %d)" (conns nsm1)
      (conns nsm2)

let shmem_nsm_copies_data () =
  let tb = Testbed.create () in
  let host = Testbed.add_host tb ~name:"hostA" in
  let nsm = Nsm.create_shmem host ~name:"shmem" ~vcpus:2 () in
  let vm1 = Vm.create_nk host ~name:"vm1" ~vcpus:2 ~ips:[ ip_vm ] ~nsms:[ nsm ] () in
  let vm2 = Vm.create_nk host ~name:"vm2" ~vcpus:2 ~ips:[ ip_vm2 ] ~nsms:[ nsm ] () in
  let addr = Addr.make ip_vm2 9000 in
  (match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm2) ~addr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv start: %s" (Types.err_to_string e));
  let got = ref None in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
  Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api vm1) addr
    ~k:(fun r ->
      match r with
      | Error e -> Alcotest.failf "connect over shmem: %s" (Types.err_to_string e)
      | Ok conn ->
          Nkapps.Kvstore.Client.set conn ~key:"k" ~value:"shared memory networking"
            ~k:(fun r ->
              (match r with Ok () -> () | Error e -> Alcotest.failf "set: %s" e);
              Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                  (match r with Ok v -> got := v | Error e -> Alcotest.failf "get: %s" e);
                  Nkapps.Kvstore.Client.close conn)))));
  Testbed.run tb ~until:2.0;
  Alcotest.(check (option string)) "value over shmem NSM" (Some "shared memory networking")
    !got;
  match Nsm.servicelib_stats nsm with
  | Some _ -> Alcotest.fail "shmem NSM should not have a ServiceLib"
  | None -> ()

let rate_limit_caps_throughput () =
  let tb, host, _nsm, vms, client = nk_world ~nsm_cores:2 () in
  let vm = List.hd vms in
  Coreengine.set_rate_limit (Host.coreengine host) ~vm_id:(Vm.vm_id vm)
    ~bytes_per_sec:(1e9 /. 8.0);
  let sink_addr = Addr.make ip_client 5001 in
  let sink =
    match
      Nkapps.Stream.sink ~engine:tb.Testbed.engine ~api:(Vm.api client) ~addr:sink_addr
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "sink: %s" (Types.err_to_string e)
  in
  let _senders =
    Nkapps.Stream.senders ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~dst:sink_addr
      ~streams:4 ~msg_size:65536 ~stop:1.0 ()
  in
  Testbed.run tb ~until:1.5;
  let gbps = Nkapps.Stream.sink_throughput_gbps sink in
  if gbps < 0.7 || gbps > 1.15 then
    Alcotest.failf "rate limit not enforced: measured %.2f Gbps (cap 1.0)" gbps

(* A crashed NSM is silent whatever its backend: after [Nsm.fail], a
   Socket NQE for a registered VM, pushed onto the NSM device's inbound
   ring and woken, draws no reply. *)
let failed_nsm_posts_nothing () =
  List.iter
    (fun (kind, create) ->
      let tb = Testbed.create () in
      let host = Testbed.add_host tb ~name:"hostA" in
      let nsm = create host in
      let vm = Vm.create_nk host ~name:"vm0" ~vcpus:1 ~ips:[ ip_vm ] ~nsms:[ nsm ] () in
      Nsm.fail nsm;
      let dev = Nsm.device nsm in
      let nqe = Bytes.create Nqe.size_bytes in
      Nqe.write nqe ~pos:0 ~op:Nqe.Socket ~vm_id:(Vm.vm_id vm) ~qset:0 ~sock:1 ~op_data:0
        ~data_ptr:0 ~size:0 ~synthetic:false ~span:0;
      if not (Nk_device.push dev ~qset:0 nqe 0) then Alcotest.failf "%s: push" kind;
      Nk_device.wake dev tb.Testbed.engine ~qset:0 ~delay:0.0;
      Testbed.run tb ~until:1e-3;
      Alcotest.(check int)
        (kind ^ ": NQEs posted after the crash")
        0
        (Nk_device.outbound_pending dev ~qset:0))
    [
      ("kernel", fun h -> Nsm.create_kernel h ~name:"nsm0" ~vcpus:1 ());
      ("mtcp", fun h -> Nsm.create_mtcp h ~name:"nsm0" ~vcpus:1 ());
      ("homa", fun h -> Nsm.create_homa h ~name:"nsm0" ~vcpus:1 ());
      ("shmem", fun h -> Nsm.create_shmem h ~name:"nsm0" ~vcpus:1 ());
    ]

(* An idle VM's memory is what it uses: its queue set's four rings hold
   8,192 NQEs each but allocate slots as they fill, the first 16 at the
   first push, and its poll loop's burst buffer grows from empty. One host
   with one kernel NSM, built with 1 and then 33 idle 1-vCPU VMs; after a
   full major GC the 32 further VMs may hold at most 4,096 live words each
   (1,911 now; about 2,070 when every ring held 16 option slots and the
   burst buffer 128 from the start; 34,796 when each ring allocated all
   its slots). *)
let idle_vm_memory () =
  let live_with n =
    let tb = Testbed.create () in
    let host = Testbed.add_host tb ~name:"hostA" in
    let nsm = Nsm.create_kernel host ~name:"nsm0" ~vcpus:1 () in
    let vms =
      List.init n (fun i ->
          Vm.create_nk host ~name:(Printf.sprintf "vm%d" i) ~vcpus:1 ~ips:[ ip_vm + i ]
            ~nsms:[ nsm ] ())
    in
    Gc.full_major ();
    let live = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity (tb, vms));
    live
  in
  let one = live_with 1 in
  let per_vm = (live_with 33 - one) / 32 in
  if per_vm > 4096 then Alcotest.failf "%d live words per idle VM" per_vm

let tests =
  [
    Alcotest.test_case "kv store over NetKernel" `Quick kv_over_netkernel;
    Alcotest.test_case "loadgen RPS over NetKernel" `Quick rps_over_netkernel;
    Alcotest.test_case "RPS parity with baseline" `Quick rps_parity_with_baseline;
    Alcotest.test_case "mTCP NSM, unmodified app" `Quick mtcp_nsm_serves_unmodified_app;
    Alcotest.test_case "mTCP NSM RSS spreads accepts" `Quick mtcp_nsm_rss_spread;
    Alcotest.test_case "two VMs multiplexed on one NSM" `Quick multiplexing_two_vms_one_nsm;
    Alcotest.test_case "one VM spread over two NSMs" `Quick multi_nsm_per_socket_spread;
    Alcotest.test_case "shared-memory NSM moves real data" `Quick shmem_nsm_copies_data;
    Alcotest.test_case "CoreEngine rate limit" `Quick rate_limit_caps_throughput;
    Alcotest.test_case "an idle VM costs <= 4,096 live words" `Quick idle_vm_memory;
    Alcotest.test_case "a crashed NSM of any kind posts nothing" `Quick
      failed_nsm_posts_nothing;
  ]
