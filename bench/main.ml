(* Bechamel microbenchmarks of the NetKernel dataplane primitives: one NQE
   slot write and its field reads, an NQE ring and the SPSC ring, hugepage
   copy, engine timers, one CoreEngine switch, one owner poll burst, a
   core's exec-and-fire step, one segment over the fabric, one TCP data
   segment and its ACK, one Send NQE translated into a kernel stack by
   ServiceLib, one TCP connection's whole life, one HTTP response parsed,
   one socket-buffer write and read, one world's set-up, one epoll_wait
   over eight ready sockets, a hugepage alloc+free past eight holes, and
   a hit and a miss in a flow table of 4,096 connections.
   The paper's tables and figures are regenerated by `nk run` instead.

     dune exec bench/main.exe *)

let () =
  let open Bechamel in
  let open Toolkit in
  let module Nqe = Nkcore.Nqe in
  (* What a producer and a consumer do to every NQE on the datapath: write
     one into a slot, then read four fields of it in place. *)
  let slots = Bytes.create (16 * Nqe.size_bytes) in
  let nqe_slot =
    Test.make ~name:"nqe slot write + 4 view reads"
      (Staged.stage (fun () ->
           let pos = 5 * Nqe.size_bytes in
           Nqe.write slots ~pos ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~op_data:0
             ~data_ptr:4096 ~size:8192 ~synthetic:false ~span:0;
           if
             Nqe.View.op slots pos <> Nqe.Send
             || Nqe.View.vm_id slots pos + Nqe.View.sock slots pos + Nqe.View.size slots pos
                <> 8235
           then failwith "nqe fields"))
  in
  (* One NQE through a queue-set ring: copied into its slot, copied out. *)
  let nqe_ring = Nkcore.Nqe_ring.create ~capacity:1024 in
  let nqe_ring_pushpop =
    Test.make ~name:"nqe ring push+pop"
      (Staged.stage (fun () ->
           ignore (Nkcore.Nqe_ring.push nqe_ring slots 0);
           if not (Nkcore.Nqe_ring.pop nqe_ring slots Nqe.size_bytes) then
             failwith "nqe ring empty"))
  in
  (* The generic ring the TCP receive path keeps. *)
  let ring = Nkutil.Spsc_ring.create ~capacity:1024 in
  let payload = Bytes.create 32 in
  let ring_pushpop =
    Test.make ~name:"spsc ring push+pop"
      (Staged.stage (fun () ->
           ignore (Nkutil.Spsc_ring.push ring payload);
           ignore (Nkutil.Spsc_ring.pop ring)))
  in
  let hp = Nkcore.Hugepages.create ~page_size:(2 * 1024 * 1024) ~pages:4 () in
  let msg = String.make 8192 'x' in
  let hugepage_copy =
    Test.make ~name:"hugepage alloc+copy8K+free"
      (Staged.stage (fun () ->
           match Nkcore.Hugepages.alloc hp 8192 with
           | None -> failwith "hugepages full"
           | Some e ->
               Nkcore.Hugepages.write_payload hp e (Tcpstack.Types.Data msg);
               Nkcore.Hugepages.free hp e))
  in
  (* Engine timer hot path: two schedules into the wheel, one cancelled
     (unlinked from its bucket), then the other drained — the sequence
     every datapath wakeup pays. *)
  let engine = Sim.Engine.create () in
  let heap_ops =
    Test.make ~name:"engine timer schedule+fire"
      (Staged.stage (fun () ->
           let a = Sim.Engine.schedule engine ~delay:1e-6 ignore in
           ignore (Sim.Engine.schedule engine ~delay:2e-6 ignore);
           Sim.Engine.Timer.cancel engine a;
           ignore (Sim.Engine.step engine);
           ignore (Sim.Engine.step engine)))
  in
  (* One NQE through the CoreEngine: a Send posted on an attached VM
     device, switched by a 1-shard engine with 24 more VM devices
     registered and idle, then taken off the NSM's send ring. *)
  let ce_engine = Sim.Engine.create () in
  let ce =
    Nkcore.Coreengine.create ~engine:ce_engine
      ~cores:[| Sim.Cpu.create ce_engine ~name:"ce" () |]
      Nkcore.Nk_costs.default
  in
  let device ~id role =
    Nkcore.Nk_device.create ~id ~role ~qsets:1 ~capacity:64
      ~hugepages:(Nkcore.Hugepages.create ~page_size:4096 ~pages:1 ())
      ()
  in
  let vm = device ~id:1 Nkcore.Nk_device.Vm_side in
  let nsm = device ~id:1 Nkcore.Nk_device.Nsm_side in
  Nkcore.Coreengine.register_vm ce vm;
  Nkcore.Coreengine.register_nsm ce nsm;
  for id = 2 to 25 do
    Nkcore.Coreengine.register_vm ce (device ~id Nkcore.Nk_device.Vm_side)
  done;
  Nkcore.Coreengine.attach ce ~vm_id:1 ~nsm_ids:[ 1 ];
  let send_nqe =
    Nqe_codec.encode (Nqe_codec.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:7 ~size:1024 ())
  in
  let nsm_send = (Nkcore.Nk_device.qset nsm 0).Nkcore.Queue_set.send in
  let switched = Bytes.create Nqe.size_bytes in
  let ce_switch =
    Test.make ~name:"coreengine switch (24 idle devices)"
      (Staged.stage (fun () ->
           Nkcore.Nk_device.post vm ~qset:0 send_nqe 0;
           Sim.Engine.run ce_engine;
           if not (Nkcore.Nqe_ring.pop nsm_send switched 0) then
             failwith "send NQE not switched"))
  in
  (* The owner poll loop GuestLib, ServiceLib and the shared-memory NSM all
     run: 64 jobs pushed onto an NSM device, one wake, one burst drained,
     charged and applied, then the empty re-poll. *)
  let serve_engine = Sim.Engine.create () in
  let serve_dev = device ~id:2 Nkcore.Nk_device.Nsm_side in
  let applied = ref 0 in
  Nkcore.Nk_device.serve serve_dev
    ~cores:(Sim.Cpu.Set.create serve_engine ~name:"nsm" ~n:1 ())
    ~component:"nsm2" (fun _ _ _ -> incr applied);
  let jobs = Bytes.create (64 * Nqe.size_bytes) in
  for sock = 0 to 63 do
    Nqe_codec.encode_into
      (Nqe_codec.make ~op:Nqe.Socket ~vm_id:1 ~qset:0 ~sock ())
      jobs ~pos:(sock * Nqe.size_bytes)
  done;
  let serve_burst =
    Test.make ~name:"nk_device serve: one 64-NQE NSM burst"
      (Staged.stage (fun () ->
           applied := 0;
           for i = 0 to 63 do
             ignore (Nkcore.Nk_device.push serve_dev ~qset:0 jobs (i * Nqe.size_bytes))
           done;
           Nkcore.Nk_device.wake serve_dev serve_engine ~qset:0 ~delay:0.0;
           Sim.Engine.run serve_engine;
           if !applied <> 64 then failwith "burst not applied"))
  in
  (* The simulation core's most frequent step: a chain of Cpu.exec
     continuations on one core, each firing and queueing the next, so one
     engine step is one exec plus one fire. *)
  let cpu_engine = Sim.Engine.create () in
  let core = Sim.Cpu.create cpu_engine ~name:"c0" () in
  let rec next () = Sim.Cpu.exec core ~cycles:230.0 next in
  next ();
  let cpu_exec =
    Test.make ~name:"cpu exec + fire"
      (Staged.stage (fun () -> if not (Sim.Engine.step cpu_engine) then failwith "chain ended"))
  in
  (* One 1448-byte segment from NIC a to NIC b through the fabric: the
     uplink's serialization and delivery, the switch's route lookup, then
     the downlink's. *)
  let net_engine = Sim.Engine.create () in
  let fabric = Fabric.create net_engine ~rate_bps:100e9 ~delay:2e-6 () in
  let nic_a = Nic.create net_engine ~name:"a" ()
  and nic_b = Nic.create net_engine ~name:"b" () in
  Fabric.attach fabric nic_a;
  Fabric.attach fabric nic_b;
  Fabric.add_route fabric 2 nic_b;
  let delivered = ref 0 in
  Nic.set_rx_handler nic_b (fun _ -> incr delivered);
  let seg =
    Segment.make ~flow:(Addr.Flow.make ~src:(Addr.make 1 5000) ~dst:(Addr.make 2 80)) ~seq:0
      ~ack:0 ~syn:false ~ack_flag:false ~fin:false ~rst:false ~window:0 ~len:1448 ~ts:0.0
      ~ts_echo:(-1.0)
  in
  let link_send =
    Test.make ~name:"link send + fabric delivery"
      (Staged.stage (fun () ->
           let before = !delivered in
           if not (Nic.transmit nic_a seg) then failwith "segment dropped";
           Sim.Engine.run net_engine;
           if !delivered <> before + 1 then failwith "segment not delivered"))
  in
  (* One non-keep-alive connection between two kernel stacks on two hosts,
     the unit of connection churn: connect, 64 B each way, the server
     closes after answering and the client after reading, then the engine
     runs until nothing is left, TIME_WAIT expiry included. *)
  let module St = Tcpstack.Stack in
  let tcp_engine = Sim.Engine.create () in
  let tcp_fabric = Fabric.create tcp_engine ~rate_bps:100e9 ~delay:20e-6 () in
  let registry = Tcpstack.Conn_registry.create () in
  let rng = Nkutil.Rng.create ~seed:1 in
  let host ~name ~ip =
    let nic = Nic.create tcp_engine ~name () in
    Fabric.attach tcp_fabric nic;
    Fabric.add_route tcp_fabric ip nic;
    let stack =
      St.create ~engine:tcp_engine ~name
        ~cores:(Sim.Cpu.Set.create tcp_engine ~name ~n:1 ())
        ~vswitch:(Vswitch.create tcp_engine ~nic ())
        ~registry ~rng:(Nkutil.Rng.split rng)
        (St.default_config Sim.Cost_profile.linux_kernel)
    in
    St.add_ip stack ip;
    stack
  in
  let cli = host ~name:"cli" ~ip:1 and srv = host ~name:"srv" ~ip:2 in
  let srv_addr = Addr.make 2 80 in
  (* Read [n] bytes, one recv at a time as readiness arrives, then [k]. *)
  let read_then stack s n k =
    let got = ref 0 and busy = ref false in
    let rec pull () =
      if (not !busy) && !got < n then begin
        busy := true;
        St.recv stack s ~max:(n - !got) ~mode:`Discard ~k:(fun r ->
            busy := false;
            match r with
            | Ok p when Tcpstack.Types.payload_len p > 0 ->
                got := !got + Tcpstack.Types.payload_len p;
                if !got = n then k () else pull ()
            | Ok _ | Error _ -> ())
      end
    in
    St.set_event_handler stack s (fun _ -> pull ());
    pull ()
  in
  let ls = St.socket srv in
  (match St.bind srv ls srv_addr with Ok () -> () | Error _ -> failwith "bind");
  (match St.listen srv ls ~backlog:64 with Ok () -> () | Error _ -> failwith "listen");
  let rec accept_loop () =
    St.accept srv ls ~k:(function
      | Error _ -> failwith "accept"
      | Ok s ->
          read_then srv s 64 (fun () ->
              St.send srv s (Tcpstack.Types.Zeros 64) ~k:(fun _ -> St.close srv s));
          accept_loop ())
  in
  accept_loop ();
  (* A sink on srv that reads whatever arrives, one recv at a time. *)
  let sink_addr = Addr.make 2 81 in
  let sink = St.socket srv in
  (match St.bind srv sink sink_addr with Ok () -> () | Error _ -> failwith "bind");
  (match St.listen srv sink ~backlog:8 with Ok () -> () | Error _ -> failwith "listen");
  let rec sink_accept stack l =
    St.accept stack l ~k:(function
      | Error _ -> failwith "accept"
      | Ok s ->
          let busy = ref false in
          let rec pull () =
            if not !busy then begin
              busy := true;
              St.recv stack s ~max:65536 ~mode:`Discard ~k:(fun r ->
                  busy := false;
                  match r with
                  | Ok p when Tcpstack.Types.payload_len p > 0 -> pull ()
                  | Ok _ | Error _ -> ())
            end
          in
          St.set_event_handler stack s (fun _ -> pull ());
          pull ();
          sink_accept stack l)
  in
  sink_accept srv sink;
  (* One MSS of data on an established connection: the segment into srv's
     stack, its ACK out and back into cli's. *)
  let stream = St.socket cli in
  St.connect cli stream sink_addr ~k:(function Ok () -> () | Error _ -> failwith "connect");
  Sim.Engine.run tcp_engine;
  let tcp_segment =
    Test.make ~name:"tcp segment: 1448 B in, ACK out"
      (Staged.stage (fun () ->
           St.send cli stream (Tcpstack.Types.Zeros 1448) ~k:(function
             | Ok 1448 -> ()
             | Ok _ | Error _ -> failwith "send");
           Sim.Engine.run tcp_engine))
  in
  (* ServiceLib's translation: one Send NQE pushed onto a kernel NSM's
     device, applied into its stack (a connection to srv's sink), the data
     sent and ACKed, and the Comp_send taken off the completion ring. *)
  let nsm_nic = Nic.create tcp_engine ~name:"nsm" () in
  Fabric.attach tcp_fabric nsm_nic;
  Fabric.add_route tcp_fabric 3 nsm_nic;
  let nsm_cores = Sim.Cpu.Set.create tcp_engine ~name:"nsm" ~n:1 () in
  let nsm_stack =
    St.create ~engine:tcp_engine ~name:"nsm" ~cores:nsm_cores
      ~vswitch:(Vswitch.create tcp_engine ~nic:nsm_nic ())
      ~registry ~rng:(Nkutil.Rng.split rng)
      (St.default_config Sim.Cost_profile.linux_kernel)
  in
  let nsm_dev = device ~id:3 Nkcore.Nk_device.Nsm_side in
  let service =
    Nkcore.Servicelib.create ~engine:tcp_engine ~device:nsm_dev
      ~ops:(Tcpstack.Tcp_ops.of_stack nsm_stack) ~cores:nsm_cores ~costs:Nkcore.Nk_costs.default
      ~pressure:(Sim.Pressure.create tcp_engine ()) ()
  in
  Nkcore.Servicelib.register_vm service ~vm_id:1
    ~hugepages:(Nkcore.Hugepages.create ~page_size:(2 * 1024 * 1024) ~pages:1 ())
    ~ips:[ 3 ];
  let nqe = Bytes.create Nqe.size_bytes in
  let apply op ~op_data ~size =
    Nqe.write nqe ~pos:0 ~op ~vm_id:1 ~qset:0 ~sock:1 ~op_data ~data_ptr:0 ~size
      ~synthetic:true ~span:0;
    if not (Nkcore.Nk_device.push nsm_dev ~qset:0 nqe 0) then failwith "nsm ring full";
    Nkcore.Nk_device.wake nsm_dev tcp_engine ~qset:0 ~delay:0.0;
    Sim.Engine.run tcp_engine
  in
  let completions = (Nkcore.Nk_device.qset nsm_dev 0).Nkcore.Queue_set.completion in
  let rec take_completions n = if Nkcore.Nqe_ring.pop completions nqe 0 then take_completions (n + 1) else n in
  apply Nqe.Socket ~op_data:0 ~size:0;
  apply Nqe.Connect ~op_data:(Nqe.pack_addr sink_addr) ~size:0;
  if take_completions 0 <> 2 then failwith "nsm socket not connected";
  let servicelib_send =
    Test.make ~name:"servicelib: Send NQE into a kernel stack"
      (Staged.stage (fun () ->
           apply Nqe.Send ~op_data:0 ~size:1448;
           if take_completions 0 <> 1 then failwith "send not completed"))
  in
  let conn_life =
    Test.make ~name:"tcp conn: 64 B each way + TIME_WAIT"
      (Staged.stage (fun () ->
           let s = St.socket cli in
           let answered = ref false in
           St.connect cli s srv_addr ~k:(function
             | Error _ -> failwith "connect"
             | Ok () ->
                 St.send cli s (Tcpstack.Types.Zeros 64) ~k:(fun _ -> ());
                 read_then cli s 64 (fun () ->
                     answered := true;
                     St.close cli s));
           Sim.Engine.run tcp_engine;
           if not !answered || St.time_wait_conns srv <> 0 then failwith "connection not done"))
  in
  (* One 1 KB HTTP response as the load generator reads it: head and body
     in one chunk, fed to a fresh parser. *)
  let http_response =
    Tcpstack.Types.Data
      (Nkapps.Http.response_header ~content_length:1024 () ^ String.make 1024 '\000')
  in
  let http_parse =
    Test.make ~name:"http parse: 1 KB response"
      (Staged.stage (fun () ->
           match Nkapps.Http.Parser.feed (Nkapps.Http.Parser.create ()) http_response with
           | [ _ ] -> ()
           | _ -> failwith "response not parsed"))
  in
  (* A 1 KB send through a socket buffer: written whole, read whole. *)
  let fifo = Nkutil.Byte_fifo.create () in
  let kb = String.make 1024 'x' in
  let fifo_write_read =
    Test.make ~name:"byte fifo: 1 KB write + read"
      (Staged.stage (fun () ->
           Nkutil.Byte_fifo.write fifo kb;
           if String.length (Nkutil.Byte_fifo.read fifo 1024) <> 1024 then
             failwith "short read"))
  in
  (* World set-up, the cost perfbench reports as setup_s: a testbed with
     one NetKernel host, one kernel NSM and eight idle 1-vCPU VMs. *)
  let world_setup =
    Test.make ~name:"world set-up: 1 NSM + 8 VMs"
      (Staged.stage (fun () ->
           let tb = Nkcore.Testbed.create () in
           let host = Nkcore.Testbed.add_host tb ~name:"host" in
           let nsm = Nkcore.Nsm.create_kernel host ~name:"nsm0" ~vcpus:1 () in
           for i = 1 to 8 do
             ignore
               (Nkcore.Vm.create_nk host ~name:(Printf.sprintf "vm%d" i) ~vcpus:1
                  ~ips:[ 10 + i ] ~nsms:[ nsm ] ())
           done))
  in
  (* One epoll_wait that finds eight sockets ready, and its wake: what an
     event loop pays per iteration. *)
  let ep_engine = Sim.Engine.create () in
  let ep_core = Sim.Cpu.create ep_engine ~name:"app" () in
  let ready = { Tcpstack.Types.readable = true; writable = false; hup = false } in
  let ep_tbl =
    Tcpstack.Epoll_core.create ~engine:ep_engine ~events_of:(fun _ -> ready)
      ~core_of:(fun _ -> ep_core) ~wake_cycles:100.0
  in
  let ep = Tcpstack.Epoll_core.epoll_create ep_tbl () in
  for fd = 3 to 10 do
    Tcpstack.Epoll_core.epoll_add ep_tbl ep fd
      ~mask:{ Tcpstack.Types.readable = true; writable = false; hup = true }
  done;
  let epoll_wait8 =
    Test.make ~name:"epoll wait: 8 ready sockets"
      (Staged.stage (fun () ->
           Tcpstack.Epoll_core.epoll_wait ep_tbl ep ~timeout:1.0 ~k:ignore;
           ignore (Sim.Engine.step ep_engine)))
  in
  (* A region with seven 64 B holes below the one a 1 KB extent fits in:
     the alloc walks all eight holes, the free merges the extent back. *)
  let hp8 = Nkcore.Hugepages.create ~page_size:4096 ~pages:4 () in
  Array.iteri
    (fun i e -> if i mod 2 = 0 then Nkcore.Hugepages.free hp8 e)
    (Array.init 15 (fun _ -> Option.get (Nkcore.Hugepages.alloc hp8 64)));
  let hugepage_holes =
    Test.make ~name:"hugepage alloc+free: 8 holes"
      (Staged.stage (fun () ->
           match Nkcore.Hugepages.alloc hp8 1000 with
           | None -> failwith "hugepages full"
           | Some e -> Nkcore.Hugepages.free hp8 e))
  in
  (* rpc-churn's TIME_WAIT population: 4,096 flows to one server, keyed
     the way the TCP stack and the vswitch key theirs, looked up with
     [find] for a flow the table holds and for one it does not. *)
  let module Pairs = Nkutil.Int_tbl.Pair in
  let server = Addr.make 10 80 in
  let flows =
    Array.init 4096 (fun i -> Addr.Flow.make ~src:(Addr.make 20 (32768 + i)) ~dst:server)
  in
  let flow_tbl = Pairs.create 256 in
  Array.iter
    (fun (f : Addr.Flow.t) -> Pairs.replace flow_tbl (Addr.key f.src) (Addr.key f.dst) f)
    flows;
  let lookup name (f : Addr.Flow.t) ~held =
    Test.make ~name
      (Staged.stage (fun () ->
           match Pairs.find flow_tbl (Addr.key f.src) (Addr.key f.dst) with
           | _ -> if not held then failwith name
           | exception Not_found -> if held then failwith name))
  in
  let flow_hit = lookup "flow table hit: 4,096 flows" flows.(1234) ~held:true in
  let flow_miss =
    lookup "flow table miss: 4,096 flows"
      (Addr.Flow.make ~src:(Addr.make 20 (32768 + 4096)) ~dst:server)
      ~held:false
  in
  let tests =
    Test.make_grouped ~name:"netkernel-primitives"
      [
        nqe_slot; nqe_ring_pushpop; ring_pushpop; hugepage_copy; heap_ops; ce_switch;
        serve_burst; cpu_exec; link_send; tcp_segment; servicelib_send; conn_life; http_parse;
        fifo_write_read; world_setup; epoll_wait8; hugepage_holes; flow_hit; flow_miss;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols (Measure.label Instance.monotonic_clock |> fun _ -> Instance.monotonic_clock) raw in
  print_endline "\n=== Bechamel microbenchmarks (ns/op, monotonic clock) ===";
  let rows =
    Nkutil.Det_tbl.fold ~cmp:String.compare
      (fun name result acc ->
        let est =
          match Bechamel.Analyze.OLS.estimates result with
          | Some (t :: _) -> Printf.sprintf "%10.1f ns/op" t
          | Some [] | None -> "(no estimate)"
        in
        (name, est) :: acc)
      analyzed []
    |> List.rev
  in
  List.iter (fun (name, est) -> Printf.printf "%-58s %s\n" name est) rows
