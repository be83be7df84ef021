(* Nkfabric: cluster placement, live cross-host NSM migration with a
   persistent connection riding through it, listener handover to the
   destination host, and the relay unwind when an NSM migrates back home. *)

open Nkcore
module Types = Tcpstack.Types
module E = Sim.Engine

let mk_cluster ?policy ?(config = { Testbed.Config.default with seed = 11 }) () =
  let tb = Testbed.create ~config () in
  let cluster = Nkfabric.create ?policy tb in
  let nodea = Nkfabric.add_node cluster ~name:"nodeA" in
  let nodeb = Nkfabric.add_node cluster ~name:"nodeB" in
  let nsma = Nsm.create_kernel (Nkfabric.node_host nodea) ~name:"nsmA" ~vcpus:1 () in
  let nsmb = Nsm.create_kernel (Nkfabric.node_host nodeb) ~name:"nsmB" ~vcpus:1 () in
  Nkfabric.add_nsm cluster nodea nsma;
  Nkfabric.add_nsm cluster nodeb nsmb;
  (tb, cluster, nodea, nodeb, nsma, nsmb)

let place cluster i =
  Nkfabric.place_vm cluster ~name:(Printf.sprintf "srv%d" i) ~vcpus:1 ~ips:[ 10 + i ] ()

(* Spread alternates the two equally-idle nodes; Pack keeps piling onto the
   most-loaded one. *)
let placement_policies () =
  let _tb, cluster, nodea, nodeb, _, _ = mk_cluster ~policy:Nkfabric.Spread () in
  let vms = List.init 4 (place cluster) in
  Alcotest.(check int) "spread: nodeA serves 2" 2 (Nkfabric.node_vm_count cluster nodea);
  Alcotest.(check int) "spread: nodeB serves 2" 2 (Nkfabric.node_vm_count cluster nodeb);
  List.iteri
    (fun i vm ->
      let expect = if i mod 2 = 0 then nodea else nodeb in
      match Nkfabric.vm_node cluster vm with
      | Some n ->
          Alcotest.(check int)
            (Printf.sprintf "srv%d node" i)
            (Nkfabric.node_index expect) (Nkfabric.node_index n)
      | None -> Alcotest.failf "srv%d has no node" i)
    vms;
  let _tb, cluster, nodea, nodeb, _, _ = mk_cluster ~policy:Nkfabric.Pack () in
  let _vms = List.init 3 (place cluster) in
  Alcotest.(check int) "pack: nodeA serves 3" 3 (Nkfabric.node_vm_count cluster nodea);
  Alcotest.(check int) "pack: nodeB serves 0" 0 (Nkfabric.node_vm_count cluster nodeb)

(* One persistent key-value connection pumping set/get round-trips with
   verified payloads; every kv error is a test failure, so "zero errors,
   zero loss" is checked op by op rather than by a summary counter. *)
let start_pump tb client addr ~ops =
  let value i = Printf.sprintf "value-%d-%s" i (String.make 32 'x') in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
           ~k:(fun r ->
             match r with
             | Error e -> Alcotest.failf "pump connect: %s" (Types.err_to_string e)
             | Ok conn ->
                 let rec pump i =
                   Nkapps.Kvstore.Client.set conn ~key:"k" ~value:(value i) ~k:(fun r ->
                       match r with
                       | Error e -> Alcotest.failf "set %d: %s" i e
                       | Ok () ->
                           Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                               match r with
                               | Ok (Some v) when v = value i ->
                                   ops := !ops + 1;
                                   pump (i + 1)
                               | Ok (Some _) -> Alcotest.failf "get %d: wrong value" i
                               | Ok None -> Alcotest.failf "get %d: miss" i
                               | Error e -> Alcotest.failf "get %d: %s" i e))
                 in
                 pump 0)))

let migration_live_connection () =
  let tb, cluster, _nodea, nodeb, nsma, _nsmb = mk_cluster () in
  let vm = place cluster 0 in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"client" ~vcpus:2 ~ips:[ 100 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let addr = Addr.make 10 6379 in
  (match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv: %s" (Types.err_to_string e));
  let ops = ref 0 in
  start_pump tb client addr ~ops;
  let ops_at_cut = ref 0 in
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.2 (fun () ->
         ignore (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ());
         ops_at_cut := !ops));
  (* Listener handover: a fresh connection well after the cut must land on
     the destination host's replayed listener and round-trip. *)
  let fresh_ok = ref false in
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.5 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
           ~k:(fun r ->
             match r with
             | Error e -> Alcotest.failf "fresh connect: %s" (Types.err_to_string e)
             | Ok conn ->
                 Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                     match r with
                     | Ok (Some _) ->
                         fresh_ok := true;
                         Nkapps.Kvstore.Client.close conn
                     | Ok None -> Alcotest.fail "fresh get: miss"
                     | Error e -> Alcotest.failf "fresh get: %s" e))));
  Testbed.run tb ~until:1.0;
  if !ops_at_cut = 0 then Alcotest.fail "no ops before the migration";
  if !ops <= !ops_at_cut then Alcotest.fail "connection did not survive the migration";
  if not !fresh_ok then Alcotest.fail "no fresh connection after the cut";
  (match Nkfabric.vm_node cluster vm with
  | Some n ->
      Alcotest.(check int) "vm served by nodeB" (Nkfabric.node_index nodeb)
        (Nkfabric.node_index n)
  | None -> Alcotest.fail "vm has no node");
  let s = Nkfabric.stats cluster in
  Alcotest.(check int) "one migration" 1 s.Nkfabric.migrations;
  Alcotest.(check int) "one VM relayed" 1 s.Nkfabric.vms_relayed;
  if s.Nkfabric.nqes_shipped = 0 then Alcotest.fail "no NQEs crossed the spine"

let remigration_home_unwind () =
  let tb, cluster, nodea, nodeb, nsma, _nsmb = mk_cluster () in
  let vm = place cluster 0 in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"client" ~vcpus:2 ~ips:[ 100 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let addr = Addr.make 10 6379 in
  (match Nkapps.Kvstore.start ~engine:tb.Testbed.engine ~api:(Vm.api vm) ~addr with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv: %s" (Types.err_to_string e));
  let ops = ref 0 in
  start_pump tb client addr ~ops;
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.2 (fun () ->
         let dest = Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb () in
         ignore
           (E.schedule tb.Testbed.engine ~delay:0.3 (fun () ->
                ignore (Nkfabric.migrate_nsm cluster ~nsm:dest ~dst:nodea ())))));
  (* After the homecoming the datapath must be local again: the spine byte
     counters freeze once in-flight stragglers land. *)
  let spine_mid = ref (-1) in
  let ops_mid = ref 0 in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1.0 (fun () ->
         spine_mid := (Nkfabric.stats cluster).Nkfabric.nqes_shipped;
         ops_mid := !ops));
  (* A fresh connection after the homecoming lands on the home listener. *)
  let fresh_ok = ref false in
  ignore
    (E.schedule tb.Testbed.engine ~delay:1.1 (fun () ->
         Nkapps.Kvstore.Client.connect ~engine:tb.Testbed.engine ~api:(Vm.api client) addr
           ~k:(fun r ->
             match r with
             | Error e -> Alcotest.failf "fresh connect: %s" (Types.err_to_string e)
             | Ok conn ->
                 Nkapps.Kvstore.Client.get conn ~key:"k" ~k:(fun r ->
                     match r with
                     | Ok (Some _) ->
                         fresh_ok := true;
                         Nkapps.Kvstore.Client.close conn
                     | Ok None -> Alcotest.fail "fresh get: miss"
                     | Error e -> Alcotest.failf "fresh get: %s" e))));
  Testbed.run tb ~until:1.5;
  if !ops <= !ops_mid || !ops_mid = 0 then
    Alcotest.fail "connection did not keep serving after the homecoming";
  if not !fresh_ok then Alcotest.fail "no fresh connection after the homecoming";
  (match Nkfabric.vm_node cluster vm with
  | Some n ->
      Alcotest.(check int) "vm served by nodeA again" (Nkfabric.node_index nodea)
        (Nkfabric.node_index n)
  | None -> Alcotest.fail "vm has no node");
  let s = Nkfabric.stats cluster in
  Alcotest.(check int) "two migrations" 2 s.Nkfabric.migrations;
  Alcotest.(check int) "no VM relayed after homecoming" 0 s.Nkfabric.vms_relayed;
  Alcotest.(check int) "spine quiet after homecoming" !spine_mid s.Nkfabric.nqes_shipped;
  if !spine_mid <= 0 then Alcotest.fail "no NQEs ever crossed the spine"

(* Control events have a log of their own: neither a dataplane flood
   through a 64-entry ring nor tracing switched off loses one. Two VMs under
   closed-loop load, nsmA migrated at 50 ms. *)
let control_events_kept ~tracing () =
  let tb, cluster, _nodea, nodeb, nsma, _nsmb =
    mk_cluster
      ~config:
        { Testbed.Config.default with
          seed = 11;
          trace_enabled = tracing;
          trace_capacity = Some 64
        }
      ()
  in
  let vms = List.init 2 (place cluster) in
  let clients_host = Testbed.add_host tb ~name:"clients" in
  let client =
    Vm.create_baseline clients_host ~name:"client" ~vcpus:2 ~ips:[ 100 ]
      ~profile:Sim.Cost_profile.ideal ()
  in
  let proto = Nkapps.Proto.Fixed { request = 64; response = 256; keepalive = false } in
  List.iteri
    (fun i vm ->
      let addr = Addr.make (10 + i) 80 in
      (match
         Nkapps.Epoll_server.start ~engine:tb.Testbed.engine ~api:(Vm.api vm)
           (Nkapps.Epoll_server.config ~proto addr)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "server: %s" (Types.err_to_string e));
      ignore
        (E.schedule tb.Testbed.engine ~delay:1e-3 (fun () ->
             ignore
               (Nkapps.Loadgen.start ~engine:tb.Testbed.engine ~api:(Vm.api client)
                  {
                    Nkapps.Loadgen.server = addr;
                    proto;
                    mode =
                      Nkapps.Loadgen.Closed
                        { concurrency = 4; total = None; duration = Some 0.12 };
                    warmup = 0.0;
                  }))))
    vms;
  ignore
    (E.schedule tb.Testbed.engine ~delay:0.05 (fun () ->
         ignore (Nkfabric.migrate_nsm cluster ~nsm:nsma ~dst:nodeb ())));
  Testbed.run tb ~until:0.15;
  let mon = tb.Testbed.mon in
  let fabric =
    List.filter_map
      (fun (r : Nkmon.Trace.record) ->
        match r.Nkmon.Trace.event with
        | Nkmon.Trace.Custom { component = "nkfabric"; name; _ } -> Some name
        | _ -> None)
      (Nkmon.Trace.records (Nkmon.trace mon))
  in
  Alcotest.(check (list string))
    "every fabric event, in order"
    [ "place"; "place"; "quiesce"; "migrate" ]
    fabric;
  if tracing then
    Alcotest.(check bool) "the dataplane wrapped the ring" true
      (Nkmon.dropped_events mon > 0)

let tests =
  [
    Alcotest.test_case "placement: spread and pack" `Quick placement_policies;
    Alcotest.test_case "live migration keeps the connection" `Quick migration_live_connection;
    Alcotest.test_case "re-migration home unwinds the relay" `Quick remigration_home_unwind;
    Alcotest.test_case "control events survive a flooded ring" `Quick
      (control_events_kept ~tracing:true);
    Alcotest.test_case "control events need no tracing" `Quick
      (control_events_kept ~tracing:false);
  ]
