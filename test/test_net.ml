(* Network element tests: segments, links, fabric, vswitch, trace gen. *)

module E = Sim.Engine

let seg flow ~len =
  Segment.make ~flow ~seq:0 ~ack:0 ~syn:false ~ack_flag:false ~fin:false ~rst:false ~window:0
    ~len ~ts:0.0 ~ts_echo:(-1.0)

let flow a b = Addr.Flow.make ~src:(Addr.make a 1) ~dst:(Addr.make b 2)

let segment_framing () =
  let f = flow 1 2 in
  let one = seg f ~len:100 in
  Alcotest.(check int) "one packet" 1 (Segment.packets one);
  Alcotest.(check int) "wire bytes" (100 + Segment.header_bytes) (Segment.wire_bytes one);
  let big = seg f ~len:(4 * Segment.mss) in
  Alcotest.(check int) "segmented" 4 (Segment.packets big);
  let ack = seg f ~len:0 in
  Alcotest.(check int) "pure ack still one packet" 1 (Segment.packets ack);
  let s =
    Segment.make ~flow:f ~seq:10 ~ack:0 ~syn:true ~ack_flag:false ~fin:true ~rst:false
      ~window:0 ~len:5 ~ts:0.0 ~ts_echo:(-1.0)
  in
  Alcotest.(check int) "seq space covers syn+data+fin" 17 (Segment.seq_end s)

let link_serialization () =
  let e = E.create () in
  (* 1 Mbps so timings are easy: 1250 bytes ~ 10 ms *)
  let link = Link.create e ~rate_bps:1e6 ~delay:0.005 () in
  let arrivals = ref [] in
  Link.set_receiver link (fun _ -> arrivals := E.now e :: !arrivals);
  let f = flow 1 2 in
  let payload = 1250 - Segment.header_bytes in
  ignore (Link.send link (seg f ~len:payload));
  ignore (Link.send link (seg f ~len:payload));
  E.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      if Float.abs (t1 -. 0.015) > 1e-6 then Alcotest.failf "first at %f" t1;
      if Float.abs (t2 -. 0.025) > 1e-6 then Alcotest.failf "second serialized at %f" t2
  | _ -> Alcotest.fail "expected two arrivals"

let link_drop_tail () =
  let e = E.create () in
  let link = Link.create e ~rate_bps:1e6 ~delay:0.0 ~buffer_bytes:3000 () in
  Link.set_receiver link (fun _ -> ());
  let f = flow 1 2 in
  let ok1 = Link.send link (seg f ~len:1200) in
  let ok2 = Link.send link (seg f ~len:1200) in
  let ok3 = Link.send link (seg f ~len:1200) in
  Alcotest.(check (list bool)) "third tail-dropped" [ true; true; false ] [ ok1; ok2; ok3 ];
  Alcotest.(check int) "drop counted" 1 (Link.drops link)

let fabric_routing () =
  let e = E.create () in
  let fabric = Fabric.create e ~rate_bps:1e9 ~delay:1e-3 () in
  let nic_a = Nic.create e ~name:"a" () in
  let nic_b = Nic.create e ~name:"b" () in
  Fabric.attach fabric nic_a;
  Fabric.attach fabric nic_b;
  Fabric.add_route fabric 1 nic_a;
  Fabric.add_route fabric 2 nic_b;
  let got_b = ref 0 and got_a = ref 0 in
  Nic.set_rx_handler nic_b (fun _ -> incr got_b);
  Nic.set_rx_handler nic_a (fun _ -> incr got_a);
  ignore (Nic.transmit nic_a (seg (flow 1 2) ~len:100));
  ignore (Nic.transmit nic_b (seg (flow 2 1) ~len:100));
  ignore (Nic.transmit nic_a (seg (flow 1 99) ~len:100));
  E.run e;
  Alcotest.(check int) "b received" 1 !got_b;
  Alcotest.(check int) "a received" 1 !got_a;
  Alcotest.(check int) "unrouted dropped" 1 (Fabric.unrouted fabric)

let vswitch_demux () =
  let e = E.create () in
  let nic = Nic.create e ~name:"n" () in
  let vs = Vswitch.create e ~nic () in
  let got_ip = ref 0 and got_ep = ref 0 in
  Vswitch.register_ip vs 5 (fun _ -> incr got_ip);
  Vswitch.register_endpoint vs (Addr.make 5 80) (fun _ -> incr got_ep);
  Vswitch.input vs (seg (flow 1 5) ~len:0);
  (* endpoint table wins over the ip table *)
  Vswitch.input vs
    (Segment.make ~flow:(Addr.Flow.make ~src:(Addr.make 1 9) ~dst:(Addr.make 5 80)) ~seq:0
       ~ack:0 ~syn:false ~ack_flag:false ~fin:false ~rst:false ~window:0 ~len:0 ~ts:0.0
       ~ts_echo:(-1.0));
  Vswitch.input vs (seg (flow 1 7) ~len:0);
  Alcotest.(check int) "ip route" 1 !got_ip;
  Alcotest.(check int) "endpoint route" 1 !got_ep;
  Alcotest.(check int) "unclaimed counted" 1 (Vswitch.unclaimed vs)

let vswitch_local_shortcut () =
  let e = E.create () in
  let nic = Nic.create e ~name:"n" () in
  let vs = Vswitch.create e ~nic () in
  let got = ref 0 in
  Vswitch.register_ip vs 5 (fun _ -> incr got);
  Vswitch.output vs (seg (flow 1 5) ~len:100);
  E.run e;
  Alcotest.(check int) "delivered locally" 1 !got;
  Alcotest.(check int) "never touched the pNIC" 0 (Nic.bytes_tx nic)

(* ---- trace generator ------------------------------------------------------ *)

let trace_determinism () =
  let a = Nktrace.Traffic.generate_fleet ~seed:5 ~n:4 () in
  let b = Nktrace.Traffic.generate_fleet ~seed:5 ~n:4 () in
  List.iter2
    (fun (x : Nktrace.Traffic.t) (y : Nktrace.Traffic.t) ->
      Alcotest.(check bool) "same series" true (x.Nktrace.Traffic.rates = y.Nktrace.Traffic.rates))
    a b

let trace_burstiness () =
  let fleet = Nktrace.Traffic.generate_fleet ~seed:2018 ~n:32 () in
  List.iter
    (fun (t : Nktrace.Traffic.t) ->
      if Nktrace.Traffic.peak_to_mean t < 1.5 then
        Alcotest.failf "AG %d not bursty enough: %.2f" t.Nktrace.Traffic.ag_id
          (Nktrace.Traffic.peak_to_mean t);
      Array.iter (fun r -> if r < 0.0 then Alcotest.fail "negative rate") t.Nktrace.Traffic.rates)
    fleet

let trace_interpolation () =
  let t =
    { Nktrace.Traffic.ag_id = 0; rates = [| 60.0; 120.0 |]; peak = 120.0; mean = 90.0 }
  in
  if Float.abs (Nktrace.Traffic.rate_at t 0.0 -. 60.0) > 1e-9 then Alcotest.fail "t=0";
  if Float.abs (Nktrace.Traffic.rate_at t 30.0 -. 90.0) > 1e-9 then Alcotest.fail "mid";
  if Float.abs (Nktrace.Traffic.rate_at t 600.0 -. 120.0) > 1e-9 then Alcotest.fail "clamp"

let agpack_arithmetic () =
  let fleet = Nktrace.Traffic.generate_fleet ~seed:1 ~n:29 () in
  let r =
    Nktrace.Agpack.pack ~traces:fleet ~machine_cores:32 ~baseline_cores_per_ag:2
      ~nsm_cores:2 ~ce_cores:1 ~nsm_capacity_rps_per_core:1e12
  in
  Alcotest.(check int) "baseline 16" 16 r.Nktrace.Agpack.baseline_ags;
  Alcotest.(check int) "netkernel 29" 29 r.Nktrace.Agpack.netkernel_ags;
  if r.Nktrace.Agpack.nsm_worst_utilization > 1e-3 then
    Alcotest.fail "infinite capacity -> ~0 utilization";
  if Float.abs (r.Nktrace.Agpack.core_saving_fraction -. (1.0 -. (16.0 /. 29.0))) > 1e-9
  then Alcotest.fail "saving fraction"

let tests =
  [
    Alcotest.test_case "segment framing" `Quick segment_framing;
    Alcotest.test_case "link serialization" `Quick link_serialization;
    Alcotest.test_case "link drop tail" `Quick link_drop_tail;
    Alcotest.test_case "fabric routing" `Quick fabric_routing;
    Alcotest.test_case "vswitch demux" `Quick vswitch_demux;
    Alcotest.test_case "vswitch local shortcut" `Quick vswitch_local_shortcut;
    Alcotest.test_case "trace determinism" `Quick trace_determinism;
    Alcotest.test_case "trace burstiness" `Quick trace_burstiness;
    Alcotest.test_case "trace interpolation" `Quick trace_interpolation;
    Alcotest.test_case "agpack arithmetic" `Quick agpack_arithmetic;
  ]
