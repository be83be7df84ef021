(* Unit/property tests for TCP building blocks: sequence arithmetic,
   reassembly, RTT estimation, congestion controllers. *)

open Tcpstack

(* ---- sequence arithmetic ---------------------------------------------- *)

let seq_wraparound () =
  let near_top = Tcp_seq.modulus - 10 in
  let wrapped = Tcp_seq.add near_top 20 in
  Alcotest.(check int) "wraps" 10 wrapped;
  Alcotest.(check bool) "near_top < wrapped" true (Tcp_seq.lt near_top wrapped);
  Alcotest.(check int) "signed diff across wrap" 20 (Tcp_seq.diff wrapped near_top);
  Alcotest.(check int) "negative diff" (-20) (Tcp_seq.diff near_top wrapped)

let seq_qcheck_roundtrip =
  QCheck.Test.make ~name:"seq add/diff roundtrip" ~count:500
    QCheck.(pair (int_bound (Tcp_seq.modulus - 1)) (int_range (-1000000) 1000000))
    (fun (a, n) -> Tcp_seq.diff (Tcp_seq.add a n) a = n)

let seq_qcheck_order =
  QCheck.Test.make ~name:"seq ordering antisymmetry" ~count:500
    QCheck.(pair (int_bound (Tcp_seq.modulus - 1)) (int_bound ((1 lsl 30) - 1)))
    (fun (a, d) ->
      let d = d + 1 in
      let b = Tcp_seq.add a d in
      Tcp_seq.lt a b && Tcp_seq.gt b a && Tcp_seq.between ~low:a ~x:a ~high:b)

(* ---- reassembly --------------------------------------------------------- *)

let reasm_in_order () =
  let r = Reassembly.create ~next:1000 () in
  let o1 = Reassembly.offer r ~seq:1000 ~len:100 ~fin:false in
  Alcotest.(check int) "released" 100 o1.Reassembly.released;
  Alcotest.(check int) "next" 1100 (Reassembly.next r)

let reasm_out_of_order () =
  let r = Reassembly.create ~next:0 () in
  let o1 = Reassembly.offer r ~seq:100 ~len:50 ~fin:false in
  Alcotest.(check int) "hole: nothing released" 0 o1.Reassembly.released;
  Alcotest.(check int) "ooo buffered" 50 (Reassembly.ooo_bytes r);
  let o2 = Reassembly.offer r ~seq:0 ~len:100 ~fin:false in
  Alcotest.(check int) "gap filled releases both" 150 o2.Reassembly.released;
  Alcotest.(check int) "no ooo left" 0 (Reassembly.ooo_bytes r)

let reasm_duplicates () =
  let r = Reassembly.create ~next:0 () in
  ignore (Reassembly.offer r ~seq:0 ~len:100 ~fin:false);
  let dup = Reassembly.offer r ~seq:0 ~len:100 ~fin:false in
  Alcotest.(check int) "full dup" 100 dup.Reassembly.duplicate;
  Alcotest.(check int) "nothing new" 0 dup.Reassembly.released;
  let partial = Reassembly.offer r ~seq:50 ~len:100 ~fin:false in
  Alcotest.(check int) "overlap counted" 50 partial.Reassembly.duplicate;
  Alcotest.(check int) "new tail released" 50 partial.Reassembly.released

let reasm_fin () =
  let r = Reassembly.create ~next:0 () in
  (* FIN arrives out of order, ahead of its data *)
  let o1 = Reassembly.offer r ~seq:100 ~len:20 ~fin:true in
  Alcotest.(check bool) "fin not yet in order" false o1.Reassembly.fin_reached;
  let o2 = Reassembly.offer r ~seq:0 ~len:100 ~fin:false in
  Alcotest.(check bool) "fin reached when contiguous" true o2.Reassembly.fin_reached;
  (* FIN consumes one sequence number *)
  Alcotest.(check int) "next covers fin" 121 (Reassembly.next r)

let reasm_wrap () =
  let start = Tcp_seq.modulus - 50 in
  let r = Reassembly.create ~next:start () in
  let o1 = Reassembly.offer r ~seq:start ~len:100 ~fin:false in
  Alcotest.(check int) "release across wrap" 100 o1.Reassembly.released;
  Alcotest.(check int) "wrapped next" 50 (Reassembly.next r)

let reasm_qcheck =
  QCheck.Test.make ~name:"random permutation reassembles exactly once" ~count:200
    QCheck.(pair small_nat (int_bound 10000))
    (fun (nseg, seed) ->
      let nseg = 1 + (nseg mod 30) in
      let rng = Nkutil.Rng.create ~seed in
      let seg_len = 100 in
      let order = Array.init nseg (fun i -> i) in
      Nkutil.Rng.shuffle rng order;
      let start = Nkutil.Rng.int rng Tcp_seq.modulus in
      let r = Reassembly.create ~next:start () in
      let released = ref 0 and dups = ref 0 in
      Array.iter
        (fun i ->
          let o =
            Reassembly.offer r ~seq:(Tcp_seq.add start (i * seg_len)) ~len:seg_len
              ~fin:false
          in
          released := !released + o.Reassembly.released;
          dups := !dups + o.Reassembly.duplicate)
        order;
      (* replay a random segment: counted fully duplicate *)
      let i = Nkutil.Rng.int rng nseg in
      let o =
        Reassembly.offer r ~seq:(Tcp_seq.add start (i * seg_len)) ~len:seg_len ~fin:false
      in
      !released = nseg * seg_len
      && !dups = 0
      && o.Reassembly.duplicate = seg_len
      && Reassembly.ooo_bytes r = 0)

(* ---- rtt estimator -------------------------------------------------------- *)

let rtt_basics () =
  let r = Rtt_estimator.create () in
  Alcotest.(check bool) "initial rto 1s" true (Rtt_estimator.rto r = 1.0);
  Rtt_estimator.sample r 0.1;
  if Float.abs (Rtt_estimator.srtt r -. 0.1) > 1e-9 then Alcotest.fail "first srtt";
  for _ = 1 to 50 do
    Rtt_estimator.sample r 0.1
  done;
  (* converged: rto clamps at min_rto since srtt+4var ~ 0.1 *)
  if Rtt_estimator.rto r < 0.1 then Alcotest.fail "rto below srtt";
  Rtt_estimator.sample r (-5.0);
  if Float.abs (Rtt_estimator.srtt r -. 0.1) > 0.01 then
    Alcotest.fail "negative samples ignored"

let rtt_spike_raises_rto () =
  let r = Rtt_estimator.create () in
  for _ = 1 to 20 do
    Rtt_estimator.sample r 0.05
  done;
  let before = Rtt_estimator.rto r in
  Rtt_estimator.sample r 1.0;
  if Rtt_estimator.rto r <= before then Alcotest.fail "variance must raise RTO"

(* ---- congestion control ---------------------------------------------------- *)

let mss = Segment.mss

let cubic_slow_start_and_loss () =
  let cc = Cc_cubic.create ~mss () in
  Alcotest.(check int) "IW10" (10 * mss) (cc.Cc.cwnd ());
  cc.Cc.on_ack ~acked:(5 * mss) ~rtt:0.001 ~now:0.0;
  (* ABC (RFC 3465, L=2): growth per ACK is capped at 2*SMSS *)
  Alcotest.(check int) "slow start grows by min(acked, 2*mss)" (12 * mss) (cc.Cc.cwnd ());
  cc.Cc.on_loss ~now:0.1;
  Alcotest.(check bool) "cut by beta" true
    (float_of_int (cc.Cc.cwnd ()) <= (0.7 *. float_of_int (12 * mss)) +. float_of_int mss);
  let after_loss = cc.Cc.cwnd () in
  cc.Cc.on_timeout ~now:0.2;
  Alcotest.(check bool) "timeout collapses below loss window" true
    (cc.Cc.cwnd () < after_loss);
  Alcotest.(check bool) "never below 1 mss" true (cc.Cc.cwnd () >= mss)

let cubic_grows_and_reduces () =
  let cc = Cc_cubic.create ~mss () in
  (* force out of slow start *)
  cc.Cc.on_loss ~now:0.0;
  let w0 = cc.Cc.cwnd () in
  for i = 1 to 200 do
    cc.Cc.on_ack ~acked:mss ~rtt:0.001 ~now:(0.001 *. float_of_int i)
  done;
  let w1 = cc.Cc.cwnd () in
  Alcotest.(check bool) "cubic grows in CA" true (w1 > w0);
  cc.Cc.on_loss ~now:0.3;
  let w2 = cc.Cc.cwnd () in
  Alcotest.(check bool) "beta reduction ~0.7" true
    (w2 < w1 && float_of_int w2 > (0.6 *. float_of_int w1) -. float_of_int mss)

let vmcc_shares_window () =
  let g = Cc_vm.create_group ~mss () in
  let f1 = Cc_vm.factory g () in
  let f2 = Cc_vm.factory g () in
  Alcotest.(check int) "two active flows" 2 (Cc_vm.active_flows g);
  let shared = Cc_vm.shared_cwnd g in
  Alcotest.(check int) "each gets 1/n" (shared / 2) (f1.Cc.cwnd ());
  (* more flows do not increase the aggregate *)
  let f3 = Cc_vm.factory g () in
  Alcotest.(check int) "aggregate unchanged" shared (Cc_vm.shared_cwnd g);
  Alcotest.(check int) "per-flow share shrinks" (shared / 3) (f3.Cc.cwnd ());
  f3.Cc.release ();
  Alcotest.(check int) "release restores" (shared / 2) (f2.Cc.cwnd ());
  f1.Cc.release ();
  f1.Cc.release ();
  (* double release must not underflow *)
  Alcotest.(check int) "single flow left" 1 (Cc_vm.active_flows g)

let tests =
  [
    Alcotest.test_case "seq wraparound" `Quick seq_wraparound;
    QCheck_alcotest.to_alcotest seq_qcheck_roundtrip;
    QCheck_alcotest.to_alcotest seq_qcheck_order;
    Alcotest.test_case "reassembly in order" `Quick reasm_in_order;
    Alcotest.test_case "reassembly out of order" `Quick reasm_out_of_order;
    Alcotest.test_case "reassembly duplicates" `Quick reasm_duplicates;
    Alcotest.test_case "reassembly FIN" `Quick reasm_fin;
    Alcotest.test_case "reassembly across wrap" `Quick reasm_wrap;
    QCheck_alcotest.to_alcotest reasm_qcheck;
    Alcotest.test_case "rtt basics" `Quick rtt_basics;
    Alcotest.test_case "rtt spike raises rto" `Quick rtt_spike_raises_rto;
    Alcotest.test_case "cubic slow start + loss" `Quick cubic_slow_start_and_loss;
    Alcotest.test_case "cubic grow/reduce" `Quick cubic_grows_and_reduces;
    Alcotest.test_case "vm-cc shared window" `Quick vmcc_shares_window;
  ]
