(* NetKernel benchmark: one workload per process (README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   [--trace 0] prints the end-to-end metrics of an untraced run;
   [--trace 1] prints the per-layer metrics of a traced run, plus an
   untraced run of the same world for the host-time scale and the tracing
   overhead. The last line of standard output is one JSON object. *)

module W = Workloads
module H = Harness
module M = Metrics

type config = { workload : W.spec; seed : int; seconds : float }

let duration c = c.seconds *. c.workload.W.vs_per_run_s

let build c ~span_every = c.workload.W.build { W.seed = c.seed; span_every; duration = duration c }

(* ---- --trace 0 --------------------------------------------------------- *)

(* Set-up (build the world, start servers, schedule the load generators)
   is timed [setups] times, spread by spinning over the first
   [setup_share] of the run's host seconds; the last set-up builds the
   measured world. Each is followed by a reference kernel, and setup_s is
   the median normalized set-up time (README.md, "Host noise"). *)
let setups = 21

let setup_share = 0.1

(* The measured drive is then paced over [pace_share] of the run's host
   seconds; the rest covers the drain. *)
let pace_share = 0.8

(* The world and its normalized set-up time in seconds. *)
let timed_build c =
  let t0 = H.now_ns () in
  let w = build c ~span_every:0 in
  let ns = float_of_int (H.now_ns () - t0) in
  (w, H.normalize ns (H.reference ()) *. 1e-9)

let end_to_end c =
  let start = H.now_ns () in
  let gap = c.seconds *. setup_share *. 1e9 /. float_of_int setups in
  let times = Array.make setups 0.0 in
  let nth_build i =
    H.spin_until (start + int_of_float (float_of_int i *. gap));
    let w, s = timed_build c in
    times.(i) <- s;
    w
  in
  for i = 0 to setups - 2 do
    ignore (nth_build i)
  done;
  let w = nth_build (setups - 1) in
  let pace =
    { H.spread_ns = int_of_float (c.seconds *. pace_share *. 1e9); virtual_end = duration c }
  in
  let d = H.drive w ~pace in
  let o = w.W.outcome () in
  let heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0 in
  let ns = H.est_ns_per_event d in
  let q p = H.quantile p (Array.copy d.H.windows) in
  let setup_times = Array.copy times in
  let setup_s = H.quantile 0.5 setup_times in
  Printf.printf
    "# %s seed %d: %.0f ops, %d engine events, %d latency samples, %.4f s virtual\n\
     # host: %.3f s driving within %.3f s paced; %d windows of %d events, normalized \
     ns/event p10 %.1f p50 %.1f p90 %.1f\n\
     # %d set-ups, normalized: min %.5f p50 %.5f max %.5f s\n"
    c.workload.W.name c.seed o.W.ops d.H.events (Array.length o.W.latency)
    (Sim.Engine.now w.W.tb.Nkcore.Testbed.engine)
    (float_of_int d.H.busy_ns *. 1e-9) (float_of_int d.H.wall_ns *. 1e-9)
    (Array.length d.H.windows) H.window_events (q 0.1) (q 0.5) (q 0.9)
    (Array.length setup_times) setup_times.(0) setup_s
    setup_times.(Array.length setup_times - 1);
  let host =
    [
      M.m "host_ops_per_s" "1/s" (o.W.ops /. (ns *. float_of_int d.H.events *. 1e-9));
      M.m "alloc_words_per_op" "words" (M.per d.H.words o.W.ops);
      M.m "peak_heap_mb" "MB" heap_mb;
      M.m "setup_s" "s" setup_s;
    ]
  in
  M.report ~problems:(M.problems o) ~o (host @ M.sim ~server_cycles:(H.server_cycles w) o)

(* ---- --trace 1 --------------------------------------------------------- *)

(* Sampled spans: enough for stable stage means, few enough to stay under
   Nkspan's retention cap on the longest run. *)
let span_every = 32

let untraced c =
  let w = build c ~span_every:0 in
  let d = H.drive w in
  (d, (w.W.outcome ()).W.ops)

let rel_diff a b =
  Float.abs (a -. b) /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

let per_layer c =
  let d, ops_untraced = untraced c in
  let w = build c ~span_every in
  let t = H.step_traced w in
  let o = w.W.outcome () in
  let ops = o.W.ops in
  let untraced_ns = H.est_ns_per_event d in
  let traced_ns =
    H.ns_per_event ~windows:t.H.t_windows ~busy_ns:t.H.t_busy_ns ~events:t.H.t_events
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let idx name =
    let rec go i = if H.layers.(i) = name then i else go (i + 1) in
    go 0
  in
  (* A layer's host ns/op is its share of the traced run's host time,
     scaled to the untraced estimate, so the layers add up to
     1e9 / host_ops_per_s of the same world. *)
  let host_ns_per_op = untraced_ns *. float_of_int d.H.events /. ops_untraced in
  let share name = t.H.layer_ns.(idx name) /. sum t.H.layer_ns in
  let host name = M.m (name ^ ".host_ns_per_op") "ns" (share name *. host_ns_per_op) in
  let words name = M.m (name ^ ".words_per_op") "words" (M.per t.H.layer_words.(idx name) ops) in
  let st = H.stages w in
  let us stage = H.stage_mean st stage *. 1e6 in
  let nsms = w.W.nsms () in
  let homa = List.exists (fun n -> Nkcore.Nsm.proto n = "homa") nsms in
  let count xs f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs) in
  let tcp = count (List.concat_map Nkcore.Nsm.stack_stats nsms) in
  let servicelib = count (List.filter_map Nkcore.Nsm.servicelib_stats nsms) in
  let guestlib =
    count
      (List.filter_map
         (fun vm -> Option.map Nkcore.Guestlib.stats (Nkcore.Vm.guestlib vm))
         w.W.server_vms)
  in
  let ce =
    count (List.map (fun h -> Nkcore.Coreengine.stats (Nkcore.Host.coreengine h)) w.W.nk_hosts)
  in
  let reg component metric = float_of_int (H.counter w ~component ~metric) in
  let cyc owner = H.busy w owner in
  let stack_us = us "stack" in
  let module S = Tcpstack.Stack in
  let module CE = Nkcore.Coreengine in
  let module G = Nkcore.Guestlib in
  let module SL = Nkcore.Servicelib in
  let m = M.m and per = M.per in
  let metrics =
    [
      m "sim.events_per_op" "events" (per (float_of_int t.H.t_events) ops);
      m "sim.host_ns_per_event" "ns" untraced_ns;
      m "sim.pending_peak" "events" (float_of_int d.H.pending_peak);
      host "vm";
      words "vm";
      m "vm.sim_cycles_per_op" "cycles" (per (cyc W.Vm) ops);
      m "guestlib.nqes_per_op" "NQEs" (per (guestlib (fun s -> s.G.nqes_tx + s.G.nqes_rx)) ops);
      m "guestlib.stage_us" "us" (us "guestlib");
      m "guestlib.completion_us" "us" (us "completion");
      m "nk_device.ring_us" "us" (us "ring");
      m "nk_device.ring_full" "count" (reg "nk_device" "ring_full");
      host "coreengine";
      words "coreengine";
      m "coreengine.sim_cycles_per_op" "cycles" (per (cyc W.Ce) ops);
      m "coreengine.switched_per_op" "NQEs" (per (ce (fun s -> s.CE.switched)) ops);
      m "coreengine.batch_mean" "NQEs"
        (ce (fun s -> s.CE.switched) /. Float.max 1.0 (ce (fun s -> s.CE.sweeps)));
      m "coreengine.deferred_per_op" "NQEs"
        (per (ce (fun s -> s.CE.rate_deferred + s.CE.ring_deferred)) ops);
      m "coreengine.dropped" "count" (ce (fun s -> s.CE.dropped));
      m "coreengine.stage_us" "us" (us "ce-switch");
      host "nsm";
      words "nsm";
      m "nsm.sim_cycles_per_op" "cycles" (per (cyc W.Nsm) ops);
      m "servicelib.nqes_per_op" "NQEs" (per (servicelib (fun s -> s.SL.nqes_rx + s.SL.nqes_tx)) ops);
      m "servicelib.stage_us" "us" (us "servicelib");
      m "tcpstack.stage_us" "us" (if homa then 0.0 else stack_us);
      m "tcpstack.segs_per_op" "segments" (per (tcp (fun s -> s.S.segs_rx + s.S.segs_tx)) ops);
      m "tcpstack.syn_drops" "count" (tcp (fun s -> s.S.syn_drops));
      m "tcpstack.conns_failed" "count" (tcp (fun s -> s.S.conns_failed));
      m "tcpstack.rst_tx" "count" (tcp (fun s -> s.S.rst_tx));
      m "homastack.stage_us" "us" (if homa then stack_us else 0.0);
      m "homastack.grants_per_op" "grants" (per (reg "homastack" "grants_tx") ops);
      m "homastack.segs_per_op" "segments"
        (per (reg "homastack" "segs_rx" +. reg "homastack" "segs_tx") ops);
      m "homastack.req_drops" "count" (reg "homastack" "req_drops");
      m "nkfabric.spine_nqes_per_op" "NQEs" (per (reg "nkfabric" "nqes_shipped") ops);
      m "nkfabric.spine_bytes_per_op" "bytes" (per (reg "nkfabric" "bytes_shipped") ops);
      m "nkfabric.spine_us" "us" (us "spine");
      host "loadgen";
      words "loadgen";
      m "loadgen.sim_cycles_per_op" "cycles" (per (cyc W.Client) ops);
      host "simnet";
      words "simnet";
      m "simnet.events_per_op" "events" (per t.H.layer_events.(H.simnet) ops);
      m "trace.host_overhead" "ratio" (traced_ns /. untraced_ns);
    ]
  in
  (* Reconciliations: the parts add up to the whole. *)
  let server name a = a.(idx name) in
  let hook_cycles =
    List.fold_left (fun acc l -> acc +. server l t.H.layer_cycles) 0.0 [ "vm"; "nsm"; "coreengine" ]
  in
  let server_cycles =
    H.server_cycles w
    -. List.fold_left (fun acc l -> acc +. server l t.H.busy_before) 0.0 [ "vm"; "nsm"; "coreengine" ]
  in
  let stage_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 st.H.stage_mean in
  let problems =
    M.problems o
    @ List.filter_map
        (fun (failed, msg) -> if failed then Some msg else None)
        [
          ( sum t.H.layer_ns <> float_of_int t.H.t_busy_ns,
            Printf.sprintf "layer host ns %.0f <> stepped total %d" (sum t.H.layer_ns)
              t.H.t_busy_ns );
          ( rel_diff (sum t.H.layer_words) t.H.t_words > 1e-9,
            Printf.sprintf "layer words %.0f <> stepped total %.0f" (sum t.H.layer_words)
              t.H.t_words );
          ( rel_diff hook_cycles server_cycles > 1e-9,
            Printf.sprintf "vm+nsm+coreengine hook cycles %.0f <> their busy cycles %.0f"
              hook_cycles server_cycles );
          ( rel_diff stage_sum st.H.e2e_mean > 1e-9,
            Printf.sprintf "stage means sum to %.9g us, end-to-end mean %.9g us" (stage_sum *. 1e6)
              (st.H.e2e_mean *. 1e6) );
          (st.H.spans = 0, "no span sampled");
          (t.H.unknown_cores <> [], "cores no layer claims: " ^ String.concat " " t.H.unknown_cores);
          ( t.H.t_events <> d.H.events || ops <> ops_untraced,
            Printf.sprintf "traced run executed %d events / %.0f ops, untraced %d / %.0f"
              t.H.t_events ops d.H.events ops_untraced );
        ]
  in
  Printf.printf
    "# %s seed %d traced: %.0f ops, %d events, %d spans; host-time share vm %.3f nsm %.3f \
     coreengine %.3f loadgen %.3f simnet %.3f\n"
    c.workload.W.name c.seed ops t.H.t_events st.H.spans (share "vm") (share "nsm")
    (share "coreengine") (share "loadgen") (share "simnet");
  M.report ~problems ~o metrics

(* ---- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --selftest\n\
     workloads: rpc-churn bulk-stream cluster-http homa-fanin";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--selftest" ] -> exit (Selftest.run ())
  | args -> (
      let rec parse acc = function
        | [] -> acc
        | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      let num f k = match f (get k) with Some v -> v | None -> usage () in
      let workload = match W.find (get "workload") with Some s -> s | None -> usage () in
      let seconds = num float_of_string_opt "seconds" in
      if seconds <= 0.0 then usage ();
      let c = { workload; seed = num int_of_string_opt "seed"; seconds } in
      match get "trace" with "0" -> end_to_end c | "1" -> per_layer c | _ -> usage ())
