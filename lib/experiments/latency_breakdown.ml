(* Per-stage latency decomposition of the NetKernel request path (the
   latency analogue of the paper's Table 6 cycle breakdown).

   Nkspan samples one in [span_every] requests at the GuestLib send call;
   the span id rides the NQE through CoreEngine, ServiceLib and the stack,
   and every component records its stage against virtual time. Stage
   segments tile the request's lifetime — the implicit "ring" stage owns
   whatever no component claims — so per-stage mean latencies sum to the
   end-to-end mean exactly (up to float rounding), which the reported
   "sum of stages" row makes visible. *)

let us v = v *. 1e6

let fmt_us v = Printf.sprintf "%.2f" (us v)

(* Runs the workload and returns the report together with the world's span
   recorder, so [nk span] can also export the catapult trace of the same
   run. *)
let run_world ?(quick = false) ?(span_every = 16) ?(ce_cores = 1) () =
  let total = if quick then 4_000 else 20_000 in
  let w =
    Worlds.netkernel
      ~config:
        (Worlds.Config.with_span_every span_every { Worlds.Config.default with ce_cores })
      ()
  in
  let r = Worlds.measure_rps w ~concurrency:32 ~total () in
  let spans = w.Worlds.tb.Nkcore.Testbed.spans in
  let b = Nkspan.breakdown spans in
  let module H = Nkutil.Histogram in
  let stage_row (name, h) =
    [ name; fmt_us (H.mean h); fmt_us (H.percentile h 50.0); fmt_us (H.percentile h 90.0);
      fmt_us (H.percentile h 99.0); fmt_us (H.percentile h 99.9) ]
  in
  let sum_of_means =
    List.fold_left (fun acc (_, h) -> acc +. H.mean h) 0.0 b.Nkspan.b_stages
  in
  let e2e = b.Nkspan.b_e2e in
  let rows =
    List.map stage_row b.Nkspan.b_stages
    @ [
        [ "sum of stages"; fmt_us sum_of_means; ""; ""; ""; "" ];
        stage_row ("end-to-end", e2e);
      ]
  in
  let report =
    Report.make ~id:"latency-breakdown"
      ~title:
        (Printf.sprintf
           "Per-stage request latency (us), 64B RPC, %d CE shard%s, 1 in %d sampled"
           ce_cores
           (if ce_cores = 1 then "" else "s")
           span_every)
      ~headers:[ "stage"; "mean"; "p50"; "p90"; "p99"; "p99.9" ]
      ~percentiles:
        (Report.percentiles_of ~label:"e2e" e2e
        :: List.map
             (fun (name, h) -> Report.percentiles_of ~label:name h)
             b.Nkspan.b_stages)
      ~notes:
        [
          Printf.sprintf "%d spans over %d requests (%.1fK rps measured)"
            b.Nkspan.b_spans total (r.Worlds.rps /. 1e3);
          "stage segments tile each request's lifetime: the ring stage owns all time \
           no component claims, so stage means sum to the end-to-end mean";
          (if Nkspan.dropped spans > 0 then
             Printf.sprintf "WARNING: %d spans dropped (capacity)" (Nkspan.dropped spans)
           else "no spans dropped");
          Printf.sprintf "catapult export md5 %s"
            (Digest.to_hex (Digest.string (Nkspan.to_catapult spans)));
        ]
      rows
  in
  (report, spans)

let run ?quick () = fst (run_world ?quick ())
