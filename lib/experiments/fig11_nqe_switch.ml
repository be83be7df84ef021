(* Fig 11: CoreEngine switching throughput (single core) vs batch size.

   This drives the REAL mechanism — the actual 32-byte NQE slot rings
   (Nqe_ring) through the CoreEngine's data movement, with the reference
   codec (Nqe_codec) decoding each header: pop a batch from the source
   ring, decode the header, look up the connection table, copy into the
   destination ring — but charges every modeled operation its
   cycle cost from the calibrated NetKernel cost model (Nk_costs) instead of
   timing the host with a wall clock. Reported NQEs/s is therefore a pure
   function of the cost model at the paper's 2.3 GHz core clock and is
   bit-identical across runs and machines (nklint rule D1 forbids
   [Unix.gettimeofday] under lib/); wall-clock measurement of the same
   primitives lives in bench/main.ml where it belongs.

   The paper measures ~8M NQEs/s unbatched and 41.4M / 65.9M / up to 198M
   NQEs/s with batches of 4 / 8 / larger on a 2.3 GHz Xeon core; the shape
   (batching amortizes the per-iteration poll sweep across every registered
   device's queues) is reproduced from the same mechanism. *)

open Nkcore

let batch_sizes = [ 1; 4; 8; 16; 32; 64 ]

(* The paper's testbed core clock: converts modeled cycles to seconds. *)
let cycles_per_sec = 2.3e9

let run_one ~batch ~iterations =
  let src = Nqe_ring.create ~capacity:4096 in
  let dst = Nqe_ring.create ~capacity:4096 in
  (* One NQE slot: where the switch reads the popped header. *)
  let slot = Bytes.create Nqe.size_bytes in
  (* CoreEngine sweeps every registered device's queues each polling
     iteration; most are empty. Smaller batches pay that sweep more often —
     this is exactly what the paper's Fig 11 batching amortizes. *)
  let idle_queues = Array.init 32 (fun _ -> Nqe_ring.create ~capacity:64) in
  let poll_idle () = Array.iter (fun q -> ignore (Nqe_ring.pop q slot 0)) idle_queues in
  let sweep_cycles = Nk_costs.ce_poll_iter *. float_of_int (Array.length idle_queues + 1) in
  let per_nqe_cycles = Nk_costs.nqe_decode +. Nk_costs.ce_switch in
  let table = Hashtbl.create 1024 in
  Hashtbl.replace table (1, 42) (0, 0);
  let proto = Nqe_codec.make ~op:Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~data_ptr:4096 ~size:8192 () in
  (* A pool of 4096 pre-encoded NQEs, one 32-byte slot each. *)
  let pool = Bytes.create (4096 * Nqe.size_bytes) in
  for k = 0 to 4095 do
    Nqe_codec.encode_into proto pool ~pos:(k * Nqe.size_bytes)
  done;
  let switched = ref 0 in
  let cycles = ref 0.0 in
  for i = 0 to iterations - 1 do
    poll_idle ();
    cycles := !cycles +. sweep_cycles;
    (* producer side: enqueue a batch *)
    for j = 0 to batch - 1 do
      ignore (Nqe_ring.push src pool ((((i * batch) + j) land 4095) * Nqe.size_bytes))
    done;
    (* CoreEngine: pop batch, decode, look up, copy into destination *)
    let rec loop n =
      if n < batch && Nqe_ring.pop src slot 0 then begin
        (match Nqe_codec.decode slot with
        | Ok nqe ->
            (match Hashtbl.find_opt table (nqe.Nqe_codec.vm_id, nqe.Nqe_codec.sock) with
            | Some _ -> ()
            | None -> Hashtbl.replace table (nqe.Nqe_codec.vm_id, nqe.Nqe_codec.sock) (0, 0));
            ignore (Nqe_ring.push dst slot 0);
            cycles := !cycles +. per_nqe_cycles;
            incr switched
        | Error _ -> ());
        loop (n + 1)
      end
    in
    loop 0;
    (* consumer side: drain the destination *)
    let rec drain () = if Nqe_ring.pop dst slot 0 then drain () in
    drain ()
  done;
  float_of_int !switched /. (!cycles /. cycles_per_sec)

let run ?(quick = false) () =
  let iterations = if quick then 20_000 else 100_000 in
  let rows =
    List.map
      (fun batch ->
        let rate = run_one ~batch ~iterations:(iterations / batch) in
        [ string_of_int batch; Printf.sprintf "%.1fM" (rate /. 1e6) ])
      batch_sizes
  in
  Report.make ~id:"fig11" ~title:"CoreEngine NQE switching throughput vs batch size"
    ~headers:[ "batch size"; "NQEs/s" ]
    ~notes:
      [
        "deterministic microbenchmark: real codec + rings, cycle-cost model (Nk_costs) \
         at 2.3 GHz — wall-clock timing lives in bench/main.ml";
        "paper, 2.3GHz Xeon core: ~8M/s unbatched; 41.4M/s at batch 4; 65.9M/s at 8; up \
         to 198M/s";
        "shape to check: throughput grows with batch size then saturates";
      ]
    rows
