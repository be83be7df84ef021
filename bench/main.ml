(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (printed as aligned tables with the paper's reference values
   in the notes), then runs Bechamel microbenchmarks of the NetKernel
   dataplane primitives.

     dune exec bench/main.exe              -- everything (reduced durations;
                                              statistically equivalent, see
                                              EXPERIMENTS.md on scale-downs)
     dune exec bench/main.exe -- --full    -- paper-length durations
     dune exec bench/main.exe -- fig18 table5
     dune exec bench/main.exe -- --micro   -- only the Bechamel suite
     dune exec bench/main.exe -- --json DIR -- also write BENCH_<id>.json
                                              per experiment under DIR *)

let quick = ref true
let micro_only = ref false
let selected = ref []
let json_dir = ref None

let () =
  let expect_json = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if !expect_json then begin
          json_dir := Some arg;
          expect_json := false
        end
        else
          match arg with
          | "--full" -> quick := false
          | "--quick" | "-q" -> quick := true
          | "--micro" -> micro_only := true
          | "--json" -> expect_json := true
          | id -> selected := id :: !selected)
    Sys.argv;
  if !expect_json then begin
    prerr_endline "bench: --json requires a directory argument";
    exit 2
  end

(* ---- paper experiments ---------------------------------------------------- *)

let write_json report =
  match !json_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let path =
        Filename.concat dir
          (Printf.sprintf "BENCH_%s.json" report.Experiments.Report.id)
      in
      let oc = open_out path in
      output_string oc (Experiments.Report.to_json report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let run_experiments () =
  let entries =
    match !selected with
    | [] -> Experiments.Registry.all
    | ids ->
        List.filter
          (fun (e : Experiments.Registry.entry) -> List.mem e.Experiments.Registry.id ids)
          Experiments.Registry.all
  in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      Printf.printf "\n>>> %s (%s)%!" e.Experiments.Registry.id e.Experiments.Registry.title;
      let t0 = Unix.gettimeofday () in
      let report = e.Experiments.Registry.run ~quick:!quick () in
      Printf.printf "  [%.1fs]\n%!" (Unix.gettimeofday () -. t0);
      Experiments.Report.print Format.std_formatter report;
      Format.pp_print_flush Format.std_formatter ();
      write_json report)
    entries

(* ---- Bechamel microbenchmarks ---------------------------------------------- *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let nqe_roundtrip =
    Test.make ~name:"nqe encode+decode"
      (Staged.stage (fun () ->
           let nqe =
             Nkcore.Nqe.make ~op:Nkcore.Nqe.Send ~vm_id:1 ~qset:0 ~sock:42 ~data_ptr:4096
               ~size:8192 ()
           in
           match Nkcore.Nqe.decode (Nkcore.Nqe.encode nqe) with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
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
    Nkcore.Nqe.encode
      (Nkcore.Nqe.make ~op:Nkcore.Nqe.Send ~vm_id:1 ~qset:0 ~sock:7 ~data_ptr:0 ~size:1024 ())
  in
  let nsm_send = (Nkcore.Nk_device.qset nsm 0).Nkcore.Queue_set.send in
  let ce_switch =
    Test.make ~name:"coreengine switch (24 idle devices)"
      (Staged.stage (fun () ->
           Nkcore.Nk_device.post vm ~qset:0 `Send send_nqe;
           Sim.Engine.run ce_engine;
           match Nkutil.Spsc_ring.pop nsm_send with
           | Some _ -> ()
           | None -> failwith "send NQE not switched"))
  in
  let tests =
    Test.make_grouped ~name:"netkernel-primitives"
      [ nqe_roundtrip; ring_pushpop; hugepage_copy; heap_ops; ce_switch ]
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

let () =
  if !micro_only then bechamel_suite ()
  else begin
    run_experiments ();
    if !selected = [] then bechamel_suite ()
  end;
  print_endline "\nbench: done"
