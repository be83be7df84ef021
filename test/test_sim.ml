(* Engine, CPU model and pressure estimator tests. *)

module E = Sim.Engine
module Cpu = Sim.Cpu

let engine_ordering () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~delay:0.3 (fun () -> log := "c" :: !log));
  ignore (E.schedule e ~delay:0.1 (fun () -> log := "a" :: !log));
  ignore (E.schedule e ~delay:0.2 (fun () -> log := "b" :: !log));
  E.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let engine_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (E.schedule e ~delay:0.1 (fun () -> log := i :: !log))
  done;
  E.run e;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let engine_cancel () =
  let e = E.create () in
  let fired = ref false in
  let h = E.schedule e ~delay:0.1 (fun () -> fired := true) in
  E.Timer.cancel e h;
  E.run e;
  Alcotest.(check bool) "cancelled event must not run" false !fired

(* Allocate the capture here, so the caller's frame never holds it: once
   the event is cancelled only the weak slot refers to it. *)
let[@inline never] arm_capturing e w =
  let v = Bytes.make 64 'x' in
  Weak.set w 0 (Some v);
  E.schedule e ~delay:5.0 (fun () -> ignore (Bytes.length v))

let engine_cancel_frees_closure () =
  let e = E.create () in
  let fired = ref 0 in
  ignore (E.schedule e ~delay:5.0 (fun () -> incr fired));
  let w = Weak.create 1 in
  let h = arm_capturing e w in
  ignore (E.schedule e ~delay:5.0 (fun () -> incr fired));
  Alcotest.(check int) "three pending" 3 (E.pending e);
  E.Timer.cancel e h;
  Alcotest.(check int) "pending drops at the cancel" 2 (E.pending e);
  Gc.full_major ();
  Alcotest.(check bool) "the cancelled closure's capture is collected" false (Weak.check w 0);
  E.Timer.cancel e h;
  Alcotest.(check int) "a second cancel is a no-op" 2 (E.pending e);
  E.run e;
  Alcotest.(check int) "its bucket neighbours still fire" 2 !fired;
  Alcotest.(check int) "nothing left" 0 (E.pending e)

(* A fired event's closure goes too: the slab drops it when the event
   runs, not when the slot is next reused. *)
let engine_fire_frees_closure () =
  let e = E.create () in
  let w = Weak.create 1 in
  ignore (arm_capturing e w);
  E.run e;
  Gc.full_major ();
  Alcotest.(check bool) "the fired closure's capture is collected" false (Weak.check w 0);
  (* A use after the collection keeps the engine, and so its slab, live
     through it. *)
  Alcotest.(check int) "nothing pending" 0 (E.pending e)

(* A handle names one event, not a slot: once a fired event's slot serves
   a new event, cancelling the old handle must leave the new one alone. *)
let engine_stale_handle () =
  let e = E.create () in
  let log = ref [] in
  let old = E.schedule e ~delay:1.0 (fun () -> log := "old" :: !log) in
  E.run e;
  let fresh = ref 0 in
  (* The free list is LIFO, so the first of these reuses the fired slot;
     scheduling a few makes that independent of the slab's policy. *)
  for _ = 1 to 4 do
    ignore (E.schedule e ~delay:1.0 (fun () -> incr fresh))
  done;
  E.Timer.cancel e old;
  Alcotest.(check int) "the stale cancel leaves pending alone" 4 (E.pending e);
  E.run e;
  Alcotest.(check (list string)) "old fired once" [ "old" ] !log;
  Alcotest.(check int) "every new event fires" 4 !fresh

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Scheduling allocates only what the caller passes: with one shared
   closure and one instant, 10,000 events cost less than a word each
   (the slab and the near heap grow a few times). *)
let engine_schedule_alloc () =
  let e = E.create () in
  let fired = ref 0 in
  let f () = incr fired in
  let at = 1e-3 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          ignore (E.schedule_at e ~at f)
        done;
        E.run e)
    /. 10_000.0
  in
  Alcotest.(check int) "all fired" 10_000 !fired;
  if words >= 1.0 then Alcotest.failf "%.3f minor words per event, want < 1" words

(* The core's clock and busy counter are flat floats: charging allocates
   nothing. *)
let cpu_charge_alloc () =
  let e = E.create () in
  let core = Cpu.create e ~name:"c0" () in
  let cycles = 1000.0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          Cpu.charge core ~cycles
        done)
  in
  Alcotest.(check (float 0.0)) "minor words for 10,000 charges" 0.0 words;
  Alcotest.(check (float 0.0)) "busy cycles" 1e7 (Cpu.busy_cycles core)

(* Exact bucket positions on a fresh engine: three events share one slot
   on each wheel level (the last scheduled is the bucket head, the first
   the tail), one waits in the overflow heap. Every cancel of a bucketed
   event leaves [pending] at once; the overflow event and a same-slot
   event already in the near heap keep their count until they surface. *)
let engine_cancel_positions () =
  let e = E.create () in
  let log = ref [] in
  let at name t = E.schedule_at e ~at:t (fun () -> log := name :: !log) in
  let bucket lvl t = Array.init 3 (fun i -> at (Printf.sprintf "%s%d" lvl i) t) in
  let l0 = bucket "a" 50e-6 and l1 = bucket "b" 50e-3 and l2 = bucket "c" 50.0 in
  let far = at "far" 200.0 in
  let cancel h expect =
    E.Timer.cancel e h;
    Alcotest.(check int) "pending after cancel" expect (E.pending e)
  in
  (* Level 0: head, then tail; level 1: tail, then head; level 2: middle. *)
  cancel l0.(2) 9;
  cancel l0.(0) 8;
  cancel l1.(0) 7;
  cancel l1.(2) 6;
  cancel l2.(1) 5;
  cancel far 5;
  ignore (at "x" 1.0);
  (* At 0.5 s: 4 pending (x, c0, c2, far) once this event is popped. *)
  ignore
    (E.schedule_at e ~at:0.5 (fun () ->
         let h = E.schedule e ~delay:0.0 (fun () -> log := "zero" :: !log) in
         cancel h 5;
         log := "half" :: !log));
  cancel l0.(1) 6 (* the last of its bucket *);
  E.run e;
  Alcotest.(check (list string)) "survivors fire in order"
    [ "b1"; "half"; "x"; "c0"; "c2" ] (List.rev !log);
  Alcotest.(check int) "pending ends at 0" 0 (E.pending e)

let engine_until () =
  let e = E.create () in
  let fired = ref 0 in
  ignore (E.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (E.schedule e ~delay:3.0 (fun () -> incr fired));
  E.run e ~until:2.0;
  Alcotest.(check int) "only events before horizon" 1 !fired;
  if E.now e < 2.0 then Alcotest.fail "clock must reach the horizon"

let engine_nested_schedule () =
  let e = E.create () in
  let depth = ref 0 in
  let rec go n = if n > 0 then ignore (E.schedule e ~delay:0.01 (fun () -> incr depth; go (n - 1))) in
  go 10;
  E.run e;
  Alcotest.(check int) "chain of nested events" 10 !depth

(* ---- timing-wheel order oracle ----------------------------------------- *)

(* The engine's pending set is a hierarchical timing wheel, but its contract
   is the seed binary heap's exact (time, insertion-seq) execution order.
   Reference model: that heap, rebuilt here on [Heap] (test/heap.ml) with
   the same clamping/cancellation semantics. Both run the same scripted
   ~100K-event schedule — dense sub-tick delays, exact ties, zero and
   negative delays, delays on every wheel level and beyond its 128 s
   horizon, events scheduled from inside callbacks, and cancellations —
   and must log byte-identical id sequences. *)

type 'h sched_api = {
  api_schedule : delay:float -> (unit -> unit) -> 'h;
  api_cancel : 'h -> unit;
  api_run : unit -> unit;
  api_now : unit -> float;
  api_pending : (unit -> int) option; (* the wheel only *)
}

module Ref_engine = struct
  type ev = {
    time : float;
    seq : int;
    f : unit -> unit;
    mutable cancelled : bool;
  }

  type t = { heap : ev Heap.t; mutable clock : float; mutable next_seq : int }

  let dummy = { time = 0.0; seq = 0; f = ignore; cancelled = true }

  let leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

  let create () =
    { heap = Heap.create ~dummy ~leq (); clock = 0.0; next_seq = 0 }

  let schedule t ~delay f =
    let at = Float.max (t.clock +. delay) t.clock in
    let ev = { time = at; seq = t.next_seq; f; cancelled = false } in
    t.next_seq <- t.next_seq + 1;
    Heap.add t.heap ev;
    ev

  let run t =
    let continue = ref true in
    while !continue do
      match Heap.pop_min t.heap with
      | None -> continue := false
      | Some ev ->
          if not ev.cancelled then begin
            t.clock <- ev.time;
            ev.f ()
          end
    done
end

(* Delay distribution keyed only on the event id, so both runs compute the
   same schedule without sharing any mutable generator state. *)
let scripted_delay id =
  let rng = Nkutil.Rng.create ~seed:(0xF00D + id) in
  match id land 15 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Nkutil.Rng.float_range rng 0.0 50e-6 (* dense, sub-slot *)
  | 6 | 7 | 8 -> float_of_int (Nkutil.Rng.int rng 40) *. 1e-6 (* quantized: exact ties *)
  | 9 | 10 -> 0.0
  | 11 -> -1e-6 (* negative: clamps to now *)
  | 12 | 13 -> Nkutil.Rng.float_range rng 0.0 0.05 (* mid-range, upper wheel levels *)
  | 14 -> Nkutil.Rng.float_range rng 0.5 10.0 (* far: level 2 *)
  | _ -> Nkutil.Rng.float_range rng 130.0 300.0 (* beyond the horizon: overflow heap *)

(* Same-instant groups: one slot, so one bucket, in which the last member
   scheduled is the head. Kinds: level-0, level-1 and level-2 distances,
   beyond the horizon, and zero (straight into the near heap). *)
let group_delay id =
  let rng = Nkutil.Rng.create ~seed:(0xBEEF + id) in
  match (id lsr 5) mod 5 with
  | 0 -> Nkutil.Rng.float_range rng 10e-6 100e-6
  | 1 -> Nkutil.Rng.float_range rng 1e-3 0.1
  | 2 -> Nkutil.Rng.float_range rng 1.0 10.0
  | 3 -> Nkutil.Rng.float_range rng 150.0 250.0
  | _ -> 0.0

(* Wheel geometry, for the expected effect of each cancel: 2^23 slots per
   second, 1024 slots per level, the overflow heap past the cursor's
   level-2 block. Under [run] without a horizon, the cursor is the clock's
   slot while a callback runs. *)
let slot time = int_of_float (time *. 8388608.0)

let run_script (type h) (api : h sched_api) ~total =
  let order = ref [] in
  let spawned = ref 0 in
  let handles : (int, h) Hashtbl.t = Hashtbl.create 1024 in
  let due = Array.make total 0.0 in
  let dead = Array.make total false (* fired or cancelled *) in
  (* Cancels of live events: [level][position] for bucketed group members
     (position 0 head, 1 middle, 2 first scheduled), then near, overflow. *)
  let hits = Array.make_matrix 3 3 0 and near_hits = ref 0 and overflow_hits = ref 0 in
  let cancel ?pos id =
    match Hashtbl.find_opt handles id with
    | None -> ()
    | Some h ->
        let before = match api.api_pending with Some p -> p () | None -> 0 in
        api.api_cancel h;
        (match api.api_pending with
        | None -> ()
        | Some pending ->
            let s = slot due.(id) and c = slot (api.api_now ()) in
            let level =
              if dead.(id) then `Dead
              else if s <= c then `Near
              else if s lsr 30 <> c lsr 30 then `Overflow
              else if s lsr 10 = c lsr 10 then `Wheel 0
              else if s lsr 20 = c lsr 20 then `Wheel 1
              else `Wheel 2
            in
            let dropped = before - pending () in
            let expect = match level with `Wheel _ -> 1 | `Dead | `Near | `Overflow -> 0 in
            if dropped <> expect then
              Alcotest.failf "cancel of event %d (slot %d, cursor %d): pending fell by %d, not %d"
                id s c dropped expect;
            match (level, pos) with
            | `Wheel l, Some p -> hits.(l).(p) <- hits.(l).(p) + 1
            | `Near, _ -> incr near_hits
            | `Overflow, _ -> incr overflow_hits
            | (`Wheel _ | `Dead), _ -> ());
        dead.(id) <- true
  in
  let rec spawn ?delay depth =
    if !spawned < total then begin
      let id = !spawned in
      incr spawned;
      let delay = match delay with Some d -> d | None -> scripted_delay id in
      due.(id) <- api.api_now () +. Float.max 0.0 delay;
      Hashtbl.replace handles id (api.api_schedule ~delay (fun () -> fire id depth));
      Some id
    end
    else None
  and fire id depth =
    dead.(id) <- true;
    order := id :: !order;
    (* Some events fan out into fresh events mid-run (exercising seq
       assignment while the wheel cursor has advanced)... *)
    if depth < 4 && id land 7 <= 2 then begin
      ignore (spawn (depth + 1));
      ignore (spawn (depth + 1))
    end;
    (* ...some schedule a same-instant group and cancel its head, a
       middle member, its first member, or first, middle and head in
       turn... *)
    if id land 31 = 22 then begin
      let delay = group_delay id in
      let g = List.filter_map (fun _ -> spawn ~delay (depth + 1)) (List.init 4 Fun.id) in
      match Array.of_list g with
      | [| m0; m1; m2; m3 |] -> (
          match (id lsr 5) / 5 mod 4 with
          | 0 -> cancel ~pos:0 m3
          | 1 -> cancel ~pos:1 m1
          | 2 -> cancel ~pos:2 m0
          | _ ->
              cancel ~pos:2 m0;
              cancel ~pos:1 m2;
              cancel ~pos:0 m3)
      | _ -> ()
    end;
    (* ...and some cancel a not-necessarily-pending later event of any
       delay class. *)
    if id land 15 = 3 then cancel (id + 1 + ((id lsr 4) mod 15))
  in
  (* Seed enough roots that fan-out reaches [total]. *)
  for _ = 1 to total / 2 do
    ignore (spawn 0)
  done;
  api.api_run ();
  (match api.api_pending with
  | None -> ()
  | Some pending ->
      Alcotest.(check int) "pending ends at 0" 0 (pending ());
      Array.iteri
        (fun l row ->
          Array.iteri
            (fun p n ->
              if n = 0 then Alcotest.failf "no cancel hit level %d at group position %d" l p)
            row)
        hits;
      if !near_hits = 0 then Alcotest.fail "no cancel hit the near heap";
      if !overflow_hits = 0 then Alcotest.fail "no cancel hit the overflow heap");
  List.rev !order

let wheel_matches_heap_oracle () =
  let total = 100_000 in
  let wheel_order =
    let e = E.create () in
    run_script
      {
        api_schedule = (fun ~delay f -> E.schedule e ~delay f);
        api_cancel = E.Timer.cancel e;
        api_run = (fun () -> E.run e);
        api_now = (fun () -> E.now e);
        api_pending = Some (fun () -> E.pending e);
      }
      ~total
  in
  let heap_order =
    let r = Ref_engine.create () in
    run_script
      {
        api_schedule = (fun ~delay f -> Ref_engine.schedule r ~delay f);
        api_cancel = (fun ev -> ev.Ref_engine.cancelled <- true);
        api_run = (fun () -> Ref_engine.run r);
        api_now = (fun () -> r.Ref_engine.clock);
        api_pending = None;
      }
      ~total
  in
  Alcotest.(check int) "every live event fired" (List.length heap_order)
    (List.length wheel_order);
  if not (List.equal Int.equal wheel_order heap_order) then begin
    let rec first_diff i a b =
      match (a, b) with
      | x :: a', y :: b' -> if x <> y then (i, x, y) else first_diff (i + 1) a' b'
      | _ -> (i, -1, -1)
    in
    let i, x, y = first_diff 0 wheel_order heap_order in
    Alcotest.failf "execution order diverges at position %d: wheel=%d heap=%d" i x y
  end

let cpu_fifo_and_accounting () =
  let e = E.create () in
  let core = Cpu.create e ~freq_ghz:1.0 ~name:"c0" () in
  let finish_times = ref [] in
  (* 1 GHz -> 1e9 cycles/s; 1e6 cycles = 1 ms *)
  Cpu.exec core ~cycles:1e6 (fun () -> finish_times := E.now e :: !finish_times);
  Cpu.exec core ~cycles:2e6 (fun () -> finish_times := E.now e :: !finish_times);
  E.run e;
  (match List.rev !finish_times with
  | [ t1; t2 ] ->
      if Float.abs (t1 -. 0.001) > 1e-9 then Alcotest.failf "first at %f" t1;
      if Float.abs (t2 -. 0.003) > 1e-9 then Alcotest.failf "second queued: %f" t2
  | _ -> Alcotest.fail "expected two completions");
  if Float.abs (Cpu.busy_cycles core -. 3e6) > 1.0 then Alcotest.fail "busy cycles";
  if Float.abs (Cpu.busy_seconds core -. 0.003) > 1e-9 then Alcotest.fail "busy seconds"

let cpu_set_pick_stable () =
  let e = E.create () in
  let set = Cpu.Set.create e ~name:"s" ~n:4 () in
  let a = Cpu.Set.pick set ~hash:12345 in
  let b = Cpu.Set.pick set ~hash:12345 in
  if not (a == b) then Alcotest.fail "pick must be deterministic"

let pressure_decays () =
  let e = E.create () in
  let p = Sim.Pressure.create e ~tau:0.01 () in
  Sim.Pressure.observe p ~bits:1e6;
  let r0 = Sim.Pressure.rate_bps p in
  ignore (E.schedule e ~delay:0.05 (fun () -> ()));
  E.run e;
  let r1 = Sim.Pressure.rate_bps p in
  if not (r0 > 0.0 && r1 < r0 /. 100.0) then
    Alcotest.failf "pressure must decay: %f -> %f" r0 r1

let pressure_copy_cost_grows () =
  let e = E.create () in
  let p = Sim.Pressure.create e () in
  let idle = Sim.Pressure.hugepage_copy_cost p ~base:0.02 ~contention:0.2 in
  (* Push the estimate to ~100 Gb/s. *)
  Sim.Pressure.observe p ~bits:1e9;
  let busy = Sim.Pressure.hugepage_copy_cost p ~base:0.02 ~contention:0.2 in
  if busy <= idle then Alcotest.fail "cost must grow with pressure"

let contention_mult () =
  let m = Sim.Cost_profile.contention_mult ~factor:0.1 ~cores:4 in
  if Float.abs (m -. 1.3) > 1e-9 then Alcotest.failf "mult %f" m;
  let one = Sim.Cost_profile.contention_mult ~factor:0.5 ~cores:1 in
  if Float.abs (one -. 1.0) > 1e-9 then Alcotest.fail "single core has no contention"

let tests =
  [
    Alcotest.test_case "event ordering" `Quick engine_ordering;
    Alcotest.test_case "same-time FIFO" `Quick engine_same_time_fifo;
    Alcotest.test_case "cancellation" `Quick engine_cancel;
    Alcotest.test_case "cancel frees the closure at once" `Quick engine_cancel_frees_closure;
    Alcotest.test_case "cancel at bucket head, middle, tail" `Quick engine_cancel_positions;
    Alcotest.test_case "firing frees the closure" `Quick engine_fire_frees_closure;
    Alcotest.test_case "stale handle cancels nothing" `Quick engine_stale_handle;
    Alcotest.test_case "scheduling allocates < 1 word per event" `Quick engine_schedule_alloc;
    Alcotest.test_case "cpu charge allocates nothing" `Quick cpu_charge_alloc;
    Alcotest.test_case "run until horizon" `Quick engine_until;
    Alcotest.test_case "nested scheduling" `Quick engine_nested_schedule;
    Alcotest.test_case "wheel vs heap order oracle (100K)" `Quick wheel_matches_heap_oracle;
    Alcotest.test_case "cpu FIFO + accounting" `Quick cpu_fifo_and_accounting;
    Alcotest.test_case "cpu set pick stable" `Quick cpu_set_pick_stable;
    Alcotest.test_case "pressure decays" `Quick pressure_decays;
    Alcotest.test_case "pressure raises copy cost" `Quick pressure_copy_cost_grows;
    Alcotest.test_case "contention multiplier" `Quick contention_mult;
  ]
