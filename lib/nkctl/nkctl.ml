open Nkcore

module Engine = Sim.Engine
module Cpu = Sim.Cpu

module Policy = struct
  type t = {
    period : float;
    high_watermark : float;
    low_watermark : float;
    min_nsms : int;
    max_nsms : int;
    cooldown : float;
    ce_scale_watermark : float;
    max_ce_shards : int;
  }

  let default =
    {
      period = 0.5;
      high_watermark = 0.7;
      low_watermark = 0.25;
      min_nsms = 1;
      max_nsms = 8;
      cooldown = 1.0;
      (* CE scale-out is opt-in: infinity means the busiest shard can never
         cross the watermark, so the default policy only manages NSMs. *)
      ce_scale_watermark = infinity;
      max_ce_shards = 4;
    }
end

type nsm_state = Active | Draining

type managed_nsm = {
  nsm : Nsm.t;
  mutable nstate : nsm_state;
  mutable last_busy : float; (* busy cycles at the previous sample *)
}

type managed_vm = { vm : Vm.t; mutable home : managed_nsm }

type sample = {
  s_time : float;
  s_active : int;
  s_draining : int;
  s_utilization : float;
  s_conns : int;
  s_ce_utilization : float;
      (* busiest CoreEngine shard's core utilization over the period *)
}

type stats = {
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable handovers : int;
  mutable failovers : int;
  mutable drains_completed : int;
  mutable ce_scale_outs : int;
  mutable protocol_switches : int;
}

type t = {
  host : Host.t;
  policy : Policy.t;
  spawn : int -> Nsm.t;
  mutable pool : managed_nsm list; (* spawn order *)
  mutable vms : managed_vm list; (* add order *)
  mutable spawned : int;
  mutable samples_rev : sample list;
  stats : stats;
  mutable last_scale : float;
  mutable last_ce_scale : float;
  mutable ce_last_busy : float array; (* per-shard busy cycles at last sample *)
  mutable last_sample_time : float;
  mutable running : bool;
  c_scale_up : Nkmon.Registry.counter;
  c_scale_down : Nkmon.Registry.counter;
  c_handover : Nkmon.Registry.counter;
  c_failover : Nkmon.Registry.counter;
  c_drain_done : Nkmon.Registry.counter;
  c_ce_scale : Nkmon.Registry.counter;
  c_proto_switch : Nkmon.Registry.counter;
  g_active : Nkmon.Registry.gauge;
  g_draining : Nkmon.Registry.gauge;
}

let ctl_event t name detail =
  Nkmon.event (Host.mon t.host) (Nkmon.Trace.Custom { component = "nkctl"; name; detail })

let create host ?(policy = Policy.default) ~spawn () =
  let mon = Host.mon host in
  let c name = Nkmon.counter mon ~component:"nkctl" ~instance:"ctl" ~name in
  let g name = Nkmon.gauge mon ~component:"nkctl" ~instance:"ctl" ~name in
  {
    host;
    policy;
    spawn;
    pool = [];
    vms = [];
    spawned = 0;
    samples_rev = [];
    stats =
      { scale_ups = 0; scale_downs = 0; handovers = 0; failovers = 0;
        drains_completed = 0; ce_scale_outs = 0; protocol_switches = 0 };
    last_scale = -.infinity;
    last_ce_scale = -.infinity;
    ce_last_busy =
      (if Host.netkernel_enabled host then
         Array.map Cpu.busy_cycles (Host.ce_cores host)
       else [||]);
    last_sample_time = Engine.now (Host.engine host);
    running = false;
    c_scale_up = c "scale_ups";
    c_scale_down = c "scale_downs";
    c_handover = c "handovers";
    c_failover = c "failovers";
    c_drain_done = c "drains_completed";
    c_ce_scale = c "ce_scale_outs";
    c_proto_switch = c "protocol_switches";
    g_active = g "active_nsms";
    g_draining = g "draining_nsms";
  }

let find_managed t nsm =
  List.find_opt (fun m -> Nsm.id m.nsm = Nsm.id nsm) t.pool

(* A retired NSM set the same flag as a crashed one ([Nsm.retire] /
   [Nsm.fail]), and its device is gone from CoreEngine either way — flows
   routed there would pin on a corpse. Refuse loudly rather than re-adding
   it to the pool. *)
let check_live ~verb nsm =
  if Nsm.failed nsm then
    invalid_arg
      (Printf.sprintf "Nkctl.%s: NSM %s is retired or crashed" verb
         (Nsm.name nsm))

let manage t nsm =
  check_live ~verb:"manage" nsm;
  match find_managed t nsm with
  | Some _ -> ()
  | None ->
      t.pool <- t.pool @ [ { nsm; nstate = Active; last_busy = Nsm.busy_cycles nsm } ]

let managed t nsm =
  manage t nsm;
  Option.get (find_managed t nsm)

let add_vm t vm ~home =
  let home = managed t home in
  if not (List.exists (fun mv -> Vm.vm_id mv.vm = Vm.vm_id vm) t.vms) then
    t.vms <- t.vms @ [ { vm; home } ]

let actives t = List.filter (fun m -> m.nstate = Active) t.pool

let active_nsms t = List.map (fun m -> m.nsm) (actives t)

let pool_size t = List.length t.pool

let samples t = List.rev t.samples_rev

let stats t = t.stats

let vms_homed_on t m =
  List.filter (fun mv -> Nsm.id mv.home.nsm = Nsm.id m.nsm) t.vms

(* ---- live handover ------------------------------------------------------ *)

(* Re-home [mv] onto [target]: CoreEngine sends new sockets to the target at
   once (attach replaces the assignment), established connections keep their
   conn-table routes to the source, and the VM's listening sockets are closed
   on the source and transparently re-created — GuestLib replays
   socket/bind/listen NQEs which land on the target via first-NQE placement.
   Ordering matters: the source must release the ⟨ip, port⟩ endpoints before
   the target claims them, or closing the source listener would tear down the
   target's fresh vswitch entry. *)
let rehome t mv target ~source_alive =
  let vm_id = Vm.vm_id mv.vm in
  let ce = Host.coreengine t.host in
  (match Vm.guestlib mv.vm with
  | None -> invalid_arg "Nkctl: not a NetKernel VM"
  | Some gl ->
      let listeners = Guestlib.listening_socks gl in
      if source_alive then Nsm.close_vm_listeners mv.home.nsm ~vm_id;
      List.iter (fun sock -> Coreengine.forget_route ce ~vm_id ~sock) listeners;
      Vm.attach_nsm mv.vm target.nsm;
      Guestlib.remigrate_listeners gl);
  mv.home <- target;
  t.stats.handovers <- t.stats.handovers + 1;
  Nkmon.Registry.incr t.c_handover;
  ctl_event t "handover"
    (Printf.sprintf "vm=%d target=%s" vm_id (Nsm.name target.nsm))

(* Once no tracked VM calls [m] home, stop CoreEngine from placing new
   sockets there and let the policy loop retire it at zero connections. *)
let drain_if_empty t m =
  if m.nstate = Active && not (Nsm.failed m.nsm) && vms_homed_on t m = [] then begin
    m.nstate <- Draining;
    Coreengine.drain_nsm (Host.coreengine t.host) ~nsm_id:(Nsm.id m.nsm);
    ctl_event t "drain_start" (Printf.sprintf "nsm=%s" (Nsm.name m.nsm))
  end

let handover t ~vm ~target =
  check_live ~verb:"handover" target;
  let target = managed t target in
  let mv =
    match List.find_opt (fun mv -> Vm.vm_id mv.vm = Vm.vm_id vm) t.vms with
    | Some mv -> mv
    | None -> invalid_arg "Nkctl.handover: VM not tracked (use add_vm)"
  in
  if Nsm.id mv.home.nsm <> Nsm.id target.nsm then begin
    let source = mv.home in
    rehome t mv target ~source_alive:(not (Nsm.failed source.nsm));
    drain_if_empty t source
  end

(* Live protocol handover ("changing the network stack on the fly", §3.2):
   mechanically a rehome onto an NSM speaking a different transport. New
   sockets — and the listeners GuestLib replays — land on the target and
   speak its protocol at once; established connections finish on the source
   stack's protocol and the source drains out from under them. *)
let switch_protocol t ~vm ~target =
  check_live ~verb:"switch_protocol" target;
  let target = managed t target in
  let mv =
    match List.find_opt (fun mv -> Vm.vm_id mv.vm = Vm.vm_id vm) t.vms with
    | Some mv -> mv
    | None -> invalid_arg "Nkctl.switch_protocol: VM not tracked (use add_vm)"
  in
  if Nsm.id mv.home.nsm <> Nsm.id target.nsm then begin
    let source = mv.home in
    let from_proto = Nsm.proto source.nsm in
    let to_proto = Nsm.proto target.nsm in
    rehome t mv target ~source_alive:(not (Nsm.failed source.nsm));
    drain_if_empty t source;
    if not (String.equal from_proto to_proto) then begin
      t.stats.protocol_switches <- t.stats.protocol_switches + 1;
      Nkmon.Registry.incr t.c_proto_switch;
      ctl_event t "protocol_switch"
        (Printf.sprintf "vm=%d %s->%s target=%s" (Vm.vm_id mv.vm) from_proto
           to_proto (Nsm.name target.nsm))
    end
  end

(* Drop a VM or NSM from tracking with no side effects: Nkfabric is about to
   run its own cross-host migration and must not race the local policy loop
   (a retired source NSM would otherwise read as a crash and trigger a
   failover rehome fighting the migration). *)
let release_vm t ~vm =
  t.vms <- List.filter (fun mv -> Vm.vm_id mv.vm <> Vm.vm_id vm) t.vms

let release_nsm t nsm =
  t.pool <- List.filter (fun m -> Nsm.id m.nsm <> Nsm.id nsm) t.pool

(* ---- policy loop -------------------------------------------------------- *)

let spawn_managed t =
  let nsm = t.spawn t.spawned in
  t.spawned <- t.spawned + 1;
  let m = { nsm; nstate = Active; last_busy = Nsm.busy_cycles nsm } in
  t.pool <- t.pool @ [ m ];
  ctl_event t "spawn" (Printf.sprintf "nsm=%s" (Nsm.name nsm));
  m

(* The operator-facing spawn verb: alert responders (Nkobs subscribers)
   use it to bring up capacity outside the watermark loop, then [handover]
   the breaching tenant onto the returned NSM. *)
let spawn_nsm t = (spawn_managed t).nsm

(* Least-loaded active by tracked-VM count (ties broken by spawn order). *)
let pick_target t ~excluding =
  let candidates =
    List.filter (fun m -> Nsm.id m.nsm <> Nsm.id excluding.nsm) (actives t)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best m ->
             if List.length (vms_homed_on t m) < List.length (vms_homed_on t best)
             then m
             else best)
           first rest)

(* 1. Failover: replace crashed NSMs and re-place their VMs. [Nsm.fail]
   already made CoreEngine error out every affected socket, so here the
   controller only restores capacity and re-homes listeners. *)
let detect_failures t =
  let failed, alive =
    List.partition (fun m -> Nsm.failed m.nsm && m.nstate <> Draining) t.pool
  in
  (* Draining NSMs that failed (or were retired) just leave the pool. *)
  let alive = List.filter (fun m -> not (Nsm.failed m.nsm)) alive in
  t.pool <- alive;
  List.iter
    (fun dead ->
      t.stats.failovers <- t.stats.failovers + 1;
      Nkmon.Registry.incr t.c_failover;
      ctl_event t "failover" (Printf.sprintf "nsm=%s" (Nsm.name dead.nsm));
      let orphans = vms_homed_on t dead in
      List.iter
        (fun mv ->
          let target =
            match pick_target t ~excluding:dead with
            | Some m -> m
            | None -> spawn_managed t
          in
          rehome t mv target ~source_alive:false)
        orphans)
    failed;
  if actives t = [] && t.vms <> [] then ignore (spawn_managed t)

(* 2. Retire drained NSMs whose last established connection closed. *)
let complete_drains t =
  let ce = Host.coreengine t.host in
  let done_, rest =
    List.partition
      (fun m ->
        m.nstate = Draining
        && Coreengine.nsm_conn_count ce ~nsm_id:(Nsm.id m.nsm) = 0)
      t.pool
  in
  t.pool <- rest;
  List.iter
    (fun m ->
      Nsm.retire m.nsm;
      t.stats.drains_completed <- t.stats.drains_completed + 1;
      Nkmon.Registry.incr t.c_drain_done;
      ctl_event t "drain_done" (Printf.sprintf "nsm=%s" (Nsm.name m.nsm)))
    done_

(* 3. Sample per-NSM load from Nkmon-visible signals: vCPU utilization over
   the last period plus CoreEngine connection counts. *)
let take_sample t =
  let now = Engine.now (Host.engine t.host) in
  let elapsed = now -. t.last_sample_time in
  let ce = Host.coreengine t.host in
  let util_of m =
    let busy = Nsm.busy_cycles m.nsm in
    let delta = busy -. m.last_busy in
    m.last_busy <- busy;
    let capacity =
      Array.fold_left
        (fun acc core -> acc +. (Cpu.freq_hz core *. elapsed))
        0.0
        (Cpu.Set.cores (Nsm.cores m.nsm))
    in
    if capacity > 0.0 then delta /. capacity else 0.0
  in
  let act = actives t in
  let utils = List.map util_of act in
  (* Draining NSMs still burn cycles; account them so last_busy stays fresh,
     but only actives drive the watermark decision. *)
  List.iter (fun m -> if m.nstate = Draining then ignore (util_of m)) t.pool;
  let mean =
    match utils with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils)
  in
  let conns =
    List.fold_left
      (fun acc m -> acc + Coreengine.nsm_conn_count ce ~nsm_id:(Nsm.id m.nsm))
      0 t.pool
  in
  (* The CE signal is the *busiest* shard, not the mean: the affinity
     function can leave one shard hot while others idle, and only the hot
     shard's saturation throttles switching. Shards added by a scale-out
     start with delta 0 (their busy at appearance becomes the baseline). *)
  let ce_util =
    if not (Host.netkernel_enabled t.host) || elapsed <= 0.0 then 0.0
    else begin
      let cores = Host.ce_cores t.host in
      if Array.length t.ce_last_busy < Array.length cores then begin
        let grown =
          Array.init (Array.length cores) (fun i ->
              if i < Array.length t.ce_last_busy then t.ce_last_busy.(i)
              else Cpu.busy_cycles cores.(i))
        in
        t.ce_last_busy <- grown
      end;
      Array.to_list cores
      |> List.mapi (fun i core ->
             let busy = Cpu.busy_cycles core in
             let delta = busy -. t.ce_last_busy.(i) in
             t.ce_last_busy.(i) <- busy;
             delta /. (Cpu.freq_hz core *. elapsed))
      |> List.fold_left Float.max 0.0
    end
  in
  let s =
    {
      s_time = now;
      s_active = List.length act;
      s_draining = List.length t.pool - List.length act;
      s_utilization = mean;
      s_conns = conns;
      s_ce_utilization = ce_util;
    }
  in
  t.samples_rev <- s :: t.samples_rev;
  t.last_sample_time <- now;
  Nkmon.Registry.set t.g_active (float_of_int s.s_active);
  Nkmon.Registry.set t.g_draining (float_of_int s.s_draining);
  s

(* Spread tracked VMs over the active pool: move VMs off the most crowded
   NSM while another has at least two fewer. *)
let rebalance t =
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    match actives t with
    | [] | [ _ ] -> ()
    | act ->
        let count m = List.length (vms_homed_on t m) in
        let most =
          List.fold_left (fun b m -> if count m > count b then m else b)
            (List.hd act) act
        in
        let least =
          List.fold_left (fun b m -> if count m < count b then m else b)
            (List.hd act) act
        in
        if count most >= count least + 2 then begin
          (match vms_homed_on t most with
          | mv :: _ -> rehome t mv least ~source_alive:true
          | [] -> ());
          continue_ := true
        end
  done

let scale_out_ce t ~add =
  Host.scale_ce t.host ~add;
  t.stats.ce_scale_outs <- t.stats.ce_scale_outs + 1;
  Nkmon.Registry.incr t.c_ce_scale;
  ctl_event t "ce_scale_out"
    (Printf.sprintf "add=%d shards=%d" add
       (Coreengine.n_shards (Host.coreengine t.host)))

(* 4. Watermark decisions, rate-limited by the cooldown. NSM and CE
   scale-outs are gated by independent cooldowns: a host whose CE saturates
   while its NSMs also run hot needs both grown, and neither decision
   should starve the other. *)
let scale t (s : sample) =
  let now = Engine.now (Host.engine t.host) in
  let n_active = s.s_active in
  if
    Host.netkernel_enabled t.host
    && s.s_ce_utilization > t.policy.ce_scale_watermark
    && Coreengine.n_shards (Host.coreengine t.host) < t.policy.max_ce_shards
    && now -. t.last_ce_scale >= t.policy.cooldown
  then begin
    scale_out_ce t ~add:1;
    t.last_ce_scale <- now
  end;
  if now -. t.last_scale >= t.policy.cooldown then
    if s.s_utilization > t.policy.high_watermark && n_active < t.policy.max_nsms
    then begin
      ignore (spawn_managed t);
      t.stats.scale_ups <- t.stats.scale_ups + 1;
      Nkmon.Registry.incr t.c_scale_up;
      t.last_scale <- now;
      rebalance t
    end
    else if
      s.s_utilization < t.policy.low_watermark && n_active > t.policy.min_nsms
    then begin
      (* Drain the newest active NSM; its VMs move to the others first. *)
      match List.rev (actives t) with
      | [] -> ()
      | victim :: _ ->
          List.iter
            (fun mv ->
              match pick_target t ~excluding:victim with
              | Some target -> rehome t mv target ~source_alive:true
              | None -> ())
            (vms_homed_on t victim);
          if vms_homed_on t victim = [] then begin
            drain_if_empty t victim;
            t.stats.scale_downs <- t.stats.scale_downs + 1;
            Nkmon.Registry.incr t.c_scale_down;
            t.last_scale <- now
          end
    end

let tick t =
  detect_failures t;
  complete_drains t;
  let s = take_sample t in
  scale t s

let rec loop t =
  if t.running then
    ignore
      (Engine.schedule (Host.engine t.host) ~delay:t.policy.period (fun () ->
           if t.running then begin
             tick t;
             loop t
           end))

let start t =
  if not t.running then begin
    t.running <- true;
    t.last_sample_time <- Engine.now (Host.engine t.host);
    ctl_event t "start"
      (Printf.sprintf "period=%gs pool=%d" t.policy.period (pool_size t));
    loop t
  end

let stop t = t.running <- false
