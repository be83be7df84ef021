open Nkcore
module Engine = Sim.Engine
module Cpu = Sim.Cpu

(* ---- inter-host NQE spine ----------------------------------------------- *)

(* Inter-host NQE interconnect: one directed store-and-forward link per host
   pair, with per-link serialization rate and propagation latency.
   Deliveries are FIFO per link (monotone link-busy time), which is what
   carries the relay's ordering guarantee. *)
module Spine = struct
  (* Every directed link: 50 us one-way latency, 40 Gb/s. *)
  let latency = 50e-6

  let bytes_per_sec = 40.0 *. 1e9 /. 8.0

  type link = { mutable l_free_at : float; mutable l_nqes : int; mutable l_bytes : int }

  type t = {
    engine : Engine.t;
    links : (int * int, link) Hashtbl.t; (* directed (src node, dst node) *)
    c_nqes : Nkmon.Registry.counter;
    c_bytes : Nkmon.Registry.counter;
  }

  let create ~engine ~mon () =
    let c name = Nkmon.counter mon ~component:"nkfabric" ~instance:"spine" ~name in
    (* Per-link capacity next to the shipped counters, so saturation
       (windowed bytes_shipped delta vs capacity) is computable from a
       registry snapshot alone — the Nkobs spine alert reads it. *)
    Nkmon.sampler mon ~component:"nkfabric" ~instance:"spine"
      ~name:"link_capacity_bytes_per_sec" (fun () -> bytes_per_sec);
    {
      engine;
      links = Hashtbl.create 16;
      c_nqes = c "nqes_shipped";
      c_bytes = c "bytes_shipped";
    }

  let link t ~src ~dst =
    match Hashtbl.find_opt t.links (src, dst) with
    | Some l -> l
    | None ->
        let l = { l_free_at = 0.0; l_nqes = 0; l_bytes = 0 } in
        Hashtbl.replace t.links (src, dst) l;
        l

  (* Store-and-forward: serialization at the link rate, then propagation.
     [l_free_at] is monotone, so same-link deliveries stay FIFO — the
     relay's per-connection ordering guarantee rides on this. *)
  let ship t ~src ~dst ~bytes deliver =
    let l = link t ~src ~dst in
    let now = Engine.now t.engine in
    let start = Float.max now l.l_free_at in
    let txtime = float_of_int bytes /. bytes_per_sec in
    l.l_free_at <- start +. txtime;
    l.l_nqes <- l.l_nqes + 1;
    l.l_bytes <- l.l_bytes + bytes;
    Nkmon.Registry.incr t.c_nqes;
    Nkmon.Registry.add t.c_bytes bytes;
    ignore (Engine.schedule_at t.engine ~at:(start +. txtime +. latency) deliver)

  let shipped t =
    Nkutil.Det_tbl.fold
      ~cmp:(Nkutil.Det_tbl.pair Int.compare Int.compare)
      (fun _ l (n, b) -> (n + l.l_nqes, b + l.l_bytes))
      t.links (0, 0)
end

(* ---- cluster ------------------------------------------------------------- *)

type policy = Spread | Pack

type node = {
  n_index : int;
  n_host : Host.t;
  n_mon : Nkmon.t; (* per-node registry + trace ring *)
  n_spans : Nkspan.t; (* per-node spans, host-unique ids *)
  mutable n_nsms : Nsm.t list; (* serving pool, add order *)
  mutable n_ctl : Nkctl.t option;
}

(* The standing datapath of a migrated VM. The home side never changes (the
   VM's GuestLib lives there); the destination side is re-pointed on
   re-migration, and every spine delivery resolves [r_proxy] at arrival
   time, so shipments in flight across a re-migration still land on the
   current destination. *)
type relay = {
  r_vm_id : int;
  r_home : node;
  r_stub : Nk_device.t;
  mutable r_dest : node;
  mutable r_dest_nsm : Nsm.t;
  mutable r_proxy : Nk_device.t;
  mutable r_nqes_out : int; (* home -> dest *)
  mutable r_nqes_back : int; (* dest -> home *)
}

type vm_entry = {
  e_vm : Vm.t;
  e_home : node;
  mutable e_node : node; (* node currently serving the VM's flows *)
  mutable e_nsm : Nsm.t;
  mutable e_relay : relay option;
}

type stats = {
  migrations : int;
  vms_relayed : int;
  nqes_shipped : int;
  bytes_shipped : int;
}

type t = {
  tb : Testbed.t;
  spine : Spine.t;
  policy : policy;
  mutable nodes : node list; (* add order *)
  mutable vms : vm_entry list; (* add order *)
  relays : (int, relay) Hashtbl.t; (* vm_id -> relay (lookup only) *)
  mutable migrations : int;
  c_migrations : Nkmon.Registry.counter;
}

let fabric_event t name detail =
  Nkmon.event t.tb.Testbed.mon (Nkmon.Trace.Custom { component = "nkfabric"; name; detail })

let create ?(policy = Spread) tb =
  {
    tb;
    spine = Spine.create ~engine:tb.Testbed.engine ~mon:tb.Testbed.mon ();
    policy;
    nodes = [];
    vms = [];
    relays = Hashtbl.create 16;
    migrations = 0;
    c_migrations =
      Nkmon.counter tb.Testbed.mon ~component:"nkfabric" ~instance:"cluster"
        ~name:"migrations";
  }

(* Disjoint per-node id ranges keep device ids unique cluster-wide, so a
   migrated NSM's id can exist on two hosts without clashing. The NQE vm_id
   field is one byte, which bounds the id space. *)
let ids_per_node = 40

let add_node t ~name =
  let idx = List.length t.nodes in
  let base = 1 + (ids_per_node * idx) in
  if base + ids_per_node > 256 then
    invalid_arg "Nkfabric.add_node: id space exhausted (max 6 nodes)";
  (* Each node keeps its own registry, trace ring and span recorder — built
     with the testbed's knobs, so one Config governs the whole cluster. Span
     host index [idx + 1] leaves 0 for the testbed-wide instance (plain
     hosts outside the cluster); ids can then never collide across hosts. *)
  let engine = t.tb.Testbed.engine in
  let cfg = t.tb.Testbed.config in
  let mon =
    Nkmon.create ?trace_capacity:cfg.Testbed.Config.trace_capacity
      ~trace_enabled:cfg.Testbed.Config.trace_enabled
      ~now:(fun () -> Engine.now engine)
      ()
  in
  let spans =
    Nkspan.create ~span_every:cfg.Testbed.Config.span_every ~host_index:(idx + 1)
      ~now:(fun () -> Engine.now engine)
      ()
  in
  let host = Testbed.add_host ~mon ~spans t.tb ~name in
  Host.set_id_base host base;
  let node =
    { n_index = idx; n_host = host; n_mon = mon; n_spans = spans; n_nsms = []; n_ctl = None }
  in
  t.nodes <- t.nodes @ [ node ];
  node

let testbed t = t.tb

let nodes t = t.nodes

let node_host n = n.n_host

let node_index n = n.n_index

let node_mon n = n.n_mon

let node_spans n = n.n_spans

let node_nsms n = n.n_nsms

let add_nsm _t node nsm =
  if not (List.exists (fun m -> Nsm.id m = Nsm.id nsm) node.n_nsms) then
    node.n_nsms <- node.n_nsms @ [ nsm ]

let set_ctl node ctl = node.n_ctl <- Some ctl

(* ---- placement ----------------------------------------------------------- *)

let live_nsms node = List.filter (fun m -> not (Nsm.failed m)) node.n_nsms

let node_vm_count t node =
  List.length (List.filter (fun e -> e.e_node.n_index = node.n_index) t.vms)

let node_utilization t node =
  let now = Engine.now t.tb.Testbed.engine in
  if now <= 0.0 then 0.0
  else begin
    let busy, cap =
      List.fold_left
        (fun (b, c) nsm ->
          let cores = Cpu.Set.cores (Nsm.cores nsm) in
          ( b +. Nsm.busy_cycles nsm,
            c +. Array.fold_left (fun acc core -> acc +. (Cpu.freq_hz core *. now)) 0.0 cores
          ))
        (0.0, 0.0) (live_nsms node)
    in
    if cap > 0.0 then busy /. cap else 0.0
  end

let pick_node t =
  match List.filter (fun n -> live_nsms n <> []) t.nodes with
  | [] -> invalid_arg "Nkfabric.place_vm: no node has a live NSM"
  | first :: rest -> (
      match t.policy with
      | Spread ->
          (* Lowest utilization; ties by VM count, then add order (the fold
             keeps the earlier node unless strictly better). *)
          List.fold_left
            (fun best n ->
              let fu = Float.compare (node_utilization t n) (node_utilization t best) in
              if fu < 0 || (fu = 0 && node_vm_count t n < node_vm_count t best) then n
              else best)
            first rest
      | Pack ->
          List.fold_left
            (fun best n -> if node_vm_count t n > node_vm_count t best then n else best)
            first rest)

let nsm_vm_count t nsm =
  List.length (List.filter (fun e -> Nsm.id e.e_nsm = Nsm.id nsm) t.vms)

let pick_nsm t node =
  match live_nsms node with
  | [] -> invalid_arg "Nkfabric.place_vm: node has no live NSM"
  | first :: rest ->
      List.fold_left
        (fun best nsm -> if nsm_vm_count t nsm < nsm_vm_count t best then nsm else best)
        first rest

let place_vm t ~name ~vcpus ~ips () =
  let node = pick_node t in
  let nsm = pick_nsm t node in
  let vm = Vm.create_nk node.n_host ~name ~vcpus ~ips ~nsms:[ nsm ] () in
  (match node.n_ctl with Some ctl -> Nkctl.add_vm ctl vm ~home:nsm | None -> ());
  t.vms <- t.vms @ [ { e_vm = vm; e_home = node; e_node = node; e_nsm = nsm; e_relay = None } ];
  fabric_event t "place"
    (Printf.sprintf "vm=%s node=%s nsm=%s" name (Host.name node.n_host) (Nsm.name nsm));
  vm

let vm_node t vm =
  match List.find_opt (fun e -> Vm.vm_id e.e_vm = Vm.vm_id vm) t.vms with
  | Some e -> Some e.e_node
  | None -> None

(* ---- the relay datapath -------------------------------------------------- *)

(* Wire cost of one relayed NQE: the 32-byte record, plus the payload bytes
   for data-carrying operations (the hugepage region is shared by reference
   in simulation, so the spine is where payload transfer is charged). *)
let wire_bytes raw =
  match Nqe.View.op raw 0 with
  | Nqe.Send | Nqe.Ev_data -> Nqe.size_bytes + Nqe.View.size raw 0
  | _ -> Nqe.size_bytes

(* Home -> destination: a VM->NSM NQE switched into the stub travels to the
   proxy, whose post kicks the destination CoreEngine towards the serving
   NSM. The proxy is read at delivery time (re-migration re-points it).
   The NQE at [pos] of [buf] is valid only during the call, so the
   shipment carries its own copy. *)
let ship_to_dest t relay ~src buf pos =
  let raw = Bytes.sub buf pos Nqe.size_bytes in
  relay.r_nqes_out <- relay.r_nqes_out + 1;
  (* Traced requests crossing the spine record the flight as an explicit
     ["spine"] stage. The span was minted by the home host's GuestLib, so
     it lives in the home node's recorder; stage calls with a foreign id
     are no-ops there, which makes this safe for every shipment. *)
  let span = Nqe.View.span raw 0 in
  if span <> 0 then
    Nkspan.begin_stage relay.r_home.n_spans ~id:span ~component:"nkfabric" "spine";
  Spine.ship t.spine ~src ~dst:relay.r_dest.n_index ~bytes:(wire_bytes raw) (fun () ->
      if span <> 0 then Nkspan.end_stage relay.r_home.n_spans ~id:span "spine";
      Nk_device.post relay.r_proxy ~qset:(Nqe.View.qset raw 0) raw 0)

(* Destination -> home: an NSM->VM NQE drained from the proxy re-enters the
   home CoreEngine through the stub. The queue set mirrors CoreEngine's own
   choice ([route_nsm_to_vm]): it hashes the socket the home CE will key its
   auto-added route on (the new-connection id for Ev_accept, the socket id
   otherwise), so follow-up NQEs of the same connection land on the same
   queue set. *)
let ship_back t relay ~src buf pos =
  let raw = Bytes.sub buf pos Nqe.size_bytes in
  relay.r_nqes_back <- relay.r_nqes_back + 1;
  let span = Nqe.View.span raw 0 in
  if span <> 0 then
    Nkspan.begin_stage relay.r_home.n_spans ~id:span ~component:"nkfabric" "spine";
  Spine.ship t.spine ~src ~dst:relay.r_home.n_index ~bytes:(wire_bytes raw) (fun () ->
      if span <> 0 then Nkspan.end_stage relay.r_home.n_spans ~id:span "spine";
      let key =
        match Nqe.View.op raw 0 with
        | Nqe.Ev_accept -> Nqe.View.size raw 0
        | _ -> Nqe.View.sock raw 0
      in
      Nk_device.post relay.r_stub ~qset:(Nk_device.hash_qset relay.r_stub key) raw 0)

(* One stub can carry several VMs' routes (the departed NSM multiplexed
   them); each drained NQE finds its own relay by vm id. *)
let install_stub t stubdev =
  let ship buf pos =
    match Hashtbl.find_opt t.relays (Nqe.View.vm_id buf pos) with
    | Some relay -> ship_to_dest t relay ~src:relay.r_home.n_index buf pos
    | None -> ()
  in
  Nk_device.set_kick_owner stubdev (fun qset ->
      Nk_device.drain stubdev ~qset ~toward:`Nsm ship)

(* The proxy captures its device: after a re-migration a stale wake on the
   old proxy must not drain the new one. *)
let install_proxy t relay proxy =
  let ship buf pos = ship_back t relay ~src:relay.r_dest.n_index buf pos in
  Nk_device.set_kick_owner proxy (fun qset -> Nk_device.drain proxy ~qset ~toward:`Vm ship)

(* ---- live migration ------------------------------------------------------ *)

let create_dest t ~source ~dst =
  let nsm =
    Nsm.create_kernel dst.n_host
      ~name:(Printf.sprintf "%s@%s" (Nsm.name source) (Host.name dst.n_host))
      ~vcpus:(Cpu.Set.n (Nsm.cores source))
      ()
  in
  add_nsm t dst nsm;
  nsm

(* Per-VM half of the protocol: quiesce on the source, resume on the
   destination, stitch (or re-target) the relay. The caller then drains the
   source device, re-homes the routes and retires the source. *)
let migrate_vm t e ~source ~src_node ~dst ~dest_nsm ~get_stub =
  let vm_id = Vm.vm_id e.e_vm in
  let ips = Vm.ips e.e_vm in
  let hugepages =
    match Vm.hugepages e.e_vm with
    | Some h -> h
    | None -> invalid_arg "Nkfabric.migrate_nsm: not a NetKernel VM"
  in
  let vm_dev =
    match Vm.device e.e_vm with
    | Some d -> d
    | None -> invalid_arg "Nkfabric.migrate_nsm: not a NetKernel VM"
  in
  (* Quiesce: serialize every socket out of the source ServiceLib (no RST,
     no events; listeners close silently and are replayed at the end). *)
  let export =
    match Nsm.export_vm source ~vm_id with
    | Some x -> x
    | None ->
        invalid_arg
          (Printf.sprintf "Nkfabric.migrate_nsm: vm %d is not registered on %s" vm_id
             (Nsm.name source))
  in
  (* Destination side: the proxy impersonates the VM — same device id, same
     queue-set geometry, the VM's real hugepage region (payload extents in
     the export are plain offsets into it). *)
  let ce_dst = Host.coreengine dst.n_host in
  Coreengine.attach ce_dst ~vm_id ~nsm_ids:[ Nsm.id dest_nsm ];
  let make_proxy () =
    let proxy =
      Nk_device.create ~id:vm_id ~role:Nk_device.Vm_side ~qsets:(Nk_device.n_qsets vm_dev)
        ~hugepages ~mon:(Host.mon dst.n_host) ~spans:(Host.spans dst.n_host) ()
    in
    Coreengine.register_vm ce_dst proxy;
    proxy
  in
  let relay =
    match e.e_relay with
    | Some r when dst.n_index = r.r_home.n_index ->
        (* Coming home: unwind the relay instead of stacking a proxy on top
           of the VM's real device (they would share an id on this CE). The
           record stays in [t.relays] pointed at the real device, so spine
           shipments still in flight — and the stub wakes they trigger —
           deliver into the VM's own rings, where the home CE re-switches
           them to [dest_nsm] via the routes re-added below. *)
        r.r_dest <- dst;
        r.r_dest_nsm <- dest_nsm;
        r.r_proxy <- vm_dev;
        (* Routes the stub still holds for sockets the export does not
           cover (listeners, bare sockets) must go, or their replayed NQEs
           would bounce home CE -> stub -> home CE forever; exported
           connections are re-pinned to [dest_nsm] below. *)
        ignore (Coreengine.forget_vm_routes ce_dst ~vm_id ~nsm_id:(Nk_device.id r.r_stub));
        r
    | Some r ->
        (* Re-migration to a third host: keep the home-side stub and its
           routes; re-point the destination side. Shipments already in
           flight resolve [r_proxy] at delivery and land here. *)
        let proxy = make_proxy () in
        r.r_dest <- dst;
        r.r_dest_nsm <- dest_nsm;
        r.r_proxy <- proxy;
        install_proxy t r proxy;
        r
    | None ->
        let proxy = make_proxy () in
        let stubdev = get_stub () in
        let r =
          {
            r_vm_id = vm_id;
            r_home = src_node;
            r_stub = stubdev;
            r_dest = dst;
            r_dest_nsm = dest_nsm;
            r_proxy = proxy;
            r_nqes_out = 0;
            r_nqes_back = 0;
          }
        in
        Hashtbl.replace t.relays vm_id r;
        (* New sockets from the VM must reach the stub (first-NQE assignment
           consults the attach list). *)
        Coreengine.attach (Host.coreengine src_node.n_host) ~vm_id
          ~nsm_ids:[ Nk_device.id stubdev ];
        install_proxy t r proxy;
        r
  in
  (* Late VM->NSM NQEs already switched towards the gagged source surface
     through its armed wakes and follow the relay, in order. *)
  let fwd_src = src_node.n_index in
  Nsm.set_vm_forwarder source ~vm_id (fun buf pos -> ship_to_dest t relay ~src:fwd_src buf pos);
  (* The source stack must stop claiming the VM's IPs, or in-flight segments
     for migrated flows would draw RSTs and reset them at the peer. *)
  Nsm.release_vm_ips source ~ips;
  (* Resume: rebuild every socket over its original content channel, then
     pin the imported connections to the destination NSM in its CE. *)
  Nsm.import_vm dest_nsm export ~hugepages ~ips;
  List.iter
    (fun (s : Servicelib.sock_export) ->
      match s.Servicelib.x_conn with
      | Some _ ->
          Coreengine.add_route ce_dst ~vm_id ~sock:s.Servicelib.x_gid
            ~nsm_id:(Nsm.id dest_nsm)
            ~nsm_qset:(Nk_device.hash_qset (Nsm.device dest_nsm) s.Servicelib.x_gid)
      | None -> ())
    export.Servicelib.x_socks;
  (* The cluster fabric now delivers the VM's IPs to the destination host,
     whose vswitch carries the imported flow/endpoint registrations. *)
  List.iter (fun ip -> Fabric.add_route t.tb.Testbed.fabric ip (Host.nic dst.n_host)) ips;
  e.e_node <- dst;
  e.e_nsm <- dest_nsm;
  (* Once home, the VM is a plain local VM again; the relay record lives on
     in [t.relays] only for shipments still crossing the spine. *)
  e.e_relay <- (if dst.n_index = relay.r_home.n_index then None else Some relay)

(* The cut: serialize every VM off the (quiesced) source, resume them on the
   destination, stitch the relays, drain-and-replay the source device, and
   retire the source. Runs [quiesce] seconds after {!migrate_nsm}. *)
let migrate_cut t ~source ~src_node ~dst ~dest_nsm ~moving =
  let ce_src = Host.coreengine src_node.n_host in
  (* One stub inherits every first-migration VM's routes; lazily built so a
     pure re-migration allocates nothing on the current host. *)
  let stub = ref None in
  let get_stub () =
    match !stub with
    | Some d -> d
    | None ->
        let d =
          (* No payload region of its own: like a real NSM device, payloads
             live in the per-VM hugepages. *)
          Nk_device.create
            ~id:(Host.fresh_nsm_id src_node.n_host)
            ~role:Nk_device.Nsm_side
            ~qsets:(Nk_device.n_qsets (Nsm.device source))
            ~hugepages:(Hugepages.create ~page_size:4096 ~pages:1 ())
            ~mon:(Host.mon src_node.n_host) ~spans:(Host.spans src_node.n_host) ()
        in
        Coreengine.register_nsm ce_src d;
        install_stub t d;
        stub := Some d;
        d
  in
  (* A VM whose current serving node is not its home has a proxy device
     registered on this CE (its real device lives at home). Capture them
     before [migrate_vm] re-points — or, for a VM coming home, unwinds —
     the relay records. *)
  let stale_proxies =
    List.filter_map
      (fun e ->
        match e.e_relay with
        | Some r when r.r_home.n_index <> src_node.n_index ->
            Some (Vm.vm_id e.e_vm, r.r_proxy)
        | _ -> None)
      moving
  in
  List.iter (fun e -> migrate_vm t e ~source ~src_node ~dst ~dest_nsm ~get_stub) moving;
  (* Drain-and-replay: NSM->VM NQEs the source CoreEngine has not consumed
     yet would be orphaned by the deregistration below. Each queue set's
     completion ring, then its receive ring, is popped directly, spills
     included. First-migration VMs replay them into the stub on the same
     rings and queue sets (order and auto-route keys preserved); re-migrated
     VMs ship them to their home. *)
  let src_dev = Nsm.device source in
  while Nk_device.has_outbound src_dev do
    Nk_device.flush_overflow src_dev;
    for qset = 0 to Nk_device.n_qsets src_dev - 1 do
      Nk_device.drain src_dev ~qset ~toward:`Vm (fun buf pos ->
          match Hashtbl.find_opt t.relays (Nqe.View.vm_id buf pos) with
          | Some r ->
              if r.r_home.n_index = src_node.n_index then Nk_device.post r.r_stub ~qset buf pos
              else ship_back t r ~src:src_node.n_index buf pos
          | None -> ())
    done
  done;
  (* Hand the departed NSM's established-flow routes to the stub in one
     step, then retire it (retire would wipe them in the other order). *)
  (match !stub with
  | Some d ->
      ignore
        (Coreengine.rehome_nsm_routes ce_src ~from_nsm:(Nsm.id source)
           ~to_nsm:(Nk_device.id d))
  | None -> ());
  (* A re-migrated VM's stale proxy on this host is done. First replay the
     VM->NSM NQEs the relay left in its rings: they re-enter the source
     device (appended after its backlog, so the forwarder ships them to the
     new destination in per-connection order). NSM->VM NQEs in its inbound
     rings ship home under the wake already armed for them: the proxy keeps
     its drain handler. Then drop the proxy and its conn-table entries (the
     new destination owns them). *)
  let replay buf pos =
    Nk_device.post src_dev ~qset:(Nk_device.hash_qset src_dev (Nqe.View.sock buf pos)) buf pos
  in
  List.iter
    (fun (vm_id, proxy) ->
      for qset = 0 to Nk_device.n_qsets proxy - 1 do
        Nk_device.drain proxy ~qset ~toward:`Nsm replay
      done;
      Coreengine.deregister_vm ce_src ~vm_id)
    stale_proxies;
  Nsm.retire source;
  (* Listener handover: replay socket/bind/listen from the home GuestLib;
     the replayed NQEs follow stub -> spine -> proxy and re-create the
     listeners on the destination host's vswitch. *)
  List.iter
    (fun e ->
      match Vm.guestlib e.e_vm with
      | Some gl -> Guestlib.remigrate_listeners gl
      | None -> ())
    moving;
  t.migrations <- t.migrations + 1;
  Nkmon.Registry.incr t.c_migrations;
  fabric_event t "migrate"
    (Printf.sprintf "nsm=%s %s->%s vms=%d" (Nsm.name source) (Host.name src_node.n_host)
       (Host.name dst.n_host) (List.length moving))

(* The quiesce window, in virtual seconds. *)
let quiesce = 0.02

let migrate_nsm t ~nsm:source ~dst () =
  if Nsm.failed source then
    invalid_arg "Nkfabric.migrate_nsm: source NSM is retired or crashed";
  let src_node =
    match
      List.find_opt
        (fun n -> List.exists (fun m -> Nsm.id m = Nsm.id source) n.n_nsms)
        t.nodes
    with
    | Some n -> n
    | None -> invalid_arg "Nkfabric.migrate_nsm: source NSM is not in any node's pool"
  in
  if src_node.n_index = dst.n_index then
    invalid_arg "Nkfabric.migrate_nsm: source and destination are the same node";
  let dest_nsm = create_dest t ~source ~dst in
  let moving = List.filter (fun e -> Nsm.id e.e_nsm = Nsm.id source) t.vms in
  (* Pull the source out of the local control loop first: Nkctl would read
     the retired source as a crash on its next tick and fight the migration
     with a failover rehome. *)
  (match src_node.n_ctl with
  | Some ctl ->
      Nkctl.release_nsm ctl source;
      List.iter (fun e -> Nkctl.release_vm ctl ~vm:e.e_vm) moving
  | None -> ());
  (* Out of the serving pool at once: placement must not hand the departing
     source any new VMs during the quiesce window. *)
  src_node.n_nsms <- List.filter (fun m -> Nsm.id m <> Nsm.id source) src_node.n_nsms;
  (* Quiesce: the moving VMs' listeners silently drop fresh SYNs (their RTO
     retry lands on the destination after the cut) while in-flight
     handshakes and queued accepts settle — so the cut finds empty accept
     queues and resets nothing. *)
  List.iter (fun e -> Nsm.quiesce_vm_listeners source ~vm_id:(Vm.vm_id e.e_vm)) moving;
  fabric_event t "quiesce"
    (Printf.sprintf "nsm=%s vms=%d window=%gs" (Nsm.name source) (List.length moving) quiesce);
  ignore
    (Engine.schedule t.tb.Testbed.engine ~delay:quiesce (fun () ->
         migrate_cut t ~source ~src_node ~dst ~dest_nsm ~moving));
  dest_nsm

let stats t =
  let nqes_shipped, bytes_shipped = Spine.shipped t.spine in
  (* Relay records are kept for life (in-flight shipments and stub wakes
     look them up), but a VM whose relay was unwound is home again and no
     longer counts as relayed. *)
  let vms_relayed =
    Nkutil.Det_tbl.fold ~cmp:Int.compare
      (fun _ r acc -> if r.r_dest.n_index <> r.r_home.n_index then acc + 1 else acc)
      t.relays 0
  in
  { migrations = t.migrations; vms_relayed; nqes_shipped; bytes_shipped }
