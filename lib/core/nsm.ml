module Cpu = Sim.Cpu

type backend =
  | Svc of { service : Servicelib.t; proto : string; stacks : Tcpstack.Stack.t list }
  | Shm of Nsm_shmem.t

type t = {
  host : Host.t;
  nsm_id : int;
  name : string;
  cores : Cpu.Set.t;
  device : Nk_device.t;
  backend : backend;
  mutable failed : bool;
}

let id t = t.nsm_id
let name t = t.name
let cores t = t.cores
let device t = t.device
let failed t = t.failed

let make_device host ~nsm_id ~vcpus =
  (* The NSM-side device needs no payload region of its own: payloads live
     in the per-VM hugepages (so the dummy region stays unmonitored). *)
  Nk_device.create ~id:nsm_id ~role:Nk_device.Nsm_side ~qsets:vcpus
    ~hugepages:(Hugepages.create ~page_size:4096 ~pages:1 ())
    ~mon:(Host.mon host) ~spans:(Host.spans host) ()

let finish host ~name ~cores ~device ~backend ~nsm_id =
  Host.enable_netkernel host;
  Coreengine.register_nsm (Host.coreengine host) device;
  { host; nsm_id; name; cores; device; backend; failed = false }

(* Several NSMs may originate connections from one VM IP, so each takes a
   disjoint slice of the ephemeral ports: its first port and the slice
   length. *)
let ephemeral_slice = 3500

let ephemeral_base nsm_id = 32768 + (nsm_id mod 8 * ephemeral_slice)

let create_kernel host ~name ~vcpus ?cc_factory () =
  let nsm_id = Host.fresh_nsm_id host in
  let cores = Host.new_cores host ~name ~n:vcpus in
  let device = make_device host ~nsm_id ~vcpus in
  let base = Tcpstack.Stack.default_config Sim.Cost_profile.linux_kernel in
  let cfg =
    {
      base with
      (* ServiceLib calls kernel APIs directly and charges the hugepage
         copy itself. *)
      Tcpstack.Stack.charge_user_io = false;
      cc_factory = Option.value cc_factory ~default:base.Tcpstack.Stack.cc_factory;
      ephemeral_range =
        (ephemeral_base nsm_id, ephemeral_base nsm_id + ephemeral_slice - 1);
    }
  in
  let stack =
    Tcpstack.Stack.create ~engine:(Host.engine host) ~name ~cores ~vswitch:(Host.vswitch host)
      ~registry:(Host.registry host) ~rng:(Host.rng host) ~mon:(Host.mon host)
      ~spans:(Host.spans host) cfg
  in
  let service =
    Servicelib.create ~engine:(Host.engine host) ~device
      ~ops:(Tcpstack.Tcp_ops.of_stack stack) ~cores ~costs:(Host.costs host)
      ~pressure:(Host.pressure host) ~mon:(Host.mon host) ~spans:(Host.spans host) ()
  in
  finish host ~name ~cores ~device
    ~backend:(Svc { service; proto = Tcpstack.Tcp_ops.proto; stacks = [ stack ] })
    ~nsm_id

let create_mtcp host ~name ~vcpus () =
  let nsm_id = Host.fresh_nsm_id host in
  let cores = Host.new_cores host ~name ~n:vcpus in
  let device = make_device host ~nsm_id ~vcpus in
  let mtcp =
    Mtcpstack.Mtcp.create ~engine:(Host.engine host) ~name ~cores
      ~vswitch:(Host.vswitch host) ~registry:(Host.registry host) ~rng:(Host.rng host)
      ~mon:(Host.mon host) ()
  in
  let service =
    Servicelib.create ~engine:(Host.engine host) ~device ~ops:(Mtcpstack.Mtcp.ops mtcp)
      ~cores ~costs:(Host.costs host) ~pressure:(Host.pressure host) ~mon:(Host.mon host)
      ~spans:(Host.spans host) ()
  in
  finish host ~name ~cores ~device
    ~backend:
      (Svc
         {
           service;
           proto = Tcpstack.Tcp_ops.proto;
           stacks = Array.to_list (Mtcpstack.Mtcp.shards mtcp);
         })
    ~nsm_id

let create_homa host ~name ~vcpus () =
  let nsm_id = Host.fresh_nsm_id host in
  let cores = Host.new_cores host ~name ~n:vcpus in
  let device = make_device host ~nsm_id ~vcpus in
  let cfg =
    {
      Homastack.Homa.default_config with
      ephemeral_base = ephemeral_base nsm_id;
      ephemeral_count = ephemeral_slice;
    }
  in
  let homa =
    Homastack.Homa.create ~engine:(Host.engine host) ~name ~cores
      ~vswitch:(Host.vswitch host) ~registry:(Host.registry host) ~mon:(Host.mon host)
      ~spans:(Host.spans host) ~cfg ()
  in
  let service =
    Servicelib.create ~engine:(Host.engine host) ~device ~ops:(Homastack.Homa.ops homa)
      ~cores ~costs:(Host.costs host) ~pressure:(Host.pressure host) ~mon:(Host.mon host)
      ~spans:(Host.spans host) ()
  in
  finish host ~name ~cores ~device
    ~backend:(Svc { service; proto = Homastack.Homa.proto; stacks = [] })
    ~nsm_id

let create_shmem host ~name ~vcpus () =
  let nsm_id = Host.fresh_nsm_id host in
  let cores = Host.new_cores host ~name ~n:vcpus in
  let device = make_device host ~nsm_id ~vcpus in
  let shm =
    Nsm_shmem.create ~engine:(Host.engine host) ~device ~cores ~mon:(Host.mon host)
      ~spans:(Host.spans host) ()
  in
  finish host ~name ~cores ~device ~backend:(Shm shm) ~nsm_id

let register_vm t ~vm_id ~hugepages ~ips =
  match t.backend with
  | Svc { service; _ } -> Servicelib.register_vm service ~vm_id ~hugepages ~ips
  | Shm shm -> Nsm_shmem.register_vm shm ~vm_id ~hugepages ~ips

let close_vm_listeners t ~vm_id =
  match t.backend with
  | Svc { service; _ } -> Servicelib.close_vm_listeners service ~vm_id
  | Shm _ -> ()

(* Live-migration verbs (Nkfabric): only ServiceLib-backed NSMs carry
   serializable per-VM state; the shared-memory NSM has no cross-host
   story. *)

let service_exn t ~verb =
  match t.backend with
  | Svc { service; _ } -> service
  | Shm _ -> invalid_arg (Printf.sprintf "Nsm.%s: %s is a shared-memory NSM" verb t.name)

let export_vm t ~vm_id = Servicelib.export_vm (service_exn t ~verb:"export_vm") ~vm_id

let import_vm t x ~hugepages ~ips =
  Servicelib.import_vm (service_exn t ~verb:"import_vm") x ~hugepages ~ips

let set_vm_forwarder t ~vm_id f =
  Servicelib.set_vm_forwarder (service_exn t ~verb:"set_vm_forwarder") ~vm_id f

let release_vm_ips t ~ips =
  match t.backend with
  | Svc { service; _ } -> Servicelib.release_ips service ips
  | Shm _ -> ()

let quiesce_vm_listeners t ~vm_id =
  Servicelib.quiesce_vm_listeners (service_exn t ~verb:"quiesce_vm_listeners") ~vm_id

let fail t =
  if not t.failed then begin
    t.failed <- true;
    (* Silence the module first (no NQE consumed, no parting NQE posted),
       then let CoreEngine drop the device and error out every socket it
       was serving. *)
    Nk_device.stop_serving t.device;
    (match t.backend with
    | Svc { service; _ } -> Servicelib.fail service
    | Shm shm -> Nsm_shmem.fail shm);
    Coreengine.crash_nsm (Host.coreengine t.host) ~nsm_id:t.nsm_id
  end

let retire t =
  if not t.failed then begin
    t.failed <- true;
    Coreengine.deregister_nsm (Host.coreengine t.host) ~nsm_id:t.nsm_id
  end

let stack_stats t =
  match t.backend with
  | Svc { stacks; _ } -> List.map Tcpstack.Stack.stats stacks
  | Shm _ -> []

let proto t =
  match t.backend with Svc { proto; _ } -> proto | Shm _ -> "shm"

let servicelib_stats t =
  match t.backend with Svc { service; _ } -> Some (Servicelib.stats service) | Shm _ -> None

let busy_cycles t = Cpu.Set.total_busy_cycles t.cores
