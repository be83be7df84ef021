module Cpu = Sim.Cpu

type backend =
  | Baseline
  | Nk of { guestlib : Guestlib.t; device : Nk_device.t; hugepages : Hugepages.t }

type t = {
  host : Host.t;
  name : string;
  vm_id : int;
  cores : Cpu.Set.t;
  ips : Addr.ip list;
  backend : backend;
  api : Tcpstack.Socket_api.t;
}

let attach_nsm t nsm =
  match t.backend with
  | Baseline -> invalid_arg (t.name ^ ": not a NetKernel VM")
  | Nk { hugepages; _ } ->
      let ce = Host.coreengine t.host in
      Coreengine.attach ce ~vm_id:t.vm_id ~nsm_ids:[ Nsm.id nsm ];
      Nsm.register_vm nsm ~vm_id:t.vm_id ~hugepages ~ips:t.ips

let detach_nsm t nsm =
  match t.backend with
  | Baseline -> invalid_arg (t.name ^ ": not a NetKernel VM")
  | Nk _ -> Coreengine.detach (Host.coreengine t.host) ~vm_id:t.vm_id ~nsm_id:(Nsm.id nsm)

let vm_id t = t.vm_id
let api t = t.api
let cores t = t.cores
let ips t = t.ips
let busy_cycles t = Cpu.Set.total_busy_cycles t.cores

let guestlib t = match t.backend with Nk { guestlib; _ } -> Some guestlib | Baseline -> None

let hugepages t =
  match t.backend with Nk { hugepages; _ } -> Some hugepages | Baseline -> None

let device t = match t.backend with Nk { device; _ } -> Some device | Baseline -> None

let create_baseline host ~name ~vcpus ~ips ?(profile = Sim.Cost_profile.linux_kernel) () =
  let cores = Host.new_cores host ~name ~n:vcpus in
  let stack =
    Tcpstack.Stack.create ~engine:(Host.engine host) ~name ~cores
      ~vswitch:(Host.vswitch host) ~registry:(Host.registry host) ~rng:(Host.rng host)
      ~mon:(Host.mon host) ~spans:(Host.spans host)
      (Tcpstack.Stack.default_config profile)
  in
  List.iter
    (fun ip ->
      Tcpstack.Stack.add_ip stack ip;
      Host.own_ip host ip)
    ips;
  { host; name; vm_id = 0; cores; ips; backend = Baseline;
    api = Tcpstack.Direct_socket.make stack }

let create_nk host ~name ~vcpus ~ips ~nsms () =
  if nsms = [] then invalid_arg "Vm.create_nk: need at least one NSM";
  Host.enable_netkernel host;
  let vm_id = Host.fresh_vm_id host in
  let cores = Host.new_cores host ~name ~n:vcpus in
  let mon = Host.mon host in
  let hugepages = Hugepages.create ~mon ~region:(Printf.sprintf "vm%d" vm_id) () in
  let spans = Host.spans host in
  let device =
    Nk_device.create ~id:vm_id ~role:Nk_device.Vm_side ~qsets:vcpus ~hugepages ~mon
      ~spans ()
  in
  let guestlib =
    Guestlib.create ~engine:(Host.engine host) ~vm_id ~cores ~device
      ~profile:Sim.Cost_profile.linux_kernel ~mon ~spans ()
  in
  let ce = Host.coreengine host in
  Coreengine.register_vm ce device;
  Coreengine.attach ce ~vm_id ~nsm_ids:(List.map Nsm.id nsms);
  List.iter
    (fun nsm ->
      Nsm.register_vm nsm ~vm_id ~hugepages ~ips)
    nsms;
  List.iter (Host.own_ip host) ips;
  { host; name; vm_id; cores; ips; backend = Nk { guestlib; device; hugepages };
    api = Guestlib.api guestlib }
