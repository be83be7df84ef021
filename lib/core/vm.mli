(** User virtual machines.

    A VM owns vCPUs and IPs and exposes one {!Tcpstack.Socket_api.t} to the
    application regardless of how networking is provided — the paper's
    transparency claim:

    - {!create_baseline}: status quo, a full TCP stack inside the guest;
    - {!create_nk}: NetKernel — GuestLib redirection, an NK device with one
      queue set per vCPU, a hugepage region shared with the NSM(s), and a
      CoreEngine attachment. With several NSMs, CoreEngine spreads sockets
      round-robin (paper §7.5). *)

type t

val create_baseline :
  Host.t ->
  name:string ->
  vcpus:int ->
  ips:Addr.ip list ->
  ?profile:Sim.Cost_profile.t ->
  unit ->
  t

val create_nk :
  Host.t ->
  name:string ->
  vcpus:int ->
  ips:Addr.ip list ->
  nsms:Nsm.t list ->
  unit ->
  t
(** The guest kernel's syscall/copy/epoll costs of the redirected calls
    follow {!Sim.Cost_profile.linux_kernel}. The shared payload region has
    the {!Hugepages.create} defaults (32 pages of 2 MB). *)

val attach_nsm : t -> Nsm.t -> unit
(** Switch the VM to [nsm] on the fly (paper §3: the queue/switch design
    makes the VM-to-NSM mapping dynamic). New sockets are served by the new
    NSM; established connections keep their current NSM until they close.
    Only valid for NetKernel VMs. *)

val detach_nsm : t -> Nsm.t -> unit
(** Remove [nsm] from the VM's assignment pool: it receives no new sockets
    from this VM; established connections keep their route until they
    close. Only valid for NetKernel VMs. *)

val vm_id : t -> int
(** 0 for baseline VMs (they have no NK identity). *)

val api : t -> Tcpstack.Socket_api.t

val cores : t -> Sim.Cpu.Set.t

val ips : t -> Addr.ip list

val busy_cycles : t -> float

val guestlib : t -> Guestlib.t option

val hugepages : t -> Hugepages.t option

val device : t -> Nk_device.t option
(** The VM-side NK device ([None] for baseline VMs). Nkfabric mirrors its
    queue-set geometry when it builds the proxy device on a migration
    destination host. *)
