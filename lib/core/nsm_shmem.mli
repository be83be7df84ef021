(** Shared-memory NSM (paper §6.4).

    Serves colocated VMs of the same user: instead of running a TCP stack,
    it moves message chunks directly between the two VMs' hugepage regions
    and bypasses transport processing entirely. Connection semantics
    (connect/accept/EOF/close) are preserved at NQE level, and the same
    per-connection receive credit provides flow control. *)

type t

val create :
  engine:Sim.Engine.t ->
  device:Nk_device.t ->
  cores:Sim.Cpu.Set.t ->
  ?mon:Nkmon.t ->
  ?spans:Nkspan.t ->
  unit ->
  t
(** The cross-region memcpy costs 0.3 cycles/B, calibrated so a 2-core
    shared-memory NSM sustains ~100 Gb/s as in the paper's Fig 10.
    [spans] records the servicelib stage of sampled requests (there is no
    stack stage on the shared-memory path). *)

val register_vm : t -> vm_id:int -> hugepages:Hugepages.t -> ips:Addr.ip list -> unit
(** The VM's IPs become resolvable for colocated connects. *)

val fail : t -> unit
(** Simulated crash: the NSM moves no more chunks and posts no more NQEs.
    Its owner stops the device's poll loop ({!Nk_device.stop_serving}). *)
