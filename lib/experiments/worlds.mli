(** Shared experiment scaffolding: the paper's testbed configurations and
    the measurement drivers used across figures. *)

open Nkcore

type world = {
  tb : Testbed.t;
  server_host : Host.t;
  client_host : Host.t;
  server_vm : Vm.t;
  client_vm : Vm.t;
  nsms : Nsm.t list;
}

val server_ip : Addr.ip

val client_ip : Addr.ip

(** One record instead of nine optional arguments: world-level knobs plus
    the embedded {!Testbed.Config.t} ([tb]) for testbed-level ones (seed,
    cost model, span sampling, fabric shape). Build variants with record
    update — [{ Config.default with vcpus = 4; nsm_cores = 4 }] — or the
    [with_*] helpers for the common testbed fields. *)
module Config : sig
  type t = {
    tb : Testbed.Config.t;  (** testbed knobs: seed, costs, span_every, fabric *)
    vcpus : int;  (** server-VM cores (default 1) *)
    nsm_cores : int;  (** cores per NSM (default 1) *)
    nsm_kind : [ `Kernel | `Mtcp ];  (** NSM stack flavour (default [`Kernel]) *)
    n_nsms : int;  (** how many NSMs serve the VM (default 1) *)
    ce_cores : int;  (** CoreEngine switching shards (default 1) *)
  }

  val default : t

  val with_seed : int -> t -> t

  val with_costs : Nk_costs.t -> t -> t

  val with_span_every : int -> t -> t
end

val baseline : ?config:Config.t -> unit -> world
(** Status quo: the VM runs its own kernel stack; the remote client machine
    is an ideal-profile 16-core load generator. Only [tb] and [vcpus] are
    read — the NSM/CE fields don't apply. *)

val netkernel : ?config:Config.t -> unit -> world
(** NetKernel: VM with GuestLib + NSM(s) on the server host, CoreEngine on
    [ce_cores] dedicated cores (default 1, one switching shard each). *)

(** {1 Measurement drivers} *)

val measure_send_throughput :
  world -> ?streams:int -> ?msg_size:int -> ?duration:float -> unit -> float
(** VM sends bulk streams to a remote sink; returns goodput in Gb/s. *)

val measure_recv_throughput :
  world -> ?streams:int -> ?msg_size:int -> ?duration:float -> unit -> float
(** Remote machine sends to a sink in the VM. *)

type rps_result = {
  rps : float;
  errors : int;
  latency : Nkutil.Histogram.t;
  vm_cycles : float;  (** VM cores' busy cycles during the measured run *)
  nsm_cycles : float;  (** NSM cores' (0 for baseline) *)
  ce_cycles : float;
}

val measure_rps :
  world ->
  ?concurrency:int ->
  ?total:int ->
  ?msg_size:int ->
  ?app_cycles:float ->
  ?backlog:int ->
  ?proto:Nkapps.Proto.t ->
  unit ->
  rps_result
(** Non-keepalive epoll server in the VM under closed-loop load. *)

(** {1 Serving and loading any world}

    The steps every live world repeats, for single-host worlds above and
    hand-built ones (the cluster, the control plane) alike. *)

val serve : Testbed.t -> Vm.t -> Nkapps.Epoll_server.config -> Nkapps.Epoll_server.t
(** Start an epoll server in [vm] (raises on setup failure). *)

val load :
  Testbed.t -> delay:float -> Vm.t -> Nkapps.Loadgen.config -> Nkapps.Loadgen.t option ref
(** Start a load generator on [vm] [delay] virtual seconds from now; the
    ref holds it once started. [~delay:1e-3] lets listeners come up. *)

val served : Nkapps.Loadgen.t option ref list -> int * int
(** (completed, errors) summed over the generators that started. *)
