(** Cycle-accounted virtual CPU core.

    Each vCPU of a VM, NSM, or the CoreEngine core is a non-preemptive FIFO
    server: work items cost cycles, cycles divide by the clock frequency to
    give virtual time, and items queue behind each other when the core is
    busy. This is what makes the evaluation meaningful — every figure in the
    paper is about which core saturates first.

    Busy cycles are accumulated per core so experiments can report CPU usage
    (paper Tables 6 and 7).

    A core's backlog end and busy cycles sit in an all-float record, stored
    flat, so accounting work allocates nothing: [charge] allocates no
    words, and [exec] at most the boxed finish time it hands to
    {!Engine.schedule_at}. *)

type t

val create : Engine.t -> ?freq_ghz:float -> name:string -> unit -> t
(** [create engine ~name ()] is an idle core. [freq_ghz] defaults to 2.3
    (the paper testbed's Xeon E5-2698 v3). *)

val name : t -> string

val engine : t -> Engine.t

val freq_hz : t -> float

val exec : t -> cycles:float -> (unit -> unit) -> unit
(** [exec t ~cycles k] queues a work item; [k] runs when the core has spent
    [cycles] on it (after finishing everything queued before it). *)

val charge : t -> cycles:float -> unit
(** [charge t ~cycles] accounts work with no completion action. *)

val busy_cycles : t -> float
(** Total cycles charged so far. *)

val busy_seconds : t -> float

module Set : sig
  (** A pool of cores with flow pinning, standing in for a multi-vCPU VM or
      NSM. *)

  type core := t
  type t

  val create : Engine.t -> ?freq_ghz:float -> name:string -> n:int -> unit -> t

  val of_array : core array -> t
  (** Wrap existing cores (e.g. give each mTCP shard a one-core view of a
      bigger set). Raises on an empty array. *)

  val cores : t -> core array

  val n : t -> int

  val core : t -> int -> core

  val pick : t -> hash:int -> core
  (** [pick t ~hash] deterministically maps a flow hash to a core (RSS-style
      pinning, paper §4.3: connections are pinned to vCPUs/queue sets). *)

  val total_busy_cycles : t -> float
end
