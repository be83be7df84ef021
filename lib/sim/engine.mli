(** Discrete-event simulation engine.

    Single-threaded event loop with a virtual clock. All simulated
    components (vCPUs, NICs, links, TCP timers, CoreEngine polling) schedule
    closures at absolute virtual times; [run] executes them in
    (time, insertion-order) sequence, so runs are fully deterministic.

    The pending-event set is a hierarchical timing wheel with doubly-linked
    buckets (O(1) placement for the datapath's dense short-delay events,
    O(1) removal of cancelled timers), but the execution order is exactly
    the former binary heap's — see the oracle test in test/test_sim.ml.
    Events are slots in a slab of parallel arrays (unboxed time, seq,
    links, generation, closure), so scheduling one allocates nothing but
    the closure the caller passes.

    This is the substitute for the paper's QEMU/KVM testbed: wall-clock
    behaviour of the real system maps to virtual-time behaviour here. *)

type t

(** Handles over scheduled events. [schedule]/[schedule_at] return a
    [Timer.t]; cancellation goes through this module, so callers never see
    the engine's internal event representation. A handle is an immediate
    value: the event's slab slot and that slot's generation. *)
module Timer : sig
  type engine := t

  type t [@@immediate]

  val none : t
  (** A handle that names no event: a holder of an optional timer keeps it
      in an immediate instead of an option. {!cancel} ignores it. *)

  val cancel : engine -> t -> unit
  (** [cancel e h] prevents the event from running and releases its
      closure at once; cancelling a fired or already-cancelled event is a
      no-op, also once its slot serves a newer event (the slot's
      generation has moved on). O(1): an event still in a wheel bucket is
      unlinked from it and leaves [pending] immediately; one already moved
      into the engine's near-term or overflow heap is dropped when it
      reaches the front. An event that fires drops the engine's reference
      to its closure before running it, so what the closure captures is
      collectable once it returns. *)
end

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> Timer.t
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0 (the event still runs after currently-queued events at the
    same time). *)

val schedule_at : t -> at:float -> (unit -> unit) -> Timer.t
(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)

val run : ?until:float -> t -> unit
(** [run t] processes events until the queue is empty, or until virtual time
    would exceed [until] when given (the clock then stops at [until]). *)

val step : t -> bool
(** [step t] executes the single next live event; [false] if none remain. *)

val events_executed : t -> int
(** Count of events executed so far (for performance reporting). *)

val total_executed : unit -> int
(** Events executed so far by every engine of the process. Like
    [Gc.minor_words], a run is measured as the difference of two reads;
    [nk bench] brackets each quick run with it. *)

val pending : t -> int
(** Number of events currently queued: every live event, plus cancelled
    ones that were already in the near-term heap (due within the current
    ~0.12 µs slot) or the overflow heap (beyond the wheel's ~128 s
    horizon) when cancelled, until they reach the front and are dropped. *)

val set_cycle_hook : t -> (string -> float -> unit) option -> unit
(** [set_cycle_hook t (Some f)] makes every [Cpu.exec]/[Cpu.charge] call
    [f core_name cycles] at charge time. Observation only — the hook must
    not schedule events or mutate simulation state; it exists for the
    Nkspan cycle profiler. [None] (the default) disables it. *)

val emit_cycles : t -> core:string -> float -> unit
(** Invoke the cycle hook, if any. Used by [Cpu]; not for components. *)
