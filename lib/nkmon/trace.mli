(** Structured trace layer: typed events stamped with virtual time.

    Every event carries the {!Sim.Engine} virtual time at which it was
    recorded (injected as a [now] closure so this library stays below the
    simulator in the dependency order) and a sequence number from one
    counter per trace.

    Events are kept in one of two places:
    - {e dataplane} events (every kind but [Custom]) go to a ring of
      {!capacity} records, and only while {!enabled} (default off). Once
      full, the oldest are overwritten and counted in {!dropped}, so
      tracing never grows without bound and never perturbs the simulation.
      The ring's array is allocated as records arrive, doubling up to the
      capacity, so a trace that records nothing holds no ring. Components guard
      their event construction with {!enabled}, so a disabled trace costs
      one branch per event site.
    - {e control} events ([Custom]) go to an append-only log whether or
      not tracing is on. It is never overwritten: a dataplane flood
      cannot push an operator action out of the trace.

    The trace does not render itself: [Nkobs.trace_csv] and
    [Nkobs.trace_json] export any list of host-tagged traces, and a
    single host is a one-element list. Two identical seeded runs export
    byte-identically. *)

type queue = Job | Completion | Send | Receive

(** The event taxonomy (see DESIGN.md "Observability"): NQE lifecycle
    (enqueue at a device, switch through CoreEngine, deliver to the
    consumer), backpressure (ring-full, rate-limit and ring deferrals,
    drops), TCP connection state transitions, and hugepage extent
    lifecycle. [Custom] is the control-event kind: Nkctl, CoreEngine
    control verbs, Nkfabric and Nkobs alerts write one record per control
    action (a scale-up, a drain, a migration, an alert), never one per
    tick, NQE or connection, so the control log's memory is bounded by the
    number of control actions. Its type string stays ["custom"]. *)
type event =
  | Nqe_enqueue of {
      device : int;
      qset : int;
      queue : queue;
      op : string;
      vm_id : int;
      sock : int;
    }
  | Nqe_switch of { vm_id : int; sock : int; op : string; dst : string }
  | Nqe_deliver of {
      component : string;
      instance : string;
      qset : int;
      op : string;
      vm_id : int;
      sock : int;
    }
  | Ring_full of { device : int; qset : int; queue : queue }
  | Rate_limit_defer of { vm_id : int; bytes : int }
  | Ring_defer of { vm_id : int }
  | Nqe_drop of { vm_id : int; sock : int; reason : string }
  | Tcp_state of { stack : string; sock : int; old_state : string; new_state : string }
  | Hugepage_alloc of { region : string; offset : int; len : int }
  | Hugepage_free of { region : string; offset : int; len : int }
  | Custom of { component : string; name : string; detail : string }

type record = { seq : int; time : float; event : event }

type t

val create : ?capacity:int -> ?enabled:bool -> now:(unit -> float) -> unit -> t
(** [capacity] is the dataplane ring size in events (default 65536,
    rounded up to at least 1); [enabled] defaults to [false]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val capacity : t -> int

val record : t -> event -> unit
(** Appends a [Custom] event to the control log; any other event goes to
    the ring, and is a no-op while disabled. *)

val records : t -> record list
(** The retained ring events and the whole control log, merged in
    sequence order (oldest first). *)

val recorded : t -> int
(** Total events ever recorded, control and dataplane (including
    overwritten ones). *)

val dropped : t -> int
(** Dataplane events overwritten by ring wraparound; control events are
    never dropped. *)

val clear : t -> unit

val event_type : event -> string

val event_args : event -> (string * string) list
(** The event's payload as ordered [key, value] pairs, the fields the
    Nkobs trace exporters and flight recorder render. *)
