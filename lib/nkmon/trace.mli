(** Structured trace layer: typed events stamped with virtual time.

    Every event carries the {!Sim.Engine} virtual time at which it was
    recorded (injected as a [now] closure so this library stays below the
    simulator in the dependency order) and a monotonic sequence number.
    Retention is a fixed-capacity ring buffer: once full, the oldest
    events are overwritten and counted in {!dropped} — tracing never
    grows without bound and never perturbs the simulation.

    Recording is gated on {!enabled} (default off): components guard
    their event construction with it, so a disabled trace costs one
    branch per event site. The trace does not render itself:
    [Nkobs.trace_csv] and [Nkobs.trace_json] export any list of
    host-tagged traces, and a single host is a one-element list. Two
    identical seeded runs export byte-identically. *)

type queue = Job | Completion | Send | Receive

val queue_to_string : queue -> string

(** The event taxonomy (see DESIGN.md "Observability"): NQE lifecycle
    (enqueue at a device, switch through CoreEngine, deliver to the
    consumer), backpressure (ring-full, rate-limit and ring deferrals,
    drops), TCP connection state transitions, and hugepage extent
    lifecycle. [Custom] is the extension point for components outside
    the core taxonomy. *)
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
(** [capacity] is the ring size in events (default 65536, rounded up to at
    least 1); [enabled] defaults to [false]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val capacity : t -> int

val record : t -> event -> unit
(** No-op while disabled. *)

val records : t -> record list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : t -> int
(** Events overwritten by ring wraparound. *)

val clear : t -> unit

val event_type : event -> string

val event_args : event -> (string * string) list
(** The event's payload as ordered [key, value] pairs, the fields the
    Nkobs trace exporters and flight recorder render. *)
