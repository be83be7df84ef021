(** Nkmon: the unified observability subsystem.

    One [Nkmon.t] per simulated world bundles the {!Registry} (named
    counters, gauges and histograms keyed by
    [component/instance/metric]) with the {!Trace} layer (typed events
    stamped with {!Sim.Engine} virtual time: a ring for dataplane events,
    a log that is never dropped for control events).
    {!Testbed.create} builds one and every component created under that
    testbed — CoreEngine, NK devices, GuestLib, ServiceLib, NSMs,
    hugepage regions, TCP stacks — reports through it instead of keeping
    a private mutable [stats] record.

    Components accept [?mon] at creation; when omitted (unit tests
    building components directly) they fall back to a detached handle
    from {!null}, so their snapshot accessors keep working without any
    shared registry. *)

module Registry = Registry
module Trace = Trace

type t

val create : ?trace_capacity:int -> ?trace_enabled:bool -> now:(unit -> float) -> unit -> t
(** [now] supplies virtual timestamps for trace events (pass
    [fun () -> Sim.Engine.now engine]). Dataplane tracing defaults to
    disabled; metrics and control events are always live. *)

val null : unit -> t
(** A detached sink: a private registry, tracing disabled, clock pinned
    to 0. Used as the default by components created without [?mon]. *)

val registry : t -> Registry.t

val trace : t -> Trace.t

val dropped_events : t -> int
(** Trace-ring overwrites so far ([Trace.dropped] on this instance's
    trace). Surfaced in [nk stats] / [Mon_report] output and watched by
    the Nkobs federation so silent trace truncation raises an alert. *)

val json_escape : string -> string
(** Escape a string for a JSON string literal (quotes not included):
    quote, backslash and newline get their short escapes, other control
    characters [\u00XX]. Shared by every JSON exporter in the simulator
    libraries (Nkobs, Nkspan, the experiment reports and bench
    snapshots). *)

(** {1 Convenience forwarding} *)

val counter : t -> component:string -> instance:string -> name:string -> Registry.counter

val gauge : t -> component:string -> instance:string -> name:string -> Registry.gauge

val sampler :
  t -> component:string -> instance:string -> name:string -> (unit -> float) -> unit

val histogram :
  t -> component:string -> instance:string -> name:string -> Nkutil.Histogram.t

val tracing : t -> bool
(** Cheap guard for dataplane event-construction sites:
    [if Nkmon.tracing mon then Nkmon.event mon (...)]. Control events
    ([Trace.Custom]) are recorded whatever it says and need no guard. *)

val event : t -> Trace.event -> unit
