(** Metric registry: the one place every component reports through.

    Metrics are keyed by [component/instance/metric] (e.g.
    ["coreengine/hostA/nqe_switched"]): [component] names the subsystem
    kind, [instance] the particular object (host, VM, NSM, stack), and
    [metric] the measurement. Three kinds are supported:

    - {e counters}: monotonically increasing integers (NQEs switched,
      bytes copied);
    - {e gauges}: point-in-time floats, either set explicitly or sampled
      lazily from a closure at read time (hugepage bytes in use,
      connection-table size);
    - {e histograms}: {!Nkutil.Histogram} distributions (sweep batch
      sizes, latencies).

    Registration is idempotent: asking for an existing key of the same
    kind returns the existing handle, so a component can re-derive its
    handles without double counting. Asking for an existing key with a
    different kind raises [Invalid_argument]. Enumeration is sorted by
    key, so output is independent of registration order.

    The registry does not render itself: [Nkobs.metric_rows] and
    [Nkobs.metrics_json] export any list of host-tagged registries, and a
    single host is a one-element list. *)

type t

val create : unit -> t

(** {1 Metric handles} *)

type counter

val counter : t -> component:string -> instance:string -> name:string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

type gauge

val gauge : t -> component:string -> instance:string -> name:string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val sampler :
  t -> component:string -> instance:string -> name:string -> (unit -> float) -> unit
(** A gauge whose value is pulled from the closure at read time.
    Re-registering an existing sampler key replaces the closure (the
    newest component owns the measurement). *)

val histogram :
  t -> component:string -> instance:string -> name:string -> Nkutil.Histogram.t
(** A {!Nkutil.Histogram.create} with its default range and resolution. *)

(** {1 Enumeration} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Nkutil.Histogram.t

type entry = { component : string; instance : string; metric : string; value : value }

val find : t -> component:string -> instance:string -> name:string -> value option
(** Gauge samplers are evaluated here. *)

val entries : t -> entry list
(** All registered metrics, sorted by [component/instance/metric]. *)

val cardinality : t -> int
