(** Nkspan: request-path spans and the cycle profiler (DESIGN.md par.12).

    A span follows one NQE through its whole life: GuestLib stamps a span
    id + birth time into the request at the API boundary, and each datapath
    component (NK device rings, the owning CoreEngine shard, ServiceLib,
    the TCP stack, completion delivery) records a named stage against that
    id. The NK device marks the ["ring"] stage at enqueue time, and any
    time not covered by an explicit stage — a hop recorded without a device
    mark, parking in a deferred queue — also falls to ["ring"], so
    per-stage sums always reconcile with end-to-end latency.

    Sampling ([?span_every]) keeps tracing off the hot path: with the
    default [0] every call is a no-op, and instrumented components charge
    no simulated cycles either way, so enabling spans never perturbs event
    ordering or simulated throughput.

    The profiler half attributes every {!Sim.Cpu} busy cycle to a
    (component, stage) pair: dispatch loops bracket their [Cpu.exec] calls
    with {!enter} and {!leave}, and cycles charged outside any frame fall
    back to a component parsed from the core name. *)

type t

type span
(** One sampled request; inspect with the accessors below. *)

type seg = {
  g_stage : string;
  g_comp : string;  (** component that recorded the stage *)
  g_t0 : float;
  g_t1 : float;  (** virtual-time interval covered *)
}

val create : ?span_every:int -> ?host_index:int -> now:(unit -> float) -> unit -> t
(** [create ~now ()] with [span_every = 0] (the default) disables span
    collection entirely. [span_every = n] samples one request in [n]; at
    most 65536 spans are retained — samples past that are counted in
    {!dropped} instead of being silently lost.

    [host_index] (default 0, max 255) is OR'd into the high 8 bits of
    every minted span id so that per-host instances in a cluster can never
    collide: the id still fits the NQE's 32-bit span field (wire bytes
    28-31 unchanged) and [0] still means "untraced", which makes stage
    calls routed to the wrong host's instance safe no-ops. *)

val null : unit -> t
(** Detached disabled instance; the default for components built without
    [?spans] (mirrors [Nkmon.null]). *)

val enabled : t -> bool

val dropped : t -> int
(** Sampled requests not retained because the 65536-span capacity was
    reached. *)

val host_index : t -> int
(** The host index baked into this instance's span ids (0 by default). *)

val seq_bits : int
(** Low bits of a span id holding the per-instance sequence number (24);
    the host index lives in the bits above ([id lsr seq_bits]). *)

(** {1 Span lifecycle — called by datapath components} *)

val sample : t -> vm:string -> int
(** [sample t ~vm] at request birth: returns a fresh span id (> 0) for
    sampled requests, [0] otherwise. The id travels in the NQE's span
    field; every other entry point is a no-op on id [0]. *)

val begin_stage : t -> id:int -> component:string -> string -> unit
(** Open the named stage at the current virtual time. Opening the stage
    that is already open is a no-op (the earliest t0 wins — deferral
    retries accumulate into one interval); opening a different stage
    closes the previous one first. *)

val end_stage : t -> id:int -> string -> unit
(** Close the named stage; a no-op unless exactly that stage is open. *)

val finish : t -> id:int -> unit
(** Request completed: closes any open stage and stamps the end time. *)

(** {1 Inspection and aggregation} *)

val span_count : t -> int

val finished_spans : t -> span list
(** Completed spans in creation (id) order. *)

val span_id : span -> int
val span_birth : span -> float
val span_finish : span -> float
val span_segs : span -> seg list
(** Recorded segments in chronological order. *)

val stage_order : string list
(** Canonical request-path taxonomy:
    guestlib, ring, ce-switch, spine, servicelib, stack, completion.
    ["spine"] is recorded by the Nkfabric relay while a traced NQE is in
    flight between hosts. *)

type breakdown = {
  b_spans : int;  (** finished spans aggregated *)
  b_e2e : Nkutil.Histogram.t;  (** end-to-end latency (seconds) *)
  b_stages : (string * Nkutil.Histogram.t) list;
      (** per-stage per-span summed durations, taxonomy order first, then
          alphabetical; "ring" counts its explicit device-ring segments
          plus every otherwise-unclaimed instant of the span *)
}

val breakdown : t -> breakdown

val to_catapult : t -> string
(** Chrome trace-event (catapult) JSON of all finished spans, loadable in
    [chrome://tracing] / Perfetto. All values derive from virtual time, so
    the output is byte-identical across same-seed runs. *)

(** {1 Cycle profiler} *)

val enable_profiler : t -> Sim.Engine.t -> unit
(** Install the {!Sim.Engine.set_cycle_hook} so every [Cpu.exec]/[charge]
    is attributed to the innermost open frame, or — when no frame is
    open — to the component parsed from the core name under the
    ["(unframed)"] stage. *)

val enter : t -> component:string -> stage:string -> unit
(** [enter t ~component ~stage] opens an attribution frame; the matching
    {!leave} closes it. Cycles are charged at [Cpu.exec] call time, so
    bracketing the dispatch call attributes them correctly even though
    the continuation runs later. With the profiler off, [enter] and
    [leave] are one bool test each: no closure and no allocation. The
    bracketed code must not raise: nothing closes the frame on an
    exception. *)

val leave : t -> unit
(** Close the innermost frame opened by {!enter}. *)

type cell = { p_comp : string; p_stage : string; p_cycles : float }

val profile_table : t -> cell list
(** Self-cycles per (component, stage), hottest first; deterministic. *)

val total_cycles : t -> float

val to_collapsed : t -> string
(** flamegraph.pl-compatible collapsed-stack dump
    ("component;stage cycles" per line), key-sorted. *)
