(** Simulated testbed: engine + fabric + shared connection registry.

    Mirrors the paper's setup (§7.1): servers with 16-core 2.3 GHz CPUs and
    100G NICs behind a switch. Experiments, tests and examples all build
    their worlds through this module. *)

(** All construction knobs in one record, so a new knob is one field (plus
    its default) instead of another optional argument rippling through every
    constructor signature. Build variants with record update:
    [{ Config.default with seed = 7 }]. *)
module Config : sig
  type t = {
    rate_gbps : float;  (** port speed (default 100); the one-way fabric delay is 20 us *)
    buffer_bytes : int option;  (** fabric link buffer ([None] = Fabric default) *)
    seed : int;  (** root RNG seed (default 42) *)
    costs : Nk_costs.t;  (** datapath cost model *)
    trace_capacity : int option;  (** Nkmon trace ring size ([None] = default) *)
    trace_enabled : bool;  (** event tracing on from the start (default off) *)
    span_every : int;  (** sample one request span per N sends (0 = off) *)
  }

  val default : t
end

type t = {
  engine : Sim.Engine.t;
  registry : Tcpstack.Conn_registry.t;
  fabric : Fabric.t;
  rng : Nkutil.Rng.t;
  costs : Nk_costs.t;
  mon : Nkmon.t;  (** shared observability handle for the whole world *)
  spans : Nkspan.t;  (** shared request-span recorder (disabled by default) *)
  config : Config.t;
      (** the knobs this world was built with, retained so cluster layers
          (Nkfabric) can derive per-node observability instances with the
          same trace/span settings *)
}

val create : ?config:Config.t -> unit -> t
(** Defaults ({!Config.default}): 100 Gb/s ports, 20 us one-way delay,
    seed 42. Every host added to the testbed shares [mon], so all component
    metrics land in one registry; [trace_enabled] turns on event tracing
    with a ring of [trace_capacity] records. [span_every] (0 = spans off)
    samples one request span per that many GuestLib sends, shared across
    hosts like [mon]. *)

val add_host : ?mon:Nkmon.t -> ?spans:Nkspan.t -> t -> name:string -> Host.t
(** Hosts default to the testbed-wide [mon]/[spans]; cluster layers pass
    per-node instances so each node keeps its own registry, trace ring and
    host-unique span ids (federated back together by Nkobs). *)

val run : ?until:float -> t -> unit

val now : t -> float
