(** Physical NIC endpoint.

    Thin shim between the host and the fabric: egress goes to an attached
    link (owned by the fabric), ingress is handed to the host's vswitch.
    Feeds the host's memory-pressure estimator with transmitted and received
    bits (see {!Sim.Pressure}). *)

type t

val create : Sim.Engine.t -> name:string -> ?pressure:Sim.Pressure.t -> unit -> t

val name : t -> string

val set_egress : t -> Link.t -> unit

val set_rx_handler : t -> (Segment.t -> unit) -> unit

val transmit : t -> Segment.t -> bool
(** [transmit t seg] sends via the egress link; [false] when tail-dropped or
    no link is attached. *)

val receive : t -> Segment.t -> unit
(** Called by the fabric on delivery. *)

val bytes_tx : t -> int
