(** Network fabric: an ideal switch connecting host NICs.

    Each attached NIC gets an uplink (NIC -> switch) and a downlink
    (switch -> NIC) at the port rate; forwarding is by destination IP.
    This models the paper's testbed (two servers with 100G NICs through a
    switch) and generalizes to the multi-host experiments. *)

type t

val create :
  Sim.Engine.t ->
  rate_bps:float ->
  delay:float ->
  ?buffer_bytes:int ->
  unit ->
  t
(** [delay] is the end-to-end one-way propagation+switching delay; it is
    split between the uplink and downlink. *)

val attach : t -> Nic.t -> unit
(** Wire a NIC to a switch port (sets the NIC's egress link). *)

val add_route : t -> Addr.ip -> Nic.t -> unit
(** Declare that [ip] lives behind [nic]. The NIC must be attached. *)

val port_to : t -> Nic.t -> Link.t option
(** The downlink towards [nic] (to inspect queue/drops in tests). *)

val unrouted : t -> int
(** Count of segments dropped for lack of a route. *)
