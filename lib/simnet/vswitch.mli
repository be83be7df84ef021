(** Per-host virtual switch.

    Demultiplexes ingress segments to the network stacks on the host:
    an exact ⟨ip, port⟩ table first (one VM's listeners may be served by
    different NSM stacks, paper §7.5), then a per-IP default. Egress from
    local stacks short-circuits to colocated destinations without touching
    the physical NIC, which is what both the baseline colocated-VM test and
    the shared-memory NSM rely on (paper §6.4). *)

type t

val create : Sim.Engine.t -> nic:Nic.t -> unit -> t
(** The vswitch installs itself as [nic]'s RX handler. *)

val register_ip : t -> Addr.ip -> (Segment.t -> unit) -> unit
(** Route all segments for [ip] to a stack's input function. *)

val unregister_ip : t -> Addr.ip -> unit

val register_endpoint : t -> Addr.t -> (Segment.t -> unit) -> unit
(** Exact ⟨ip, port⟩ override (wins over [register_ip]). *)

val unregister_endpoint : t -> Addr.t -> unit

val register_flow : t -> Addr.Flow.t -> (Segment.t -> unit) -> unit
(** Exact 4-tuple override in the segment's inbound orientation (wins over
    both tables). Pins an established connection to its stack so its
    ⟨ip, port⟩ endpoint can be re-registered elsewhere — what keeps accepted
    connections alive across a live listener handover between NSMs. *)

val unregister_flow : t -> Addr.Flow.t -> unit

val owns_ip : t -> Addr.ip -> bool

val output : t -> Segment.t -> unit
(** Egress from a local stack: local destinations are delivered after the
    5 us intra-host latency; everything else goes to the physical NIC. *)

val input : t -> Segment.t -> unit
(** Ingress demux (also used by the local path). *)

val unclaimed : t -> int
(** Segments that matched no table entry (dropped). *)
