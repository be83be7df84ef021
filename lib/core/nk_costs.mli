(** CPU cycle costs of NetKernel's own machinery.

    Calibration anchors (DESIGN.md §5):
    - CoreEngine switches ~8M NQEs/s on one 2.3 GHz core without batching
      (Fig 11) → ~290 cycles per unbatched switch; batching amortizes the
      per-iteration part.
    - Table 7: NetKernel adds only 5–9% CPU for short connections → the
      per-NQE translation costs must be tens of cycles, small against a
      ~30 K-cycle connection lifecycle.
    - Table 6: the overhead for bulk throughput grows 1.14x → 1.70x between
      20 and 100 Gb/s → the NSM-side hugepage copy's per-byte cost carries a
      quadratic memory-pressure term (see {!Sim.Pressure}).

    The costs are constants; {!t} holds only the three switches the
    ablations vary. *)

val nk_syscall : float
(** guest kernel crossing for a redirected socket call: the SOCK_NETKERNEL
    path enters the guest kernel but skips the whole socket layer below
    it *)

val guest_epoll_wake : float
(** waking an epoll waiter in GuestLib — nk_poll checks the receive queue
    directly (paper §4.2), cheaper than a full kernel epoll *)

val nqe_encode : float
(** translate a socket op into an NQE *)

val nqe_decode : float
(** parse an NQE back into an op/result *)

val guest_poll : float
(** GuestLib NK-device poll, per inbound batch *)

val guest_interrupt : float
(** waking a GuestLib device that had gone idle (interrupt-driven polling,
    paper §4.6) *)

val guest_idle_window : float
(** polling window after which the device sleeps (20 us in the paper) *)

val ce_poll_iter : float
(** CoreEngine polling iteration *)

val ce_switch : float
(** CoreEngine per-NQE switch: lookup + two copies *)

val ce_xshard : float
(** cross-shard handoff on a multi-core CoreEngine: pushing an NQE into a
    queue set owned by another switching shard, or mutating a
    connection-table entry owned by another shard's VM (the cacheline
    transfer between CE cores); never charged with one shard *)

val ce_poll_latency : float
(** producer kick to CE processing *)

val ce_ring_release_delay : float
(** re-dispatch delay after parking an NQE on a full inbound ring *)

val ce_rate_recheck_delay : float
(** re-dispatch delay after parking a send that found an empty token bucket
    (the bucket itself supplies the exact refill wait; this is the
    scheduling granularity) *)

val service_poll : float
(** ServiceLib poll, per inbound batch *)

val hugepage_alloc : float
(** allocate/free an extent *)

val wake_latency : float
(** CE-to-device wake latency *)

val guest_sendbuf : int
(** per-socket hugepage send-buffer budget *)

val nsm_rwnd : int
(** per-connection receive credit towards the VM *)

type t = {
  ce_batch : int;  (** CoreEngine NQE batch size (4, per §7.2) *)
  nsm_zerocopy : bool;
      (** paper future work (§7.8, §10): map hugepage extents straight into
          the NSM stack instead of copying — the per-byte copy cost drops to
          a small pin/translate overhead *)
  ce_hw_offload : bool;
      (** paper future work (§7.8): NQE switching offloaded to SmartNIC
          hardware queues; only connection-table misses consume CE CPU *)
}

val default : t

val hugepage_copy_cycles : t -> Sim.Pressure.t -> int -> float
(** [hugepage_copy_cycles t pressure n] is the cycle cost of copying [n]
    bytes through hugepages under current memory pressure (0.02 cycles/B
    plus a quadratic pressure term with coefficient 0.2, Table 6); with
    [nsm_zerocopy] it is a small constant-per-byte pin/translate cost that
    ignores memory pressure. *)

val zerocopy : t -> t
(** The same costs with [nsm_zerocopy] enabled. *)

val ce_offloaded : t -> t
(** The same costs with [ce_hw_offload] enabled. *)
