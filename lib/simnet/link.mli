(** Unidirectional store-and-forward link.

    Models one direction of a cable or a switch port: finite rate, fixed
    propagation delay and a drop-tail buffer. *)

type t

val create :
  Sim.Engine.t ->
  rate_bps:float ->
  delay:float ->
  ?buffer_bytes:int ->
  ?name:string ->
  unit ->
  t
(** [buffer_bytes] defaults to 16 MB (deep-buffered 100G gear). *)

val set_receiver : t -> (Segment.t -> unit) -> unit
(** Register the far-end delivery callback (required before [send]). *)

val send : t -> Segment.t -> bool
(** [send t seg] enqueues for transmission; [false] means tail-dropped. *)

val drops : t -> int

val set_random_loss : t -> rng:Nkutil.Rng.t -> rate:float -> unit
(** Drop each segment independently with probability [rate] (fault
    injection for loss-recovery tests). *)
