(** Congestion-control interface.

    A controller is a record of closures over private state, giving each
    connection an independent instance while allowing implementations such
    as the VM-level controller ({!Cc_vm}) to share state across flows —
    exactly the flexibility the paper exercises by swapping NSMs. All window
    quantities are in bytes. *)

type t = {
  name : string;
  cwnd : unit -> int;  (** current congestion window (bytes) *)
  on_ack : acked:int -> rtt:float -> now:float -> unit;
      (** new data acknowledged; [rtt] < 0 when no sample is available *)
  on_loss : now:float -> unit;  (** fast-retransmit loss signal *)
  on_timeout : now:float -> unit;  (** RTO expiry *)
  release : unit -> unit;  (** the flow is closing; drop shared-state refs *)
  export : unit -> (string * float) list;
      (** serialize mutable state as key/value pairs (live NSM migration) *)
  import : (string * float) list -> unit;
      (** restore state previously produced by [export] on a fresh instance
          of the same controller; unknown keys are ignored *)
}

type factory = unit -> t
(** One controller per connection. *)

val max_cwnd : int
(** Global cap on any congestion window (16 MB). *)

val initial_window : mss:int -> int
(** IW10 (RFC 6928): 10 MSS. *)

val import_field : (string * float) list -> string -> default:float -> float
(** [import_field kv key ~default] looks up [key] in an exported state list,
    falling back to [default] — the shared helper for [import]
    implementations. *)
