(** Shared socket-layer types: errors, payloads, readiness events. *)

type err =
  | Econnrefused
  | Econnreset
  | Etimedout
  | Eaddrinuse
  | Einval
  | Enotconn
  | Eclosed
  | Eagain
  | Enobufs

val err_to_string : err -> string

(** Application payloads. [Zeros n] is synthetic filler for performance
    experiments (content-free, O(1) space); [Data s] carries real bytes and
    is what correctness tests use end to end. *)
type payload = Data of string | Zeros of int

val payload_len : payload -> int

(** [`Copy] materializes received bytes; [`Discard] returns only the byte
    count (used by throughput workloads to avoid pointless copies); [`Auto]
    preserves the payload's own kind — real bytes come back as [Data],
    synthetic filler as [Zeros] — possibly returning less than available so
    a result is never mixed. *)
type recv_mode = [ `Copy | `Discard | `Auto ]

type events = { readable : bool; writable : bool; hup : bool }

val no_events : events
