(** Byte-stream FIFO with cheap synthetic filler.

    TCP socket buffers need an ordered byte queue. Performance experiments
    push gigabytes of payload whose content is irrelevant, so the FIFO also
    supports zero-runs that occupy O(1) memory; correctness tests use real
    bytes and verify exact delivery.

    Real bytes are not copied in: strings are immutable, so the FIFO holds
    the writer's string and hands the same one to a reader that takes it
    whole. *)

type t

val create : unit -> t

val length : t -> int
(** Number of queued bytes. *)

val write : t -> string -> unit
(** Enqueue the bytes of a string (shared, not copied). *)

val write_sub : t -> string -> pos:int -> len:int -> unit
(** Enqueue a slice of a string (shared, not copied). *)

val write_zeros : t -> int -> unit
(** Enqueue [n] zero bytes in O(1) space. *)

val read : t -> int -> string
(** [read t n] dequeues [min n (length t)] bytes as a string. When they are
    exactly one whole string a writer queued, that string is returned
    itself; otherwise they are copied out. *)

val next_run : t -> [ `Data of int | `Zeros of int ] option
(** Kind and length of the leading homogeneous run, letting callers
    dequeue synthetic filler without materializing it. *)

val discard : t -> int -> int
(** [discard t n] drops up to [n] bytes; returns how many were dropped.
    Used when payload content is synthetic and the reader only needs
    lengths. *)

val transfer : src:t -> dst:t -> int -> int
(** [transfer ~src ~dst n] moves up to [n] bytes preserving content and
    zero-run compactness (real bytes move as slices of the same strings);
    returns the count moved. *)
