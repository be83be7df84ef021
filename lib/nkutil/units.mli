(** Unit conversions and pretty-printers shared by the experiments.

    Conventions used throughout the codebase: time in seconds (float),
    data sizes in bytes (int), rates in bits per second (float) unless a
    name says otherwise. *)

val gbps_of_bytes : bytes:int -> seconds:float -> float
(** Throughput in Gb/s from a byte count over a duration. *)

val pp_bytes : Format.formatter -> int -> unit
(** Pretty-print a byte count (e.g. ["16 KB"]). *)
