(** Minimal HTTP/1.1 message codec.

    Enough protocol to run an nginx-like server under an ab-like load
    generator (paper §6.3, Table 3): request/response serialization with
    real header bytes, and an incremental parser that counts body bytes
    without materializing synthetic payloads. *)

val request : path:string -> ?keepalive:bool -> unit -> string
(** A full GET request string (no body). [keepalive] defaults to false
    (ab-style non-keepalive benchmarking). *)

val response_header : content_length:int -> ?keepalive:bool -> unit -> string
(** The [200 OK] response head; the body ([content_length] bytes) is sent
    separately, typically as synthetic payload. *)

(** Incremental message parser. A header block that arrives whole in one
    chunk is parsed where it lies; only one that straddles chunks is
    reassembled. Body bytes, real or synthetic, are counted, never
    copied. *)
module Parser : sig
  type msg = private {
    start_line : string;
    content_length : int;  (** the first Content-Length; 0 when absent or not a number *)
    keepalive : bool;  (** false when the first Connection header says close *)
    head : string;
    head_pos : int;
    head_len : int;
        (** the raw header block (start line and header lines, without its
            terminator) lies at [head_pos] in [head]; {!header} reads it *)
  }

  type t

  val create : unit -> t

  val feed : t -> Tcpstack.Types.payload -> msg list
  (** Consume a payload chunk; returns messages completed by it (header
      block parsed and body fully accounted). [Zeros] chunks may only occur
      inside bodies; header bytes must be real. Raises [Failure] on a
      malformed message: a non-blank header line without a colon. A
      message keeps the chunk its header block arrived in. *)

  val in_body : t -> bool

  val body_remaining : t -> int
end

val header : Parser.msg -> string -> string option
(** Case-insensitive header lookup: the first header line of that name,
    its value trimmed. Scans the raw header block. *)
