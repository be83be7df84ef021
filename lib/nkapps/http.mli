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

(** Incremental message parser. *)
module Parser : sig
  type msg = {
    start_line : string;
    headers : (string * string) list;
    content_length : int;
    keepalive : bool;
  }

  type t

  val create : unit -> t

  val feed : t -> Tcpstack.Types.payload -> msg list
  (** Consume a payload chunk; returns messages completed by it (header
      block parsed and body fully accounted). [Zeros] chunks may only occur
      inside bodies; header bytes must be real. Raises [Failure] on a
      malformed message. *)

  val in_body : t -> bool

  val body_remaining : t -> int
end

val header : Parser.msg -> string -> string option
(** Case-insensitive header lookup. *)
