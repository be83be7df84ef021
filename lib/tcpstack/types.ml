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

let err_to_string = function
  | Econnrefused -> "ECONNREFUSED"
  | Econnreset -> "ECONNRESET"
  | Etimedout -> "ETIMEDOUT"
  | Eaddrinuse -> "EADDRINUSE"
  | Einval -> "EINVAL"
  | Enotconn -> "ENOTCONN"
  | Eclosed -> "ECLOSED"
  | Eagain -> "EAGAIN"
  | Enobufs -> "ENOBUFS"

type payload = Data of string | Zeros of int

let payload_len = function Data s -> String.length s | Zeros n -> n

type recv_mode = [ `Copy | `Discard | `Auto ]

type events = { readable : bool; writable : bool; hup : bool }

let no_events = { readable = false; writable = false; hup = false }
