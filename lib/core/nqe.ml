type op =
  | Socket
  | Bind
  | Listen
  | Connect
  | Send
  | Recv_done
  | Close
  | Comp_socket
  | Comp_bind
  | Comp_listen
  | Comp_connect
  | Comp_send
  | Comp_close
  | Ev_accept
  | Ev_data
  | Ev_eof
  | Ev_err

let op_to_byte = function
  | Socket -> 1
  | Bind -> 2
  | Listen -> 3
  | Connect -> 4
  | Send -> 5
  | Recv_done -> 6
  | Close -> 7
  | Comp_socket -> 16
  | Comp_bind -> 17
  | Comp_listen -> 18
  | Comp_connect -> 19
  | Comp_send -> 20
  | Comp_close -> 21
  | Ev_accept -> 32
  | Ev_data -> 33
  | Ev_eof -> 34
  | Ev_err -> 35

let op_of_byte = function
  | 1 -> Some Socket
  | 2 -> Some Bind
  | 3 -> Some Listen
  | 4 -> Some Connect
  | 5 -> Some Send
  | 6 -> Some Recv_done
  | 7 -> Some Close
  | 16 -> Some Comp_socket
  | 17 -> Some Comp_bind
  | 18 -> Some Comp_listen
  | 19 -> Some Comp_connect
  | 20 -> Some Comp_send
  | 21 -> Some Comp_close
  | 32 -> Some Ev_accept
  | 33 -> Some Ev_data
  | 34 -> Some Ev_eof
  | 35 -> Some Ev_err
  | _ -> None

let op_to_string = function
  | Socket -> "socket"
  | Bind -> "bind"
  | Listen -> "listen"
  | Connect -> "connect"
  | Send -> "send"
  | Recv_done -> "recv_done"
  | Close -> "close"
  | Comp_socket -> "comp_socket"
  | Comp_bind -> "comp_bind"
  | Comp_listen -> "comp_listen"
  | Comp_connect -> "comp_connect"
  | Comp_send -> "comp_send"
  | Comp_close -> "comp_close"
  | Ev_accept -> "ev_accept"
  | Ev_data -> "ev_data"
  | Ev_eof -> "ev_eof"
  | Ev_err -> "ev_err"

let qset_unassigned = 0xFF

let nsm_sock_bit = 1 lsl 30

let conn_key ~vm_id ~sock = (vm_id lsl 32) lor sock
let conn_key_vm key = key lsr 32
let conn_key_sock key = key land 0xFFFF_FFFF

let size_bytes = 32

(* Every field is an immediate, so a producer writing an NQE straight into
   its slot allocates nothing: the 64-bit op_data is stored from an int
   and the 32-bit fields are truncated by the stores themselves. *)
let write buf ~pos ~op ~vm_id ~qset ~sock ~op_data ~data_ptr ~size ~synthetic ~span =
  Bytes.set_uint8 buf pos (op_to_byte op);
  Bytes.set_uint8 buf (pos + 1) (vm_id land 0xFF);
  Bytes.set_uint8 buf (pos + 2) (qset land 0xFF);
  Bytes.set_int32_le buf (pos + 3) (Int32.of_int sock);
  Bytes.set_int64_le buf (pos + 7) (Int64.of_int op_data);
  Bytes.set_int64_le buf (pos + 15) (Int64.of_int data_ptr);
  Bytes.set_int32_le buf (pos + 23) (Int32.of_int size);
  Bytes.set_uint8 buf (pos + 27) (if synthetic then 1 else 0);
  Bytes.set_int32_le buf (pos + 28) (Int32.of_int span)

(* Flat accessors over the NQE at byte offset [pos] of a slot buffer. The
   datapath switches millions of NQEs per run and almost never needs more
   than two or three fields, so reading them in place — as unboxed ints,
   via uint16 pairs rather than [Int32]/[Int64] loads — allocates nothing.
   Every accessor agrees with the reference decoder field for field
   (test_nqe.ml checks them against each other across all opcodes). *)
module View = struct
  let ok buf pos =
    pos >= 0
    && pos + size_bytes <= Bytes.length buf
    && op_of_byte (Bytes.get_uint8 buf pos) <> None

  let op buf pos =
    match op_of_byte (Bytes.get_uint8 buf pos) with
    | Some op -> op
    | None -> invalid_arg "Nqe.View.op: unknown opcode (check View.ok first)"

  let vm_id buf pos = Bytes.get_uint8 buf (pos + 1)

  let qset buf pos = Bytes.get_uint8 buf (pos + 2)

  let set_qset buf pos q = Bytes.set_uint8 buf (pos + 2) (q land 0xFF)

  let sock buf pos =
    Bytes.get_uint16_le buf (pos + 3) lor (Bytes.get_uint16_le buf (pos + 5) lsl 16)

  let op_data buf pos =
    Bytes.get_uint16_le buf (pos + 7)
    lor (Bytes.get_uint16_le buf (pos + 9) lsl 16)
    lor (Bytes.get_uint16_le buf (pos + 11) lsl 32)
    lor (Bytes.get_uint16_le buf (pos + 13) lsl 48)

  let data_ptr buf pos =
    Bytes.get_uint16_le buf (pos + 15)
    lor (Bytes.get_uint16_le buf (pos + 17) lsl 16)
    lor (Bytes.get_uint16_le buf (pos + 19) lsl 32)
    lor (Bytes.get_uint16_le buf (pos + 21) lsl 48)

  let size buf pos =
    Bytes.get_uint16_le buf (pos + 23) lor (Bytes.get_uint16_le buf (pos + 25) lsl 16)

  let synthetic buf pos = Bytes.get_uint8 buf (pos + 27) land 1 = 1

  let span buf pos =
    Bytes.get_uint16_le buf (pos + 28) lor (Bytes.get_uint16_le buf (pos + 30) lsl 16)
end

let pack_addr (a : Addr.t) = (a.Addr.ip land 0xFFFFFFFF) lor ((a.Addr.port land 0xFFFF) lsl 32)

let unpack_addr v = Addr.make (v land 0xFFFFFFFF) ((v lsr 32) land 0xFFFF)

let err_code (e : Tcpstack.Types.err) =
  match e with
  | Tcpstack.Types.Econnrefused -> 1
  | Econnreset -> 2
  | Etimedout -> 3
  | Eaddrinuse -> 4
  | Einval -> 5
  | Enotconn -> 6
  | Eclosed -> 7
  | Eagain -> 8
  | Enobufs -> 9

let err_of_code = function
  | 0 -> None
  | 1 -> Some Tcpstack.Types.Econnrefused
  | 2 -> Some Tcpstack.Types.Econnreset
  | 3 -> Some Tcpstack.Types.Etimedout
  | 4 -> Some Tcpstack.Types.Eaddrinuse
  | 5 -> Some Tcpstack.Types.Einval
  | 6 -> Some Tcpstack.Types.Enotconn
  | 7 -> Some Tcpstack.Types.Eclosed
  | 8 -> Some Tcpstack.Types.Eagain
  | _ -> Some Tcpstack.Types.Enobufs

let ok_code = 0
