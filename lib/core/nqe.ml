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

type t = {
  op : op;
  vm_id : int;
  qset : int;
  sock : int;
  op_data : int64;
  data_ptr : int;
  size : int;
  synthetic : bool;
  span : int;
}

let qset_unassigned = 0xFF

let nsm_sock_bit = 1 lsl 30

let conn_key ~vm_id ~sock = (vm_id lsl 32) lor sock
let conn_key_vm key = key lsr 32
let conn_key_sock key = key land 0xFFFF_FFFF

let size_bytes = 32

let make ~op ~vm_id ~qset ~sock ?(op_data = 0L) ?(data_ptr = 0) ?(size = 0)
    ?(synthetic = false) ?(span = 0) () =
  { op; vm_id; qset; sock; op_data; data_ptr; size; synthetic; span }

let encode_into t buf ~pos =
  if pos < 0 || pos + size_bytes > Bytes.length buf then
    invalid_arg "Nqe.encode_into: out of bounds";
  Bytes.set_uint8 buf pos (op_to_byte t.op);
  Bytes.set_uint8 buf (pos + 1) (t.vm_id land 0xFF);
  Bytes.set_uint8 buf (pos + 2) (t.qset land 0xFF);
  Bytes.set_int32_le buf (pos + 3) (Int32.of_int t.sock);
  Bytes.set_int64_le buf (pos + 7) t.op_data;
  Bytes.set_int64_le buf (pos + 15) (Int64.of_int t.data_ptr);
  Bytes.set_int32_le buf (pos + 23) (Int32.of_int t.size);
  Bytes.set_uint8 buf (pos + 27) (if t.synthetic then 1 else 0);
  Bytes.set_int32_le buf (pos + 28) (Int32.of_int t.span)

let encode t =
  let buf = Bytes.create size_bytes in
  encode_into t buf ~pos:0;
  buf

let decode_from buf ~pos =
  if pos < 0 || pos + size_bytes > Bytes.length buf then Error "short NQE buffer"
  else
    match op_of_byte (Bytes.get_uint8 buf pos) with
    | None -> Error (Printf.sprintf "unknown NQE op %d" (Bytes.get_uint8 buf pos))
    | Some op ->
        Ok
          {
            op;
            vm_id = Bytes.get_uint8 buf (pos + 1);
            qset = Bytes.get_uint8 buf (pos + 2);
            sock = Int32.to_int (Bytes.get_int32_le buf (pos + 3)) land 0xFFFFFFFF;
            op_data = Bytes.get_int64_le buf (pos + 7);
            data_ptr = Int64.to_int (Bytes.get_int64_le buf (pos + 15));
            size = Int32.to_int (Bytes.get_int32_le buf (pos + 23)) land 0xFFFFFFFF;
            synthetic = Bytes.get_uint8 buf (pos + 27) land 1 = 1;
            span = Int32.to_int (Bytes.get_int32_le buf (pos + 28)) land 0xFFFFFFFF;
          }

let decode buf = decode_from buf ~pos:0

let span_of_raw buf =
  if Bytes.length buf < size_bytes then 0
  else Int32.to_int (Bytes.get_int32_le buf 28) land 0xFFFFFFFF

(* Flat accessors over an encoded NQE. The datapath switches millions of
   raw records per run and almost never needs more than two or three
   fields, so reading them in place — as unboxed ints, via uint16 pairs
   rather than [Int32]/[Int64] loads — avoids allocating a record and two
   boxed words per NQE. Every accessor agrees with [decode] field-for-field
   (test_nqe.ml checks them against each other across all opcodes). *)
module View = struct
  let ok raw = Bytes.length raw >= size_bytes && op_of_byte (Bytes.get_uint8 raw 0) <> None

  let op raw =
    match op_of_byte (Bytes.get_uint8 raw 0) with
    | Some op -> op
    | None -> invalid_arg "Nqe.View.op: unknown opcode (check View.ok first)"

  let vm_id raw = Bytes.get_uint8 raw 1

  let qset raw = Bytes.get_uint8 raw 2

  let set_qset raw q = Bytes.set_uint8 raw 2 (q land 0xFF)

  let sock raw = Bytes.get_uint16_le raw 3 lor (Bytes.get_uint16_le raw 5 lsl 16)

  let op_data raw = Bytes.get_int64_le raw 7

  let data_ptr raw =
    Bytes.get_uint16_le raw 15
    lor (Bytes.get_uint16_le raw 17 lsl 16)
    lor (Bytes.get_uint16_le raw 19 lsl 32)
    lor (Bytes.get_uint16_le raw 21 lsl 48)

  let size raw = Bytes.get_uint16_le raw 23 lor (Bytes.get_uint16_le raw 25 lsl 16)

  let synthetic raw = Bytes.get_uint8 raw 27 land 1 = 1

  let span raw = Bytes.get_uint16_le raw 28 lor (Bytes.get_uint16_le raw 30 lsl 16)
end

let pack_addr (a : Addr.t) =
  Int64.logor
    (Int64.of_int (a.Addr.ip land 0xFFFFFFFF))
    (Int64.shift_left (Int64.of_int (a.Addr.port land 0xFFFF)) 32)

let unpack_addr v =
  let ip = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  let port = Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFL) in
  Addr.make ip port

let err_code (e : Tcpstack.Types.err) =
  Int64.of_int
    (match e with
    | Tcpstack.Types.Econnrefused -> 1
    | Econnreset -> 2
    | Etimedout -> 3
    | Eaddrinuse -> 4
    | Einval -> 5
    | Enotconn -> 6
    | Eclosed -> 7
    | Eagain -> 8
    | Enobufs -> 9)

let err_of_code v =
  match Int64.to_int v with
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

let ok_code = 0L
