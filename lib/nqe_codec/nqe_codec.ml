module Nqe = Nkcore.Nqe

type t = {
  op : Nqe.op;
  vm_id : int;
  qset : int;
  sock : int;
  op_data : int;
  data_ptr : int;
  size : int;
  synthetic : bool;
  span : int;
}

let make ~op ~vm_id ~qset ~sock ?(op_data = 0) ?(data_ptr = 0) ?(size = 0)
    ?(synthetic = false) ?(span = 0) () =
  { op; vm_id; qset; sock; op_data; data_ptr; size; synthetic; span }

let encode_into t buf ~pos =
  if pos < 0 || pos + Nqe.size_bytes > Bytes.length buf then
    invalid_arg "Nqe_codec.encode_into: out of bounds";
  Bytes.set_uint8 buf pos (Nqe.op_to_byte t.op);
  Bytes.set_uint8 buf (pos + 1) (t.vm_id land 0xFF);
  Bytes.set_uint8 buf (pos + 2) (t.qset land 0xFF);
  Bytes.set_int32_le buf (pos + 3) (Int32.of_int t.sock);
  Bytes.set_int64_le buf (pos + 7) (Int64.of_int t.op_data);
  Bytes.set_int64_le buf (pos + 15) (Int64.of_int t.data_ptr);
  Bytes.set_int32_le buf (pos + 23) (Int32.of_int t.size);
  Bytes.set_uint8 buf (pos + 27) (if t.synthetic then 1 else 0);
  Bytes.set_int32_le buf (pos + 28) (Int32.of_int t.span)

let encode t =
  let buf = Bytes.create Nqe.size_bytes in
  encode_into t buf ~pos:0;
  buf

let decode_from buf ~pos =
  if pos < 0 || pos + Nqe.size_bytes > Bytes.length buf then Error "short NQE buffer"
  else
    match Nqe.op_of_byte (Bytes.get_uint8 buf pos) with
    | None -> Error (Printf.sprintf "unknown NQE op %d" (Bytes.get_uint8 buf pos))
    | Some op ->
        Ok
          {
            op;
            vm_id = Bytes.get_uint8 buf (pos + 1);
            qset = Bytes.get_uint8 buf (pos + 2);
            sock = Int32.to_int (Bytes.get_int32_le buf (pos + 3)) land 0xFFFFFFFF;
            op_data = Int64.to_int (Bytes.get_int64_le buf (pos + 7));
            data_ptr = Int64.to_int (Bytes.get_int64_le buf (pos + 15));
            size = Int32.to_int (Bytes.get_int32_le buf (pos + 23)) land 0xFFFFFFFF;
            synthetic = Bytes.get_uint8 buf (pos + 27) land 1 = 1;
            span = Int32.to_int (Bytes.get_int32_le buf (pos + 28)) land 0xFFFFFFFF;
          }

let decode buf = decode_from buf ~pos:0
