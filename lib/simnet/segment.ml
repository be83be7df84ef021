type t = {
  flow : Addr.Flow.t;
  seq : int;
  ack : int;
  syn : bool;
  ack_flag : bool;
  fin : bool;
  rst : bool;
  window : int;
  len : int;
  ts : float;
  ts_echo : float;
}

let mss = 1448
let gso_max = 65536
let header_bytes = 78

let seq_mask = (1 lsl 32) - 1

let make ~flow ~seq ~ack ~syn ~ack_flag ~fin ~rst ~window ~len ~ts ~ts_echo =
  { flow; seq = seq land seq_mask; ack = ack land seq_mask; syn; ack_flag; fin; rst; window;
    len; ts; ts_echo }

let packets t = if t.len = 0 then 1 else (t.len + mss - 1) / mss

let wire_bytes t = t.len + (packets t * header_bytes)

let seq_end t =
  (t.seq + t.len + (if t.syn then 1 else 0) + if t.fin then 1 else 0) land seq_mask
