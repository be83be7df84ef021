type ip = int
type port = int
type t = { ip : ip; port : port }

let make ip port =
  if ip < 0 || ip > 0xFFFFFFFF then invalid_arg "Addr.make: ip outside [0, 2^32)";
  if port < 0 || port > 0xFFFF then invalid_arg "Addr.make: port outside [0, 2^16)";
  { ip; port }

let equal a b = a.ip = b.ip && a.port = b.port

let key a = (a.ip lsl 16) lor a.port

(* Mix with a 64-bit avalanche so sequentially-allocated ips/ports spread. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5B in
  x lxor (x lsr 32)

let hash a = mix ((a.ip * 65599) + a.port) land max_int

module Flow = struct
  type addr = t
  type t = { src : addr; dst : addr }

  let make ~src ~dst = { src; dst }

  let reverse f = { src = f.dst; dst = f.src }

  let rss_hash f =
    let a = hash f.src and b = hash f.dst in
    mix (Int.min a b + (31 * Int.max a b)) land max_int
end
