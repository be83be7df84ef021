type ip = int
type port = int
type t = { ip : ip; port : port }

let make ip port = { ip; port }

let equal a b = a.ip = b.ip && a.port = b.port

(* Mix with a 64-bit avalanche so sequentially-allocated ips/ports spread. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5B in
  x lxor (x lsr 32)

let hash a = mix ((a.ip * 65599) + a.port) land max_int

module Flow = struct
  type addr = t

  let addr_hash = hash

  type t = { src : addr; dst : addr }

  let make ~src ~dst = { src; dst }

  let reverse f = { src = f.dst; dst = f.src }

  let equal a b = equal a.src b.src && equal a.dst b.dst

  let hash f = mix ((addr_hash f.src * 31) + addr_hash f.dst) land max_int

  let rss_hash f =
    let a = addr_hash f.src and b = addr_hash f.dst in
    mix (Int.min a b + (31 * Int.max a b)) land max_int
end
