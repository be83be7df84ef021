module Pairs = Nkutil.Int_tbl.Pair

type channel = { c2s : Nkutil.Byte_fifo.t; s2c : Nkutil.Byte_fifo.t }

(* Keyed by the client->server flow's (key src, key dst), with one entry
   per ISN: a TIME_WAIT incarnation and a fresh one can share a 4-tuple
   until the old one's entry goes. *)
type t = (int * channel) list Pairs.t

let create () = Pairs.create 64

let rec without (isn : int) = function
  | [] -> []
  | (i, _) :: rest when i = isn -> rest
  | e :: rest -> e :: without isn rest

let rec channel_of (isn : int) = function
  | [] -> None
  | (i, ch) :: _ when i = isn -> Some ch
  | _ :: rest -> channel_of isn rest

let entries t a b = match Pairs.find t a b with l -> l | exception Not_found -> []

let register t ~(flow : Addr.Flow.t) ~isn =
  let ch = { c2s = Nkutil.Byte_fifo.create (); s2c = Nkutil.Byte_fifo.create () } in
  let a = Addr.key flow.src and b = Addr.key flow.dst in
  Pairs.replace t a b ((isn, ch) :: without isn (entries t a b));
  ch

let lookup t ~(flow : Addr.Flow.t) ~isn =
  channel_of isn (entries t (Addr.key flow.src) (Addr.key flow.dst))

let remove t ~(flow : Addr.Flow.t) ~isn =
  let a = Addr.key flow.src and b = Addr.key flow.dst in
  match without isn (entries t a b) with
  | [] -> Pairs.remove t a b
  | l -> Pairs.replace t a b l
