module Endpoint_table = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal
  let hash = Addr.hash
end)

module Flow_table = Hashtbl.Make (struct
  type t = Addr.Flow.t

  let equal = Addr.Flow.equal
  let hash = Addr.Flow.hash
end)

type t = {
  engine : Sim.Engine.t;
  nic : Nic.t;
  by_ip : (Segment.t -> unit) Nkutil.Int_tbl.t;
  by_endpoint : (Segment.t -> unit) Endpoint_table.t;
  by_flow : (Segment.t -> unit) Flow_table.t;
  mutable unclaimed : int;
}

(* Every segment takes this path, so the lookups use [find]/[Not_found]
   rather than [find_opt]: no [Some] per table consulted. *)
let input t (seg : Segment.t) =
  match Flow_table.find t.by_flow seg.Segment.flow with
  | f -> f seg
  | exception Not_found -> (
      let dst = seg.Segment.flow.dst in
      match Endpoint_table.find t.by_endpoint dst with
      | f -> f seg
      | exception Not_found -> (
          match Nkutil.Int_tbl.find t.by_ip dst.ip with
          | f -> f seg
          | exception Not_found -> t.unclaimed <- t.unclaimed + 1))

let create engine ~nic () =
  let t =
    { engine; nic; by_ip = Nkutil.Int_tbl.create 16;
      by_endpoint = Endpoint_table.create 16; by_flow = Flow_table.create 256;
      unclaimed = 0 }
  in
  Nic.set_rx_handler nic (input t);
  t

let register_ip t ip f = Nkutil.Int_tbl.replace t.by_ip ip f

let unregister_ip t ip = Nkutil.Int_tbl.remove t.by_ip ip

let register_endpoint t addr f = Endpoint_table.replace t.by_endpoint addr f

let unregister_endpoint t addr = Endpoint_table.remove t.by_endpoint addr

let register_flow t flow f = Flow_table.replace t.by_flow flow f

let unregister_flow t flow = Flow_table.remove t.by_flow flow

let owns_ip t ip = Nkutil.Int_tbl.mem t.by_ip ip

(* Intra-host delivery latency. *)
let local_delay = 5e-6

let output t (seg : Segment.t) =
  if owns_ip t seg.Segment.flow.dst.ip
     || Endpoint_table.mem t.by_endpoint seg.Segment.flow.dst
  then ignore (Sim.Engine.schedule t.engine ~delay:local_delay (fun () -> input t seg))
  else ignore (Nic.transmit t.nic seg)

let unclaimed t = t.unclaimed
