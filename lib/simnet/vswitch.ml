module IT = Nkutil.Int_tbl

type t = {
  engine : Sim.Engine.t;
  nic : Nic.t;
  by_ip : (Segment.t -> unit) IT.t;
  by_endpoint : (Segment.t -> unit) IT.t; (* keyed by [Addr.key] *)
  by_flow : (Segment.t -> unit) IT.Pair.t; (* keyed by (key src, key dst) *)
  mutable unclaimed : int;
}

(* Every segment takes this path, so the lookups use [find]/[Not_found]
   rather than [find_opt]: no [Some] per table consulted. *)
let input t (seg : Segment.t) =
  let src = seg.Segment.flow.src and dst = seg.Segment.flow.dst in
  match IT.Pair.find t.by_flow (Addr.key src) (Addr.key dst) with
  | f -> f seg
  | exception Not_found -> (
      match IT.find t.by_endpoint (Addr.key dst) with
      | f -> f seg
      | exception Not_found -> (
          match IT.find t.by_ip dst.ip with
          | f -> f seg
          | exception Not_found -> t.unclaimed <- t.unclaimed + 1))

let create engine ~nic () =
  let t =
    { engine; nic; by_ip = IT.create 16; by_endpoint = IT.create 16;
      by_flow = IT.Pair.create 256; unclaimed = 0 }
  in
  Nic.set_rx_handler nic (input t);
  t

let register_ip t ip f = IT.replace t.by_ip ip f

let unregister_ip t ip = IT.remove t.by_ip ip

let register_endpoint t addr f = IT.replace t.by_endpoint (Addr.key addr) f

let unregister_endpoint t addr = IT.remove t.by_endpoint (Addr.key addr)

let register_flow t (flow : Addr.Flow.t) f =
  IT.Pair.replace t.by_flow (Addr.key flow.src) (Addr.key flow.dst) f

let unregister_flow t (flow : Addr.Flow.t) =
  IT.Pair.remove t.by_flow (Addr.key flow.src) (Addr.key flow.dst)

let owns_ip t ip = IT.mem t.by_ip ip

(* Intra-host delivery latency. *)
let local_delay = 5e-6

let output t (seg : Segment.t) =
  let dst = seg.Segment.flow.dst in
  if owns_ip t dst.ip || IT.mem t.by_endpoint (Addr.key dst) then
    ignore (Sim.Engine.schedule t.engine ~delay:local_delay (fun () -> input t seg))
  else ignore (Nic.transmit t.nic seg)

let unclaimed t = t.unclaimed
