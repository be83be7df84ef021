type port = { nic : Nic.t; downlink : Link.t }

type t = {
  engine : Sim.Engine.t;
  rate : float;
  delay : float;
  buffer : int option;
  mutable ports : port list;
  routes : port Nkutil.Int_tbl.t; (* ip -> port *)
  mutable unrouted : int;
}

let create engine ~rate_bps ~delay ?buffer_bytes () =
  { engine; rate = rate_bps; delay; buffer = buffer_bytes; ports = [];
    routes = Nkutil.Int_tbl.create 16; unrouted = 0 }

(* [find]/[Not_found] rather than [find_opt]: no [Some] per segment. *)
let forward t (seg : Segment.t) =
  match Nkutil.Int_tbl.find t.routes seg.Segment.flow.dst.ip with
  | port -> ignore (Link.send port.downlink seg)
  | exception Not_found -> t.unrouted <- t.unrouted + 1

let attach t nic =
  let mk name =
    Link.create t.engine ~rate_bps:t.rate ~delay:(t.delay /. 2.0) ?buffer_bytes:t.buffer
      ~name ()
  in
  let uplink = mk (Nic.name nic ^ ".up") in
  let downlink = mk (Nic.name nic ^ ".down") in
  Link.set_receiver uplink (forward t);
  Link.set_receiver downlink (Nic.receive nic);
  Nic.set_egress nic uplink;
  t.ports <- { nic; downlink } :: t.ports

let add_route t ip nic =
  match List.find_opt (fun p -> p.nic == nic) t.ports with
  | Some port -> Nkutil.Int_tbl.replace t.routes ip port
  | None -> invalid_arg "Fabric.add_route: NIC not attached"

let port_to t nic =
  List.find_opt (fun p -> p.nic == nic) t.ports |> Option.map (fun p -> p.downlink)

let unrouted t = t.unrouted
