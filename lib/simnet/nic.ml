type t = {
  engine : Sim.Engine.t;
  name : string;
  pressure : Sim.Pressure.t option;
  mutable egress : Link.t option;
  mutable rx_handler : (Segment.t -> unit) option;
  mutable bytes_tx : int;
}

let create engine ~name ?pressure () =
  { engine; name; pressure; egress = None; rx_handler = None; bytes_tx = 0 }

let name t = t.name

let set_egress t link = t.egress <- Some link

let set_rx_handler t f = t.rx_handler <- Some f

let observe t seg =
  match t.pressure with
  | None -> ()
  | Some p -> Sim.Pressure.observe p ~bits:(float_of_int (Segment.wire_bytes seg) *. 8.0)

let transmit t seg =
  match t.egress with
  | None -> false
  | Some link ->
      let ok = Link.send link seg in
      if ok then begin
        t.bytes_tx <- t.bytes_tx + Segment.wire_bytes seg;
        observe t seg
      end;
      ok

let receive t seg =
  observe t seg;
  match t.rx_handler with None -> () | Some f -> f seg

let bytes_tx t = t.bytes_tx

