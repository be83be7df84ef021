(* The protocol-neutral NSM transport boundary. Handles and migration
   payloads are extensible variants: each backend (Tcp_ops, the mTCP
   facade, Homastack) adds its own constructors, so nothing
   protocol-specific appears here. *)

type conn = ..

type listener = ..

type payload = ..

type export = {
  e_proto : string;
  e_flow : Addr.Flow.t;
  e_payload : payload;
}

type t = {
  add_ip : Addr.ip -> unit;
  remove_ip : Addr.ip -> unit;
  new_listener :
    addr:Addr.t -> backlog:int -> on_accept:(conn -> peer:Addr.t -> unit) ->
    (listener, Types.err) result;
  close_listener : listener -> unit;
  quiesce_listener : listener -> unit;
  connect : dst:Addr.t -> k:((conn, Types.err) result -> unit) -> unit;
  send : conn -> Types.payload -> k:((int, Types.err) result -> unit) -> unit;
  recv :
    conn -> max:int -> mode:Types.recv_mode ->
    k:((Types.payload, Types.err) result -> unit) -> unit;
  close_conn : conn -> unit;
  abort_conn : conn -> unit;
  set_conn_handler : conn -> (Types.events -> unit) -> unit;
  conn_core : conn -> Sim.Cpu.t;
  conn_error : conn -> Types.err option;
  export_conn : conn -> (export, Types.err) result;
  import_conn : export -> (conn, Types.err) result;
  wake_cycles : float;
}
