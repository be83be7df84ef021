(* Minimal two-host world for stack-level tests: hosts connected through a
   100G fabric, one stack per host, direct (baseline) sockets. *)

open Tcpstack
module E = Sim.Engine

type t = {
  engine : E.t;
  registry : Conn_registry.t;
  fabric : Fabric.t;
  rng : Nkutil.Rng.t;
}

type endpoint = {
  stack : Stack.t;
  api : Socket_api.t;
  nic : Nic.t;
  vswitch : Vswitch.t;
  ip : Addr.ip;
}

let create ?(rate_gbps = 100.0) ?(delay = 20e-6) ?(seed = 42) () =
  let engine = E.create () in
  let fabric = Fabric.create engine ~rate_bps:(rate_gbps *. 1e9) ~delay () in
  { engine; registry = Conn_registry.create (); fabric; rng = Nkutil.Rng.create ~seed }

let add_endpoint ?(profile = Sim.Cost_profile.linux_kernel) ?(cores = 1) ?config ?mon t ~name
    ~ip =
  let nic = Nic.create t.engine ~name:(name ^ ".nic") () in
  Fabric.attach t.fabric nic;
  Fabric.add_route t.fabric ip nic;
  let vswitch = Vswitch.create t.engine ~nic () in
  let cpu = Sim.Cpu.Set.create t.engine ~name ~n:cores () in
  let cfg = match config with Some c -> c | None -> Stack.default_config profile in
  let stack =
    Stack.create ~engine:t.engine ~name ~cores:cpu ~vswitch ~registry:t.registry
      ~rng:(Nkutil.Rng.split t.rng) ?mon cfg
  in
  Stack.add_ip stack ip;
  { stack; api = Direct_socket.make stack; nic; vswitch; ip }

let run ?until t = E.run ?until t.engine

(* Retry-polling recv for tests that don't want to set up epoll. *)
let rec recv_retry t (api : Socket_api.t) fd ~max ~mode ~k =
  api.Socket_api.recv fd ~max ~mode ~k:(fun r ->
      match r with
      | Error Types.Eagain ->
          ignore (E.schedule t.engine ~delay:10e-6 (fun () -> recv_retry t api fd ~max ~mode ~k))
      | other -> k other)

(* Keep sending a payload until all bytes are accepted. *)
let rec send_all t (api : Socket_api.t) fd payload ~k =
  let total = Types.payload_len payload in
  api.Socket_api.send fd payload ~k:(fun r ->
      match r with
      | Error Types.Eagain ->
          ignore (E.schedule t.engine ~delay:10e-6 (fun () -> send_all t api fd payload ~k))
      | Error e -> k (Error e)
      | Ok n when n >= total -> k (Ok ())
      | Ok n ->
          let rest =
            match payload with
            | Types.Zeros z -> Types.Zeros (z - n)
            | Types.Data s -> Types.Data (String.sub s n (String.length s - n))
          in
          send_all t api fd rest ~k)
