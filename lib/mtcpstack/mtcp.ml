module T = Tcpstack
module Cpu = Sim.Cpu

type t = {
  vswitch : Vswitch.t;
  shards : T.Stack.t array;
  mutable ips : Addr.ip list;
  mutable next_port : int;
}

let shards t = t.shards

let shard_for t flow = t.shards.(Addr.Flow.rss_hash flow mod Array.length t.shards)

(* RSS dispatch: what the NIC hardware does for mTCP's per-core queues. *)
let dispatch t (seg : Segment.t) = T.Stack.input (shard_for t seg.Segment.flow) seg

let create ~engine ~name ~cores ~vswitch ~registry ~rng ~mon () =
  let n = Cpu.Set.n cores in
  let cfg =
    {
      (T.Stack.default_config Sim.Cost_profile.mtcp) with
      T.Stack.rx_mode = T.Stack.Polling;
      (* ServiceLib drives the shards and charges the hugepage copy. *)
      charge_user_io = false;
      contention_cores = Some n;
      register_vswitch = false;
    }
  in
  let mk i =
    T.Stack.create ~engine
      ~name:(Printf.sprintf "%s.shard%d" name i)
      ~cores:(Cpu.Set.of_array [| Cpu.Set.core cores i |])
      ~vswitch ~registry ~rng:(Nkutil.Rng.split rng) ~mon cfg
  in
  { vswitch; shards = Array.init n mk; ips = []; next_port = 32768 }

let add_ip t ip =
  if not (List.mem ip t.ips) then begin
    t.ips <- ip :: t.ips;
    Array.iter (fun shard -> T.Stack.add_ip shard ip) t.shards;
    Vswitch.register_ip t.vswitch ip (dispatch t)
  end

let remove_ip t ip =
  if List.mem ip t.ips then begin
    t.ips <- List.filter (fun x -> x <> ip) t.ips;
    Array.iter (fun shard -> T.Stack.remove_ip shard ip) t.shards;
    (* Shards register with [register_vswitch = false]; the RSS dispatch
       entry is this facade's, so it releases it too. *)
    Vswitch.unregister_ip t.vswitch ip
  end

(* mTCP-style connect: walk the ephemeral port space until we find a port
   whose RSS hash maps the reply traffic onto an available shard slot. *)
let connect t ~dst ~k =
  match t.ips with
  | [] -> k (Error T.Types.Einval)
  | default_ip :: _ ->
      let rec attempt tries =
        if tries > 28000 then k (Error T.Types.Eaddrinuse)
        else begin
          let port = t.next_port in
          t.next_port <- (if t.next_port >= 60999 then 32768 else t.next_port + 1);
          let src = Addr.make default_ip port in
          let flow = Addr.Flow.make ~src ~dst in
          let shard = shard_for t flow in
          let s = T.Stack.socket shard in
          match T.Stack.bind shard s src with
          | Error _ -> attempt (tries + 1)
          | Ok () ->
              T.Stack.connect shard s dst ~k:(fun r ->
                  match r with
                  | Ok () -> k (Ok (T.Tcp_ops.conn_of_sock shard s))
                  | Error T.Types.Eaddrinuse -> attempt (tries + 1)
                  | Error e -> k (Error e))
        end
      in
      attempt 0

let ops t =
  let single = T.Tcp_ops.of_stack t.shards.(0) in
  {
    single with
    T.Stack_ops.add_ip = add_ip t;
    remove_ip = remove_ip t;
    new_listener =
      (fun ~addr ~backlog ~on_accept ->
        T.Tcp_ops.listener_on_group (Array.to_list t.shards) ~addr ~backlog ~on_accept);
    connect = (fun ~dst ~k -> connect t ~dst ~k);
    import_conn =
      (fun x ->
        match T.Tcp_ops.unpack_export x with
        | Error e -> Error e
        | Ok ex -> (
            (* Steer migrated-in flows across shards the same way RSS
               steers their segments, so imports spread like natively
               accepted connections. *)
            let shard = shard_for t x.T.Stack_ops.e_flow in
            match T.Stack.import_conn shard ex with
            | Ok s -> Ok (T.Tcp_ops.conn_of_sock shard s)
            | Error e -> Error e));
  }
