(* TCP backend for the protocol-neutral {!Stack_ops} boundary. Handles are
   (shard stack, stack sock) pairs, so the same code serves a single stack
   and the sharded mTCP facade. *)

type Stack_ops.conn += Conn of { c_stack : Stack.t; c_sock : Stack.sock }

type group = {
  mutable l_open : bool;
  mutable parts : (Stack.t * Stack.sock) list;
}

type Stack_ops.listener += Listener of group

type Stack_ops.payload += Tcp_state of Stack.export

let proto = "tcp"

let conn_of_sock stack sock = Conn { c_stack = stack; c_sock = sock }

(* Foreign handles mean a caller wired one backend's handle into another —
   always a bug, never a recoverable condition. *)
let unpack_conn = function
  | Conn c -> (c.c_stack, c.c_sock)
  | _ -> invalid_arg "Tcp_ops: foreign connection handle"

let unpack_listener = function
  | Listener l -> l
  | _ -> invalid_arg "Tcp_ops: foreign listener handle"

let export_of ex =
  {
    Stack_ops.e_proto = proto;
    e_flow = ex.Stack.e_registry_flow;
    e_payload = Tcp_state ex;
  }

let export_conn c =
  let stack, sock = unpack_conn c in
  match Stack.export_conn stack sock with
  | Ok ex -> Ok (export_of ex)
  | Error e -> Error e

let unpack_export (x : Stack_ops.export) =
  match x.Stack_ops.e_payload with
  | Tcp_state ex -> Ok ex
  | _ -> Error Types.Einval

(* Eagerly accept everything a listener part produces. *)
let rec accept_pump l stack sock ~on_accept =
  Stack.accept stack sock ~k:(fun r ->
      match r with
      | Error _ -> () (* listener closed *)
      | Ok cs ->
          let peer =
            match Stack.peer_addr stack cs with Some a -> a | None -> Addr.make 0 0
          in
          on_accept (conn_of_sock stack cs) ~peer;
          if l.l_open then accept_pump l stack sock ~on_accept)

let listener_on_group stacks ~addr ~backlog ~on_accept =
  let l = { l_open = true; parts = [] } in
  let rec setup = function
    | [] ->
        List.iter
          (fun (stack, sock) ->
            (* Parallel accept chains, like one thread per core. *)
            for _ = 1 to 4 do
              accept_pump l stack sock ~on_accept
            done)
          l.parts;
        Ok (Listener l)
    | stack :: rest -> (
        let s = Stack.socket stack in
        match Stack.bind stack s addr with
        | Error e ->
            List.iter (fun (st, so) -> Stack.close st so) l.parts;
            Error e
        | Ok () -> (
            match Stack.listen stack s ~backlog with
            | Error e ->
                List.iter (fun (st, so) -> Stack.close st so) l.parts;
                Error e
            | Ok () ->
                l.parts <- (stack, s) :: l.parts;
                setup rest))
  in
  setup stacks

let listener_on stack ~addr ~backlog ~on_accept =
  listener_on_group [ stack ] ~addr ~backlog ~on_accept

let close_listener_handle h =
  let l = unpack_listener h in
  if l.l_open then begin
    l.l_open <- false;
    List.iter (fun (stack, sock) -> Stack.close stack sock) l.parts
  end

let quiesce_listener_handle h =
  let l = unpack_listener h in
  if l.l_open then
    List.iter (fun (stack, sock) -> Stack.pause_listener stack sock) l.parts

let of_stack stack =
  {
    Stack_ops.add_ip = Stack.add_ip stack;
    remove_ip = Stack.remove_ip stack;
    new_listener = (fun ~addr ~backlog ~on_accept -> listener_on stack ~addr ~backlog ~on_accept);
    close_listener = close_listener_handle;
    quiesce_listener = quiesce_listener_handle;
    connect =
      (fun ~dst ~k ->
        let s = Stack.socket stack in
        Stack.connect stack s dst ~k:(fun r ->
            match r with
            | Ok () -> k (Ok (conn_of_sock stack s))
            | Error e -> k (Error e)));
    send =
      (fun c payload ~k ->
        let stack, sock = unpack_conn c in
        Stack.send stack sock payload ~k);
    recv =
      (fun c ~max ~mode ~k ->
        let stack, sock = unpack_conn c in
        Stack.recv stack sock ~max ~mode ~k);
    close_conn =
      (fun c ->
        let stack, sock = unpack_conn c in
        Stack.close stack sock);
    abort_conn =
      (fun c ->
        let stack, sock = unpack_conn c in
        Stack.abort stack sock);
    set_conn_handler =
      (fun c h ->
        let stack, sock = unpack_conn c in
        Stack.set_event_handler stack sock h);
    conn_core =
      (fun c ->
        let stack, sock = unpack_conn c in
        Stack.sock_core stack sock);
    conn_error =
      (fun c ->
        let stack, sock = unpack_conn c in
        Stack.sock_error stack sock);
    export_conn;
    import_conn =
      (fun x ->
        match unpack_export x with
        | Error e -> Error e
        | Ok ex -> (
            match Stack.import_conn stack ex with
            | Ok s -> Ok (conn_of_sock stack s)
            | Error e -> Error e));
    wake_cycles = (Stack.config stack).Stack.profile.Sim.Cost_profile.epoll_wake;
  }
