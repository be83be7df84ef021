let make stack =
  let socks = Hashtbl.create 64 in
  let next_fd = ref 3 in
  let find fd = Hashtbl.find_opt socks fd in
  let events_of fd =
    match find fd with None -> Types.no_events | Some s -> Stack.sock_events stack s
  in
  let core_of fd =
    match find fd with
    | Some s -> Stack.sock_core stack s
    | None -> Sim.Cpu.Set.core (Stack.cores stack) 0
  in
  let epoll =
    Epoll_core.create ~engine:(Stack.engine stack) ~events_of ~core_of
      ~wake_cycles:(Stack.config stack).Stack.profile.Sim.Cost_profile.epoll_wake
  in
  let register_fd s =
    let fd = !next_fd in
    incr next_fd;
    Hashtbl.replace socks fd s;
    Stack.set_event_handler stack s (fun _ -> Epoll_core.notify epoll fd);
    fd
  in
  let socket () = Ok (register_fd (Stack.socket stack)) in
  let bind fd addr =
    match find fd with None -> Error Types.Einval | Some s -> Stack.bind stack s addr
  in
  let listen fd ~backlog =
    match find fd with None -> Error Types.Einval | Some s -> Stack.listen stack s ~backlog
  in
  let accept fd ~k =
    match find fd with
    | None -> k (Error Types.Einval)
    | Some s ->
        Stack.accept stack s ~k:(fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok cs ->
                let cfd = register_fd cs in
                let peer =
                  match Stack.peer_addr stack cs with
                  | Some a -> a
                  | None -> Addr.make 0 0
                in
                k (Ok (cfd, peer)))
  in
  let connect fd addr ~k =
    match find fd with None -> k (Error Types.Einval) | Some s -> Stack.connect stack s addr ~k
  in
  let send fd payload ~k =
    match find fd with None -> k (Error Types.Einval) | Some s -> Stack.send stack s payload ~k
  in
  let recv fd ~max ~mode ~k =
    match find fd with
    | None -> k (Error Types.Einval)
    | Some s -> Stack.recv stack s ~max ~mode ~k
  in
  let close fd =
    match find fd with
    | None -> ()
    | Some s ->
        Stack.close stack s;
        Hashtbl.remove socks fd;
        Epoll_core.remove epoll fd
  in
  let local_addr fd = Option.bind (find fd) (Stack.local_addr stack) in
  let peer_addr fd = Option.bind (find fd) (Stack.peer_addr stack) in
  {
    Socket_api.socket;
    bind;
    listen;
    accept;
    connect;
    send;
    recv;
    close;
    epoll_create = Epoll_core.epoll_create epoll;
    epoll_add = Epoll_core.epoll_add epoll;
    epoll_del = Epoll_core.epoll_del epoll;
    epoll_wait = Epoll_core.epoll_wait epoll;
    local_addr;
    peer_addr;
  }
