module Int_tbl = Nkutil.Int_tbl

let make stack =
  let socks = Int_tbl.create 64 in
  let next_fd = ref 3 in
  let find fd = Int_tbl.find_opt socks fd in
  let events_of fd =
    match Int_tbl.find socks fd with
    | s -> Stack.sock_events stack s
    | exception Not_found -> Types.no_events
  in
  let core_of fd =
    match Int_tbl.find socks fd with
    | s -> Stack.sock_core stack s
    | exception Not_found -> Sim.Cpu.Set.core (Stack.cores stack) 0
  in
  let epoll =
    Epoll_core.create ~engine:(Stack.engine stack) ~events_of ~core_of
      ~wake_cycles:(Stack.config stack).Stack.profile.Sim.Cost_profile.epoll_wake
  in
  let register_fd s =
    let fd = !next_fd in
    incr next_fd;
    Int_tbl.replace socks fd s;
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
    match Int_tbl.find socks fd with
    | s -> Stack.send stack s payload ~k
    | exception Not_found -> k (Error Types.Einval)
  in
  let recv fd ~max ~mode ~k =
    match Int_tbl.find socks fd with
    | s -> Stack.recv stack s ~max ~mode ~k
    | exception Not_found -> k (Error Types.Einval)
  in
  let close fd =
    match find fd with
    | None -> ()
    | Some s ->
        Stack.close stack s;
        Int_tbl.remove socks fd;
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
