module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api

type config = {
  addr : Addr.t;
  backlog : int;
  proto : Proto.t;
  app_cycles : float;
  app_cores : Sim.Cpu.Set.t option;
}

let config ?(backlog = 1024)
    ?(proto = Proto.Fixed { request = 64; response = 64; keepalive = false })
    ?(app_cycles = 0.0) ?app_cores addr =
  { addr; backlog; proto; app_cycles; app_cores; }

type stats = {
  mutable accepted : int;
  mutable requests : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable errors : int;
  mutable active : int;
}

type conn = {
  fd : Socket_api.sock;
  mutable req_pending : int; (* Fixed proto: bytes missing of current request *)
  parser : Http.Parser.t option;
  outq : Types.payload Queue.t;
  mutable keepalive : bool;
  mutable closing : bool;
  mutable watching_write : bool;
}

type t = {
  engine : Sim.Engine.t;
  api : Socket_api.t;
  cfg : config;
  reactor : Reactor.t;
  listener : Socket_api.sock;
  stats : stats;
  mutable stopped : bool;
  (* The payloads of one response, built once per server: keep-alive and
     close (the same for the fixed protocol). *)
  reply_keepalive : Types.payload list;
  reply_close : Types.payload list;
}

let stats t = t.stats

let charge_app t fd =
  if t.cfg.app_cycles > 0.0 then
    match t.cfg.app_cores with
    | None -> ()
    | Some cores -> Sim.Cpu.charge (Sim.Cpu.Set.pick cores ~hash:fd) ~cycles:t.cfg.app_cycles

let close_conn t c =
  if not c.closing then begin
    c.closing <- true;
    t.stats.active <- t.stats.active - 1;
    Reactor.unwatch t.reactor c.fd;
    t.api.Socket_api.close c.fd
  end

(* Push queued response payloads into the socket until it backpressures. *)
let rec flush t c =
  match Queue.peek_opt c.outq with
  | None ->
      if c.watching_write then begin
        c.watching_write <- false;
        Reactor.rewatch t.reactor c.fd ~readable:true ~writable:false
      end;
      if (not c.keepalive) && not c.closing then close_conn t c
  | Some payload ->
      t.api.Socket_api.send c.fd payload ~k:(fun r ->
          match r with
          | Ok n ->
              t.stats.bytes_out <- t.stats.bytes_out + n;
              let len = Types.payload_len payload in
              ignore (Queue.pop c.outq);
              if n < len then begin
                let rest =
                  match payload with
                  | Types.Zeros z -> Types.Zeros (z - n)
                  | Types.Data s -> Types.Data (String.sub s n (String.length s - n))
                in
                (* Re-queue the remainder at the front. *)
                let tmp = Queue.create () in
                Queue.add rest tmp;
                Queue.transfer c.outq tmp;
                Queue.transfer tmp c.outq
              end;
              flush t c
          | Error Types.Eagain ->
              if not c.watching_write then begin
                c.watching_write <- true;
                Reactor.rewatch t.reactor c.fd ~readable:true ~writable:true
              end
          | Error _ ->
              t.stats.errors <- t.stats.errors + 1;
              close_conn t c)

let reply proto ~keepalive =
  match proto with
  | Proto.Fixed f -> [ Types.Zeros f.response ]
  | Proto.Http h ->
      let head = Http.response_header ~content_length:h.response ~keepalive () in
      if h.response <= 1024 then
        (* writev-style: header and small body leave in one send *)
        [ Types.Data (head ^ String.make h.response '\000') ]
      else [ Types.Data head; Types.Zeros h.response ]

let rec queue_all q = function
  | [] -> ()
  | p :: rest ->
      Queue.add p q;
      queue_all q rest

let respond t c ~keepalive =
  t.stats.requests <- t.stats.requests + 1;
  charge_app t c.fd;
  (match t.cfg.proto with
  | Proto.Fixed _ -> ()
  | Proto.Http _ -> c.keepalive <- keepalive);
  queue_all c.outq (if keepalive then t.reply_keepalive else t.reply_close);
  flush t c

let rec respond_all t c = function
  | [] -> ()
  | msg :: rest ->
      respond t c ~keepalive:msg.Http.Parser.keepalive;
      respond_all t c rest

let on_request_bytes t c n =
  (* Fixed protocol: count request bytes; possibly several pipelined
     requests complete in one chunk. *)
  match t.cfg.proto with
  | Proto.Http _ -> ()
  | Proto.Fixed f ->
      let rec account n =
        if n > 0 then
          if n >= c.req_pending then begin
            let n = n - c.req_pending in
            c.req_pending <- f.request;
            respond t c ~keepalive:f.keepalive;
            account n
          end
          else c.req_pending <- c.req_pending - n
      in
      account n

let rec drain t c =
  if not c.closing then
    t.api.Socket_api.recv c.fd ~max:65536
      ~mode:(match t.cfg.proto with Proto.Fixed _ -> `Discard | Proto.Http _ -> `Auto)
      ~k:(fun r ->
        match r with
        | Ok payload when Types.payload_len payload = 0 ->
            (* Peer closed its half; finish what is queued and go away. *)
            c.keepalive <- false;
            if Queue.is_empty c.outq then close_conn t c
        | Ok payload ->
            let n = Types.payload_len payload in
            t.stats.bytes_in <- t.stats.bytes_in + n;
            (match (t.cfg.proto, c.parser) with
            | Proto.Fixed _, _ -> on_request_bytes t c n
            | Proto.Http _, Some parser ->
                let msgs =
                  try Http.Parser.feed parser payload
                  with Failure _ ->
                    t.stats.errors <- t.stats.errors + 1;
                    close_conn t c;
                    []
                in
                respond_all t c msgs
            | Proto.Http _, None -> ());
            drain t c
        | Error Types.Eagain -> ()
        | Error _ ->
            t.stats.errors <- t.stats.errors + 1;
            close_conn t c)

let handle_conn t fd =
  t.stats.accepted <- t.stats.accepted + 1;
  t.stats.active <- t.stats.active + 1;
  let c =
    {
      fd;
      req_pending =
        (match t.cfg.proto with Proto.Fixed f -> f.request | Proto.Http _ -> 0);
      parser =
        (match t.cfg.proto with
        | Proto.Http _ -> Some (Http.Parser.create ())
        | Proto.Fixed _ -> None);
      outq = Queue.create ();
      keepalive = Proto.keepalive t.cfg.proto;
      closing = false;
      watching_write = false;
    }
  in
  Reactor.watch t.reactor fd ~readable:true ~writable:false (fun ev ->
      if ev.Types.hup && Queue.is_empty c.outq then close_conn t c
      else begin
        if ev.Types.readable then drain t c;
        if ev.Types.writable then flush t c
      end);
  (* Level-triggered: data may already be waiting. *)
  drain t c

let rec accept_loop t =
  if not t.stopped then
    t.api.Socket_api.accept t.listener ~k:(fun r ->
        match r with
        | Error (Types.Eclosed | Types.Einval) -> () (* listener closed *)
        | Error _ ->
            (* Transient listener failure (e.g. its NSM crashed): count it
               and keep accepting — the operator may re-home the listener,
               after which connections flow again. *)
            if not t.stopped then begin
              t.stats.errors <- t.stats.errors + 1;
              ignore
                (Sim.Engine.schedule t.engine ~delay:0.01 (fun () -> accept_loop t))
            end
        | Ok (fd, _peer) ->
            handle_conn t fd;
            accept_loop t)

(* One accept chain per worker thread (SO_REUSEPORT-style parallelism). *)
let accept_parallelism = 16

let start ~engine ~api cfg =
  match api.Socket_api.socket () with
  | Error e -> Error e
  | Ok ls -> (
      match api.Socket_api.bind ls cfg.addr with
      | Error e -> Error e
      | Ok () -> (
          match api.Socket_api.listen ls ~backlog:cfg.backlog with
          | Error e -> Error e
          | Ok () ->
              let t =
                {
                  engine;
                  api;
                  cfg;
                  reactor = Reactor.create api;
                  listener = ls;
                  stats =
                    { accepted = 0; requests = 0; bytes_in = 0; bytes_out = 0; errors = 0;
                      active = 0 };
                  stopped = false;
                  reply_keepalive = reply cfg.proto ~keepalive:true;
                  reply_close = reply cfg.proto ~keepalive:false;
                }
              in
              for _ = 1 to accept_parallelism do
                accept_loop t
              done;
              Reactor.run t.reactor;
              Ok t))
