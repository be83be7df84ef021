module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api

type stats = { mutable commands : int; mutable hits : int; mutable misses : int }

type t = {
  engine : Sim.Engine.t;
  api : Socket_api.t;
  reactor : Reactor.t;
  table : (string, string) Hashtbl.t;
  stats : stats;
}

(* Split a buffer into complete CRLF-terminated lines plus the remainder. *)
let split_lines buf =
  let s = Buffer.contents buf in
  let lines = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  let n = String.length s in
  while !i + 1 < n do
    if s.[!i] = '\r' && s.[!i + 1] = '\n' then begin
      lines := String.sub s !start (!i - !start) :: !lines;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  Buffer.clear buf;
  Buffer.add_substring buf s !start (n - !start);
  List.rev !lines

let execute t line =
  t.stats.commands <- t.stats.commands + 1;
  match String.split_on_char ' ' line with
  | [ "GET"; key ] -> (
      match Hashtbl.find_opt t.table key with
      | Some v ->
          t.stats.hits <- t.stats.hits + 1;
          "$" ^ v
      | None ->
          t.stats.misses <- t.stats.misses + 1;
          "$-1")
  | "SET" :: key :: rest when rest <> [] ->
      Hashtbl.replace t.table key (String.concat " " rest);
      "+OK"
  | [ "DEL"; key ] ->
      if Hashtbl.mem t.table key then begin
        Hashtbl.remove t.table key;
        ":1"
      end
      else ":0"
  | _ -> "-ERR unknown command"

let rec send_all api fd data k =
  api.Socket_api.send fd (Types.Data data) ~k:(fun r ->
      match r with
      | Ok n when n >= String.length data -> k ()
      | Ok n -> send_all api fd (String.sub data n (String.length data - n)) k
      | Error _ -> k ())

let handle_conn t fd =
  let inbuf = Buffer.create 128 in
  let rec drain () =
    t.api.Socket_api.recv fd ~max:65536 ~mode:`Copy ~k:(fun r ->
        match r with
        | Ok (Types.Data "") | Ok (Types.Zeros 0) ->
            Reactor.unwatch t.reactor fd;
            t.api.Socket_api.close fd
        | Ok (Types.Data s) ->
            Buffer.add_string inbuf s;
            let replies =
              split_lines inbuf |> List.map (execute t)
              |> List.map (fun r -> r ^ "\r\n")
              |> String.concat ""
            in
            if replies = "" then drain () else send_all t.api fd replies drain
        | Ok (Types.Zeros _) ->
            (* Synthetic payload makes no sense for a parsed protocol. *)
            Reactor.unwatch t.reactor fd;
            t.api.Socket_api.close fd
        | Error Types.Eagain -> ()
        | Error _ ->
            Reactor.unwatch t.reactor fd;
            t.api.Socket_api.close fd)
  in
  Reactor.watch t.reactor fd ~readable:true ~writable:false (fun ev ->
      if ev.Types.readable then drain ());
  drain ()

let start ~engine ~api ~addr =
  match api.Socket_api.socket () with
  | Error e -> Error e
  | Ok ls -> (
      match api.Socket_api.bind ls addr with
      | Error e -> Error e
      | Ok () -> (
          match api.Socket_api.listen ls ~backlog:512 with
          | Error e -> Error e
          | Ok () ->
              let t =
                { engine; api; reactor = Reactor.create api;
                  table = Hashtbl.create 1024;
                  stats = { commands = 0; hits = 0; misses = 0 } }
              in
              let rec accept_loop () =
                api.Socket_api.accept ls ~k:(fun r ->
                    match r with
                    | Error (Types.Eclosed | Types.Einval) -> ()
                    | Error _ ->
                        (* Transient listener failure (e.g. its NSM crashed):
                           keep accepting so service resumes once the operator
                           re-homes the listener. *)
                        ignore
                          (Sim.Engine.schedule t.engine ~delay:0.01 (fun () ->
                               accept_loop ()))
                    | Ok (fd, _) ->
                        handle_conn t fd;
                        accept_loop ())
              in
              accept_loop ();
              Reactor.run t.reactor;
              Ok t))

module Client = struct
  type conn = {
    c_api : Socket_api.t;
    c_fd : Socket_api.sock;
    c_reactor : Reactor.t;
    c_buf : Buffer.t;
    waiters : (string -> unit) Queue.t;
    mutable c_dead : bool;
  }

  (* A lost connection must error every outstanding command — a command
     whose server died gets a reply, never a hang. *)
  let fail_conn c =
    if not c.c_dead then begin
      c.c_dead <- true;
      Reactor.unwatch c.c_reactor c.c_fd;
      c.c_api.Socket_api.close c.c_fd;
      Queue.iter (fun waiter -> waiter "-ERR connection lost") c.waiters;
      Queue.clear c.waiters
    end

  let connect ~engine ~api addr ~k =
    ignore engine;
    match api.Socket_api.socket () with
    | Error e -> k (Error e)
    | Ok fd ->
        api.Socket_api.connect fd addr ~k:(fun r ->
            match r with
            | Error e -> k (Error e)
            | Ok () ->
                let c =
                  { c_api = api; c_fd = fd; c_reactor = Reactor.create api;
                    c_buf = Buffer.create 128; waiters = Queue.create ();
                    c_dead = false }
                in
                let rec drain () =
                  api.Socket_api.recv fd ~max:65536 ~mode:`Copy ~k:(fun r ->
                      match r with
                      | Ok (Types.Data s) when s <> "" ->
                          Buffer.add_string c.c_buf s;
                          List.iter
                            (fun line ->
                              match Queue.pop c.waiters with
                              | waiter -> waiter line
                              | exception Queue.Empty -> ())
                            (split_lines c.c_buf);
                          drain ()
                      | Ok _ -> fail_conn c (* EOF *)
                      | Error Types.Eagain -> ()
                      | Error _ -> fail_conn c)
                in
                Reactor.watch c.c_reactor fd ~readable:true ~writable:false (fun ev ->
                    if ev.Types.readable then drain ());
                Reactor.run c.c_reactor;
                k (Ok c))

  let command c line k =
    if c.c_dead then k "-ERR connection lost"
    else begin
      Queue.add k c.waiters;
      send_all c.c_api c.c_fd (line ^ "\r\n") (fun () -> ())
    end

  let set c ~key ~value ~k =
    command c (Printf.sprintf "SET %s %s" key value) (fun reply ->
        if reply = "+OK" then k (Ok ()) else k (Error reply))

  let get c ~key ~k =
    command c ("GET " ^ key) (fun reply ->
        if reply = "$-1" then k (Ok None)
        else if String.length reply > 0 && reply.[0] = '$' then
          k (Ok (Some (String.sub reply 1 (String.length reply - 1))))
        else k (Error reply))

  let del c ~key ~k =
    command c ("DEL " ^ key) (fun reply ->
        if reply = ":1" then k (Ok true)
        else if reply = ":0" then k (Ok false)
        else k (Error reply))

  let close c =
    if not c.c_dead then begin
      c.c_dead <- true;
      Reactor.unwatch c.c_reactor c.c_fd;
      c.c_api.Socket_api.close c.c_fd
    end
end
