module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api
module Engine = Sim.Engine

type mode =
  | Closed of { concurrency : int; total : int option; duration : float option }
  | Open of { rate_at : float -> float; duration : float }

type config = { server : Addr.t; proto : Proto.t; mode : mode; warmup : float }

type results = {
  completed : int;
  errors : int;
  started : float;
  finished : float;
  rps : float;
  latency : Nkutil.Histogram.t;
  response_bytes : int;
  completions : Nkutil.Timeseries.t;
}

type t = {
  engine : Engine.t;
  api : Socket_api.t;
  cfg : config;
  reactor : Reactor.t;
  latency : Nkutil.Histogram.t;
  completions : Nkutil.Timeseries.t;
  mutable issued : int;
  mutable completed : int;
  mutable errors : int;
  mutable response_bytes : int;
  mutable in_flight : int;
  mutable started : float;
  mutable finished : float;
  mutable done_fired : bool;
  mutable deadline : float;
  request : Types.payload;  (* every request's bytes, built once *)
}

let in_flight t = t.in_flight

let results t =
  let span = Float.max 1e-9 (t.finished -. t.started) in
  {
    completed = t.completed;
    errors = t.errors;
    started = t.started;
    finished = t.finished;
    rps = float_of_int t.completed /. span;
    latency = t.latency;
    response_bytes = t.response_bytes;
    completions = t.completions;
  }

let budget_left t =
  (match t.cfg.mode with
  | Closed { total = Some total; _ } -> t.issued < total
  | Closed { total = None; _ } | Open _ -> true)
  && Engine.now t.engine < t.deadline

let maybe_done t =
  match t.cfg.mode with
  | Closed { total = Some total; _ } ->
      if t.completed + t.errors >= total && not t.done_fired then begin
        t.done_fired <- true;
        t.finished <- Engine.now t.engine
      end
  | Closed _ | Open _ -> ()

let record_completion t ~t0 ~bytes =
  let now = Engine.now t.engine in
  t.completed <- t.completed + 1;
  t.response_bytes <- t.response_bytes + bytes;
  t.finished <- now;
  Nkutil.Timeseries.add t.completions ~time:now 1.0;
  if t0 >= t.cfg.warmup then Nkutil.Histogram.record t.latency (now -. t0)

let record_error t =
  t.errors <- t.errors + 1;
  t.finished <- Engine.now t.engine

(* Execute one request on an established connection; [k_done ok] fires when
   the response is fully received (or the connection failed). *)
let run_request t fd ~k_done =
  let parser =
    match t.cfg.proto with
    | Proto.Http _ -> Some (Http.Parser.create ())
    | Proto.Fixed _ -> None
  in
  let remaining =
    ref (match t.cfg.proto with Proto.Fixed f -> f.response | Proto.Http _ -> max_int)
  in
  let got = ref 0 in
  let finished = ref false in
  let finish ok =
    if not !finished then begin
      finished := true;
      Reactor.unwatch t.reactor fd;
      k_done ok
    end
  in
  let rec read_loop () =
    if not !finished then
      t.api.Socket_api.recv fd ~max:65536 ~mode:`Auto ~k:(fun r ->
          match r with
          | Ok payload when Types.payload_len payload = 0 -> finish false (* early EOF *)
          | Ok payload ->
              let n = Types.payload_len payload in
              got := !got + n;
              (match (t.cfg.proto, parser) with
              | Proto.Fixed _, _ ->
                  remaining := !remaining - n;
                  if !remaining <= 0 then finish true else read_loop ()
              | Proto.Http _, Some p -> (
                  match Http.Parser.feed p payload with
                  | [] -> read_loop ()
                  | _ :: _ -> finish true
                  | exception Failure _ -> finish false)
              | Proto.Http _, None -> finish false)
          | Error Types.Eagain -> ()
          | Error _ -> finish false)
  in
  Reactor.watch t.reactor fd ~readable:true ~writable:false (fun ev ->
      if ev.Types.readable then read_loop ()
      else if ev.Types.hup then finish false);
  (* Ship the request (small; retry on partial acceptance). *)
  let rec send_payload payload =
    t.api.Socket_api.send fd payload ~k:(fun r ->
        match r with
        | Ok n ->
            let len = Types.payload_len payload in
            if n < len then
              send_payload
                (match payload with
                | Types.Zeros z -> Types.Zeros (z - n)
                | Types.Data s -> Types.Data (String.sub s n (String.length s - n)))
        | Error Types.Eagain ->
            ignore (Engine.schedule t.engine ~delay:10e-6 (fun () -> send_payload payload))
        | Error _ -> finish false)
  in
  send_payload t.request;
  read_loop ()

let one_shot t ~k =
  let t0 = Engine.now t.engine in
  match t.api.Socket_api.socket () with
  | Error _ ->
      record_error t;
      k ()
  | Ok fd ->
      t.api.Socket_api.connect fd t.cfg.server ~k:(fun r ->
          match r with
          | Error _ ->
              record_error t;
              t.api.Socket_api.close fd;
              maybe_done t;
              k ()
          | Ok () ->
              run_request t fd ~k_done:(fun ok ->
                  let bytes =
                    match t.cfg.proto with
                    | Proto.Fixed f -> f.response
                    | Proto.Http h -> h.response
                  in
                  if ok then record_completion t ~t0 ~bytes else record_error t;
                  t.api.Socket_api.close fd;
                  maybe_done t;
                  k ()))

let rec closed_worker t =
  if budget_left t then begin
    t.issued <- t.issued + 1;
    t.in_flight <- t.in_flight + 1;
    one_shot t ~k:(fun () ->
        t.in_flight <- t.in_flight - 1;
        closed_worker t)
  end

let rec open_arrivals t =
  let now = Engine.now t.engine in
  if now < t.deadline then begin
    let rate = Float.max 1e-9 ((match t.cfg.mode with
      | Open { rate_at; _ } -> rate_at now
      | Closed _ -> 0.0))
    in
    let delay = 1.0 /. rate in
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if Engine.now t.engine < t.deadline then begin
             t.issued <- t.issued + 1;
             t.in_flight <- t.in_flight + 1;
             one_shot t ~k:(fun () -> t.in_flight <- t.in_flight - 1)
           end;
           open_arrivals t))
  end

let start ~engine ~api cfg =
  let deadline =
    match cfg.mode with
    | Closed { duration = Some d; _ } -> Engine.now engine +. d
    | Closed { duration = None; _ } -> infinity
    | Open { duration; _ } -> Engine.now engine +. duration
  in
  let t =
    {
      engine;
      api;
      cfg;
      reactor = Reactor.create api;
      latency = Nkutil.Histogram.create ();
      completions = Nkutil.Timeseries.create ~bin_width:0.1 ();
      issued = 0;
      completed = 0;
      errors = 0;
      response_bytes = 0;
      in_flight = 0;
      started = Engine.now engine;
      finished = Engine.now engine;
      done_fired = false;
      deadline;
      request = Proto.request_payload cfg.proto;
    }
  in
  Reactor.run t.reactor;
  (match cfg.mode with
  | Closed { concurrency; _ } ->
      (* Ramp workers up instead of firing all SYNs in the same instant:
         real clients (and ab) spread connection establishment over the
         first RTTs. *)
      for i = 0 to concurrency - 1 do
        ignore
          (Engine.schedule engine ~delay:(float_of_int i *. 50e-6) (fun () ->
               closed_worker t))
      done
  | Open _ -> open_arrivals t);
  t
