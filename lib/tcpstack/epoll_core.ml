module Engine = Sim.Engine
module Cpu = Sim.Cpu

type 'fd waiter = {
  k : ('fd * Types.events) list -> unit;
  mutable timer : Engine.Timer.t option;
}

type 'fd t = {
  engine : Engine.t;
  cmp : 'fd -> 'fd -> int;
  events_of : 'fd -> Types.events;
  core_of : 'fd -> Cpu.t;
  wake_cycles : float;
  members : ('fd, Types.events) Hashtbl.t; (* fd -> interest mask *)
  ready : ('fd, unit) Hashtbl.t;
  mutable waiter : 'fd waiter option;
}

let nonempty (e : Types.events) = e.Types.readable || e.Types.writable || e.Types.hup

let create ~engine ~cmp ~events_of ~core_of ~wake_cycles () =
  { engine; cmp; events_of; core_of; wake_cycles; members = Hashtbl.create 64;
    ready = Hashtbl.create 64; waiter = None }

let masked t fd (ev : Types.events) =
  match Hashtbl.find_opt t.members fd with
  | None -> Types.no_events
  | Some mask ->
      {
        Types.readable = ev.Types.readable && mask.Types.readable;
        writable = ev.Types.writable && mask.Types.writable;
        hup = ev.Types.hup;
      }

let ready_list t =
  (* Ascending-fd readiness order: the order epoll_wait hands out events is
     application-visible and must not depend on hash-bucket layout. *)
  Nkutil.Det_tbl.bindings ~cmp:t.cmp t.ready
  |> List.filter_map (fun (fd, ()) ->
         let ev = masked t fd (t.events_of fd) in
         if nonempty ev then Some (fd, ev) else None)

let try_wake t core =
  match t.waiter with
  | None -> ()
  | Some w -> (
      match ready_list t with
      | [] -> ()
      | events ->
          t.waiter <- None;
          (match w.timer with None -> () | Some h -> Engine.Timer.cancel t.engine h);
          Cpu.exec core ~cycles:t.wake_cycles (fun () -> w.k events))

let notify t fd =
  if Hashtbl.mem t.members fd then begin
    let ev = masked t fd (t.events_of fd) in
    if nonempty ev then begin
      Hashtbl.replace t.ready fd ();
      try_wake t (t.core_of fd)
    end
    else Hashtbl.remove t.ready fd
  end

let add t fd ~mask =
  Hashtbl.replace t.members fd mask;
  notify t fd

let del t fd =
  Hashtbl.remove t.members fd;
  Hashtbl.remove t.ready fd

let mem t fd = Hashtbl.mem t.members fd

let wait t ~timeout ~k =
  match ready_list t with
  | (fd1, _) :: _ as events ->
      Cpu.exec (t.core_of fd1) ~cycles:t.wake_cycles (fun () -> k events)
  | [] ->
      let w = { k; timer = None } in
      if timeout >= 0.0 then
        w.timer <-
          Some
            (Engine.schedule t.engine ~delay:timeout (fun () ->
                 match t.waiter with
                 | Some w' when w' == w ->
                     t.waiter <- None;
                     w.k []
                 | Some _ | None -> ()));
      t.waiter <- Some w
