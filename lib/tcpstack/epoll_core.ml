module Engine = Sim.Engine
module Cpu = Sim.Cpu

type sock = Socket_api.sock

type waiter = {
  k : (sock * Types.events) list -> unit;
  mutable timer : Engine.Timer.t option;
}

(* One epoll instance. *)
type instance = {
  members : (sock, Types.events) Hashtbl.t; (* sock -> interest mask *)
  ready : (sock, unit) Hashtbl.t;
  mutable waiter : waiter option;
}

type t = {
  engine : Engine.t;
  events_of : sock -> Types.events;
  core_of : sock -> Cpu.t;
  wake_cycles : float;
  instances : (Socket_api.epoll, instance) Hashtbl.t;
  memberships : (sock, Socket_api.epoll list ref) Hashtbl.t; (* newest first *)
  mutable next_ep : int;
}

let create ~engine ~events_of ~core_of ~wake_cycles =
  { engine; events_of; core_of; wake_cycles; instances = Hashtbl.create 8;
    memberships = Hashtbl.create 256; next_ep = 1 }

let nonempty (e : Types.events) = e.Types.readable || e.Types.writable || e.Types.hup

let masked ep fd (ev : Types.events) =
  match Hashtbl.find_opt ep.members fd with
  | None -> Types.no_events
  | Some mask ->
      {
        Types.readable = ev.Types.readable && mask.Types.readable;
        writable = ev.Types.writable && mask.Types.writable;
        hup = ev.Types.hup;
      }

let ready_list t ep =
  (* Ascending-fd readiness order: the order epoll_wait hands out events is
     application-visible and must not depend on hash-bucket layout. *)
  Nkutil.Det_tbl.bindings ~cmp:Int.compare ep.ready
  |> List.filter_map (fun (fd, ()) ->
         let ev = masked ep fd (t.events_of fd) in
         if nonempty ev then Some (fd, ev) else None)

let try_wake t ep core =
  match ep.waiter with
  | None -> ()
  | Some w -> (
      match ready_list t ep with
      | [] -> ()
      | events ->
          ep.waiter <- None;
          (match w.timer with None -> () | Some h -> Engine.Timer.cancel t.engine h);
          Cpu.exec core ~cycles:t.wake_cycles (fun () -> w.k events))

let notify_instance t ep fd =
  if Hashtbl.mem ep.members fd then begin
    let ev = masked ep fd (t.events_of fd) in
    if nonempty ev then begin
      Hashtbl.replace ep.ready fd ();
      try_wake t ep (t.core_of fd)
    end
    else Hashtbl.remove ep.ready fd
  end

let drop ep fd =
  Hashtbl.remove ep.members fd;
  Hashtbl.remove ep.ready fd

(* A loop rather than [List.iter]: [notify] runs on every socket event. *)
let rec notify_each t fd = function
  | [] -> ()
  | epid :: rest ->
      (match Hashtbl.find_opt t.instances epid with
      | None -> ()
      | Some ep -> notify_instance t ep fd);
      notify_each t fd rest

let notify t fd =
  match Hashtbl.find_opt t.memberships fd with
  | None -> ()
  | Some eps -> notify_each t fd !eps

let remove t fd =
  match Hashtbl.find_opt t.memberships fd with
  | None -> ()
  | Some eps ->
      List.iter
        (fun epid ->
          match Hashtbl.find_opt t.instances epid with None -> () | Some ep -> drop ep fd)
        !eps;
      Hashtbl.remove t.memberships fd

let epoll_create t () =
  let epid = t.next_ep in
  t.next_ep <- epid + 1;
  Hashtbl.replace t.instances epid
    { members = Hashtbl.create 64; ready = Hashtbl.create 64; waiter = None };
  epid

let epoll_add t epid fd ~mask =
  match Hashtbl.find_opt t.instances epid with
  | None -> ()
  | Some ep ->
      Hashtbl.replace ep.members fd mask;
      notify_instance t ep fd;
      let eps =
        match Hashtbl.find_opt t.memberships fd with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.memberships fd l;
            l
      in
      if not (List.mem epid !eps) then eps := epid :: !eps

let epoll_del t epid fd =
  match Hashtbl.find_opt t.instances epid with
  | None -> ()
  | Some ep -> (
      drop ep fd;
      match Hashtbl.find_opt t.memberships fd with
      | None -> ()
      | Some eps -> eps := List.filter (fun e -> e <> epid) !eps)

let epoll_wait t epid ~timeout ~k =
  match Hashtbl.find_opt t.instances epid with
  | None -> k []
  | Some ep -> (
      match ready_list t ep with
      | (fd1, _) :: _ as events ->
          Cpu.exec (t.core_of fd1) ~cycles:t.wake_cycles (fun () -> k events)
      | [] ->
          let w = { k; timer = None } in
          if timeout >= 0.0 then
            w.timer <-
              Some
                (Engine.schedule t.engine ~delay:timeout (fun () ->
                     match ep.waiter with
                     | Some w' when w' == w ->
                         ep.waiter <- None;
                         w.k []
                     | Some _ | None -> ()));
          ep.waiter <- Some w)
