module Engine = Sim.Engine
module Cpu = Sim.Cpu
module Int_tbl = Nkutil.Int_tbl

type sock = Socket_api.sock

type waiter = {
  k : (sock * Types.events) list -> unit;
  mutable timer : Engine.Timer.t option;
}

(* One epoll instance. The fds last seen ready sit in [ready.(0)] ..
   [ready.(n_ready - 1)], ascending and each once: the order epoll_wait
   hands out events is application-visible, so it is fd order. *)
type instance = {
  members : Types.events Int_tbl.t; (* sock -> interest mask *)
  mutable ready : int array;
  mutable n_ready : int;
  mutable waiter : waiter option;
}

type t = {
  engine : Engine.t;
  events_of : sock -> Types.events;
  core_of : sock -> Cpu.t;
  wake_cycles : float;
  instances : instance Int_tbl.t; (* epoll id -> instance *)
  memberships : Socket_api.epoll list ref Int_tbl.t; (* sock -> epolls, newest first *)
  mutable next_ep : int;
}

let create ~engine ~events_of ~core_of ~wake_cycles =
  { engine; events_of; core_of; wake_cycles; instances = Int_tbl.create 8;
    memberships = Int_tbl.create 256; next_ep = 1 }

let nonempty (e : Types.events) = e.Types.readable || e.Types.writable || e.Types.hup

(* [ev] under an interest mask; [ev] itself when the mask keeps all of it
   (events are immutable). *)
let under (mask : Types.events) (ev : Types.events) =
  if
    (mask.Types.readable || not ev.Types.readable)
    && (mask.Types.writable || not ev.Types.writable)
  then ev
  else
    {
      Types.readable = ev.Types.readable && mask.Types.readable;
      writable = ev.Types.writable && mask.Types.writable;
      hup = ev.Types.hup;
    }

let masked ep fd ev =
  match Int_tbl.find ep.members fd with
  | exception Not_found -> Types.no_events
  | mask -> under mask ev

(* The index of the first ready fd >= [fd] in [ready.(lo)] .. [ready.(hi - 1)]. *)
let rec search ready (fd : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ready.(mid) < fd then search ready fd (mid + 1) hi else search ready fd lo mid

let mark_ready ep fd =
  let n = ep.n_ready in
  let i = search ep.ready fd 0 n in
  if i = n || ep.ready.(i) <> fd then begin
    if n = Array.length ep.ready then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit ep.ready 0 grown 0 n;
      ep.ready <- grown
    end;
    Array.blit ep.ready i ep.ready (i + 1) (n - i);
    ep.ready.(i) <- fd;
    ep.n_ready <- n + 1
  end

let unmark_ready ep fd =
  let n = ep.n_ready in
  let i = search ep.ready fd 0 n in
  if i < n && ep.ready.(i) = fd then begin
    Array.blit ep.ready (i + 1) ep.ready i (n - i - 1);
    ep.n_ready <- n - 1
  end

(* The ready fds from index [i] down, consed in front of [acc] with their
   masked events: the list comes out ascending. *)
let rec collect t ep i acc =
  if i < 0 then acc
  else
    let fd = ep.ready.(i) in
    let ev = masked ep fd (t.events_of fd) in
    collect t ep (i - 1) (if nonempty ev then (fd, ev) :: acc else acc)

let ready_list t ep = collect t ep (ep.n_ready - 1) []

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
  match Int_tbl.find ep.members fd with
  | exception Not_found -> ()
  | mask ->
      if nonempty (under mask (t.events_of fd)) then begin
        mark_ready ep fd;
        try_wake t ep (t.core_of fd)
      end
      else unmark_ready ep fd

let drop ep fd =
  Int_tbl.remove ep.members fd;
  unmark_ready ep fd

(* A loop rather than [List.iter]: [notify] runs on every socket event. *)
let rec notify_each t fd = function
  | [] -> ()
  | epid :: rest ->
      (match Int_tbl.find t.instances epid with
      | exception Not_found -> ()
      | ep -> notify_instance t ep fd);
      notify_each t fd rest

let notify t fd =
  match Int_tbl.find t.memberships fd with
  | exception Not_found -> ()
  | eps -> notify_each t fd !eps

let remove t fd =
  match Int_tbl.find t.memberships fd with
  | exception Not_found -> ()
  | eps ->
      List.iter
        (fun epid ->
          match Int_tbl.find t.instances epid with
          | exception Not_found -> ()
          | ep -> drop ep fd)
        !eps;
      Int_tbl.remove t.memberships fd

let epoll_create t () =
  let epid = t.next_ep in
  t.next_ep <- epid + 1;
  Int_tbl.replace t.instances epid
    { members = Int_tbl.create 64; ready = Array.make 16 0; n_ready = 0; waiter = None };
  epid

let epoll_add t epid fd ~mask =
  match Int_tbl.find t.instances epid with
  | exception Not_found -> ()
  | ep ->
      Int_tbl.replace ep.members fd mask;
      notify_instance t ep fd;
      let eps =
        match Int_tbl.find_opt t.memberships fd with
        | Some l -> l
        | None ->
            let l = ref [] in
            Int_tbl.replace t.memberships fd l;
            l
      in
      if not (List.mem epid !eps) then eps := epid :: !eps

let epoll_del t epid fd =
  match Int_tbl.find t.instances epid with
  | exception Not_found -> ()
  | ep -> (
      drop ep fd;
      match Int_tbl.find t.memberships fd with
      | exception Not_found -> ()
      | eps -> eps := List.filter (fun e -> e <> epid) !eps)

let epoll_wait t epid ~timeout ~k =
  match Int_tbl.find t.instances epid with
  | exception Not_found -> k []
  | ep -> (
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
