(** Epoll emulation for one socket API.

    One table holds every epoll instance of a {!Socket_api.t} and, per
    socket, the instances it belongs to. Readiness is level-triggered,
    with the waiter wake-up charged to the CPU core of the socket that
    became ready. Used by {!Direct_socket} (Baseline) and by NetKernel's
    GuestLib — the same I/O event notification semantics the paper
    preserves for applications (§4.2). *)

type t

val create :
  engine:Sim.Engine.t ->
  events_of:(Socket_api.sock -> Types.events) ->
  core_of:(Socket_api.sock -> Sim.Cpu.t) ->
  wake_cycles:float ->
  t
(** [events_of] must return the socket's current readiness snapshot;
    [core_of] the core charged [wake_cycles] when a waiter is woken. *)

val notify : t -> Socket_api.sock -> unit
(** The socket's readiness may have changed: every instance it belongs to
    re-reads [events_of], most recently joined instance first. Cheap no-op
    for a socket in no instance. *)

val remove : t -> Socket_api.sock -> unit
(** The socket closed: drop it from every instance it belongs to. *)

val epoll_create : t -> unit -> Socket_api.epoll

val epoll_add : t -> Socket_api.epoll -> Socket_api.sock -> mask:Types.events -> unit
(** Register interest in the event kinds set in [mask] (hup is always
    reported); re-adding updates the mask (epoll_mod). If the socket is
    already ready under the mask, a pending waiter is woken immediately.
    Unknown instances are ignored. *)

val epoll_del : t -> Socket_api.epoll -> Socket_api.sock -> unit

val epoll_wait :
  t ->
  Socket_api.epoll ->
  timeout:float ->
  k:((Socket_api.sock * Types.events) list -> unit) ->
  unit
(** Deliver the ready set, in ascending socket order, once non-empty, or
    an empty list after [timeout] seconds (negative timeout = wait
    indefinitely; an unknown instance delivers [[]] at once). One waiter
    per instance; a second concurrent waiter replaces the first (which is
    dropped). *)
