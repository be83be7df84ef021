(** The paper's multi-threaded epoll server.

    Accepts connections on one listening socket, reads requests, optionally
    performs per-request application work (the AG "application logic" of
    §6.1), and answers with a fixed-size response. Runs over any
    {!Tcpstack.Socket_api.t}, so the same unmodified server binary serves
    Baseline, the kernel-stack NSM, the mTCP NSM and the shared-memory NSM —
    the transparency the paper demonstrates. *)

type config = {
  addr : Addr.t;
  backlog : int;
  proto : Proto.t;
  app_cycles : float;  (** extra application work per request *)
  app_cores : Sim.Cpu.Set.t option;  (** where that work is charged *)
}

val config :
  ?backlog:int -> ?proto:Proto.t -> ?app_cycles:float -> ?app_cores:Sim.Cpu.Set.t ->
  Addr.t -> config
(** Defaults: backlog 1024, 64-byte Fixed non-keepalive protocol, no app
    work. *)

type t

type stats = {
  mutable accepted : int;
  mutable requests : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable errors : int;
  mutable active : int;
}

val start :
  engine:Sim.Engine.t -> api:Tcpstack.Socket_api.t -> config -> (t, Tcpstack.Types.err) result

val stats : t -> stats
