(** A small redis-like key-value server and client.

    Text protocol, one line per command, [\r\n]-terminated:
    {v
      SET <key> <value>   ->  +OK
      GET <key>           ->  $<value>  |  $-1 (miss)
      DEL <key>           ->  :1 | :0
    v}

    The paper lists redis among the applications that run unmodified over
    NetKernel (§1, abstract); this exercises the same claim with real
    parsing end-to-end over any {!Tcpstack.Socket_api.t}. *)

type t

type stats = { mutable commands : int; mutable hits : int; mutable misses : int }

val start :
  engine:Sim.Engine.t -> api:Tcpstack.Socket_api.t -> addr:Addr.t ->
  (t, Tcpstack.Types.err) result

(** Client helpers (one connection, pipelined callbacks). *)
module Client : sig
  type conn

  val connect :
    engine:Sim.Engine.t -> api:Tcpstack.Socket_api.t -> Addr.t ->
    k:((conn, Tcpstack.Types.err) result -> unit) -> unit

  val set : conn -> key:string -> value:string -> k:((unit, string) result -> unit) -> unit

  val get : conn -> key:string -> k:((string option, string) result -> unit) -> unit

  val del : conn -> key:string -> k:((bool, string) result -> unit) -> unit

  val close : conn -> unit
end
