(** TCP backend for the protocol-neutral {!Stack_ops} boundary.

    [of_stack] adapts a single {!Stack} (the kernel-stack NSM); the
    building blocks below let composite backends — the sharded mTCP facade
    — assemble their own {!Stack_ops.t} from the same pieces. *)

type Stack_ops.conn += Conn of { c_stack : Stack.t; c_sock : Stack.sock }

type group
(** Listener spanning one or more stack shards. *)

type Stack_ops.listener += Listener of group

type Stack_ops.payload += Tcp_state of Stack.export
(** The TCP migration payload: a full {!Stack.export} (TCB snapshot plus
    content-channel key and vswitch registrations). *)

val proto : string
(** ["tcp"]. *)

val of_stack : Stack.t -> Stack_ops.t
(** Adapt a single stack instance (used by the kernel-stack NSM). *)

(** {1 Building blocks for composite backends (the mTCP facade)} *)

val conn_of_sock : Stack.t -> Stack.sock -> Stack_ops.conn

val listener_on_group :
  Stack.t list -> addr:Addr.t -> backlog:int ->
  on_accept:(Stack_ops.conn -> peer:Addr.t -> unit) ->
  (Stack_ops.listener, Types.err) result
(** Listen on the same address on every shard (SO_REUSEPORT-style). *)



val unpack_export : Stack_ops.export -> (Stack.export, Types.err) result
(** [Einval] unless the payload is {!Tcp_state}. *)
