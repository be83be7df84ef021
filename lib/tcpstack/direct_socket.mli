(** Baseline socket layer: {!Socket_api.t} directly over an in-VM {!Stack}.

    This is "the status quo where an application uses the kernel TCP stack in
    its VM" (paper §7.1). Its epoll calls run on {!Epoll_core}, the same
    emulation NetKernel's GuestLib uses. *)

val make : Stack.t -> Socket_api.t
(** Build a socket API over [stack]. Handles are private to the returned
    record. *)
