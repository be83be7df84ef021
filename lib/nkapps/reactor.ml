(* Central event loop over one Socket_api epoll instance: applications
   register per-socket callbacks; the reactor dispatches level-triggered
   events to them. Interest masks keep always-writable sockets from
   spinning the loop. *)

module Types = Tcpstack.Types
module Socket_api = Tcpstack.Socket_api
module Int_tbl = Nkutil.Int_tbl

type t = {
  api : Socket_api.t;
  ep : Socket_api.epoll;
  handlers : (Types.events -> unit) Int_tbl.t; (* fd -> handler *)
  mutable running : bool;
  mutable stopped : bool;
}

let create (api : Socket_api.t) =
  { api; ep = api.Socket_api.epoll_create (); handlers = Int_tbl.create 64; running = false;
    stopped = false }

let watch t fd ~readable ~writable handler =
  Int_tbl.replace t.handlers fd handler;
  t.api.Socket_api.epoll_add t.ep fd ~mask:{ Types.readable; writable; hup = true }

let rewatch t fd ~readable ~writable =
  t.api.Socket_api.epoll_add t.ep fd ~mask:{ Types.readable; writable; hup = true }

let unwatch t fd =
  Int_tbl.remove t.handlers fd;
  t.api.Socket_api.epoll_del t.ep fd

let rec loop t =
  if not t.stopped then
    t.api.Socket_api.epoll_wait t.ep ~timeout:(-1.0) ~k:(fun events ->
        List.iter
          (fun (fd, ev) ->
            match Int_tbl.find t.handlers fd with
            | h -> h ev
            | exception Not_found -> ())
          events;
        loop t)

let run t =
  if not t.running then begin
    t.running <- true;
    loop t
  end

let stop t = t.stopped <- true
