type queue = Nqe_ring.t

type t = {
  job : queue;
  completion : queue;
  send : queue;
  receive : queue;
}

let create ?(capacity = 8192) () =
  {
    job = Nqe_ring.create ~capacity;
    completion = Nqe_ring.create ~capacity;
    send = Nqe_ring.create ~capacity;
    receive = Nqe_ring.create ~capacity;
  }

let of_op = function
  | Nqe.Send -> `Send
  | Nqe.Socket | Nqe.Bind | Nqe.Listen | Nqe.Connect | Nqe.Recv_done | Nqe.Close -> `Job
  | Nqe.Ev_accept | Nqe.Ev_data | Nqe.Ev_eof -> `Receive
  | Nqe.Comp_socket | Nqe.Comp_bind | Nqe.Comp_listen | Nqe.Comp_connect | Nqe.Comp_send
  | Nqe.Comp_close | Nqe.Ev_err ->
      `Completion

let queue_name = function
  | `Job -> "job"
  | `Completion -> "completion"
  | `Send -> "send"
  | `Receive -> "receive"

let trace_queue = function
  | `Job -> Nkmon.Trace.Job
  | `Completion -> Nkmon.Trace.Completion
  | `Send -> Nkmon.Trace.Send
  | `Receive -> Nkmon.Trace.Receive

let inbound_length t ~toward =
  match toward with
  | `Vm -> Nqe_ring.length t.completion + Nqe_ring.length t.receive
  | `Nsm -> Nqe_ring.length t.job + Nqe_ring.length t.send

let drain_pair r1 r2 buf ~budget ~shared =
  let n1 = Nqe_ring.pop_slice r1 buf ~slot:0 ~max:budget in
  let b2 = if shared then budget - n1 else budget in
  n1 + Nqe_ring.pop_slice r2 buf ~slot:n1 ~max:b2

let drain_into t ~toward buf ~budget ~shared =
  match toward with
  | `Vm -> drain_pair t.completion t.receive buf ~budget ~shared
  | `Nsm -> drain_pair t.job t.send buf ~budget ~shared

let total_queued t =
  Nqe_ring.length t.job + Nqe_ring.length t.completion + Nqe_ring.length t.send
  + Nqe_ring.length t.receive
