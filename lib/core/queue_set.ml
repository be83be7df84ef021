type queue = bytes Nkutil.Spsc_ring.t

type t = {
  job : queue;
  completion : queue;
  send : queue;
  receive : queue;
}

let create ?(capacity = 8192) () =
  {
    job = Nkutil.Spsc_ring.create ~capacity;
    completion = Nkutil.Spsc_ring.create ~capacity;
    send = Nkutil.Spsc_ring.create ~capacity;
    receive = Nkutil.Spsc_ring.create ~capacity;
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

let drain_into t ~toward buf ~budget ~shared =
  let r1, r2 =
    match toward with `Vm -> (t.completion, t.receive) | `Nsm -> (t.job, t.send)
  in
  let n1 = Nkutil.Spsc_ring.pop_slice r1 buf ~pos:0 ~max:budget in
  let b2 = if shared then budget - n1 else budget in
  n1 + Nkutil.Spsc_ring.pop_slice r2 buf ~pos:n1 ~max:b2

let total_queued t =
  Nkutil.Spsc_ring.length t.job
  + Nkutil.Spsc_ring.length t.completion
  + Nkutil.Spsc_ring.length t.send
  + Nkutil.Spsc_ring.length t.receive
