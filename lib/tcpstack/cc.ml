type t = {
  name : string;
  cwnd : unit -> int;
  on_ack : acked:int -> rtt:float -> now:float -> unit;
  on_loss : now:float -> unit;
  on_timeout : now:float -> unit;
  release : unit -> unit;
  export : unit -> (string * float) list;
  import : (string * float) list -> unit;
}

let import_field kv key ~default =
  match List.assoc_opt key kv with Some v -> v | None -> default

type factory = unit -> t

let max_cwnd = 16 * 1024 * 1024

let initial_window ~mss = 10 * mss
