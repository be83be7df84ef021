type queue = Job | Completion | Send | Receive

let queue_to_string = function
  | Job -> "job"
  | Completion -> "completion"
  | Send -> "send"
  | Receive -> "receive"

type event =
  | Nqe_enqueue of {
      device : int;
      qset : int;
      queue : queue;
      op : string;
      vm_id : int;
      sock : int;
    }
  | Nqe_switch of { vm_id : int; sock : int; op : string; dst : string }
  | Nqe_deliver of {
      component : string;
      instance : string;
      qset : int;
      op : string;
      vm_id : int;
      sock : int;
    }
  | Ring_full of { device : int; qset : int; queue : queue }
  | Rate_limit_defer of { vm_id : int; bytes : int }
  | Ring_defer of { vm_id : int }
  | Nqe_drop of { vm_id : int; sock : int; reason : string }
  | Tcp_state of { stack : string; sock : int; old_state : string; new_state : string }
  | Hugepage_alloc of { region : string; offset : int; len : int }
  | Hugepage_free of { region : string; offset : int; len : int }
  | Custom of { component : string; name : string; detail : string }

type record = { seq : int; time : float; event : event }

type t = {
  now : unit -> float;
  capacity : int;
  mutable ring : record array; (* grows as records arrive, up to [capacity] *)
  mutable in_ring : int; (* dataplane records written; slot is [in_ring mod capacity] *)
  mutable log : record list; (* control records, newest first; never dropped *)
  mutable next : int; (* next seq, shared by ring and log *)
  mutable on : bool;
}

let create ?(capacity = 65536) ?(enabled = false) ~now () =
  let capacity = Int.max 1 capacity in
  { now; capacity; ring = [||]; in_ring = 0; log = []; next = 0; on = enabled }

let enabled t = t.on

let set_enabled t on = t.on <- on

let capacity t = t.capacity

let stamp t event =
  let r = { seq = t.next; time = t.now (); event } in
  t.next <- t.next + 1;
  r

let record t event =
  match event with
  | Custom _ -> t.log <- stamp t event :: t.log
  | _ ->
      if t.on then begin
        let r = stamp t event in
        let n = Array.length t.ring in
        if t.in_ring = n && n < t.capacity then begin
          (* Every slot written and room to grow: double the array. [r] only
             fills the new slots; none is read before it is written. *)
          let ring = Array.make (Int.min t.capacity (Int.max 16 (2 * n))) r in
          Array.blit t.ring 0 ring 0 n;
          t.ring <- ring
        end;
        t.ring.(t.in_ring mod t.capacity) <- r;
        t.in_ring <- t.in_ring + 1
      end

let recorded t = t.next

let dropped t = Int.max 0 (t.in_ring - t.capacity)

let records t =
  let retained = Int.min t.in_ring t.capacity in
  let first = t.in_ring - retained in
  let ring = List.init retained (fun i -> t.ring.((first + i) mod t.capacity)) in
  List.merge (fun a b -> Int.compare a.seq b.seq) ring (List.rev t.log)

let clear t =
  t.ring <- [||];
  t.in_ring <- 0;
  t.log <- [];
  t.next <- 0

let event_type = function
  | Nqe_enqueue _ -> "nqe_enqueue"
  | Nqe_switch _ -> "nqe_switch"
  | Nqe_deliver _ -> "nqe_deliver"
  | Ring_full _ -> "ring_full"
  | Rate_limit_defer _ -> "rate_limit_defer"
  | Ring_defer _ -> "ring_defer"
  | Nqe_drop _ -> "nqe_drop"
  | Tcp_state _ -> "tcp_state"
  | Hugepage_alloc _ -> "hugepage_alloc"
  | Hugepage_free _ -> "hugepage_free"
  | Custom _ -> "custom"

(* Every event flattens to (string * string) pairs for the exporters. *)
let event_args = function
  | Nqe_enqueue { device; qset; queue; op; vm_id; sock } ->
      [
        ("device", string_of_int device);
        ("qset", string_of_int qset);
        ("queue", queue_to_string queue);
        ("op", op);
        ("vm_id", string_of_int vm_id);
        ("sock", string_of_int sock);
      ]
  | Nqe_switch { vm_id; sock; op; dst } ->
      [
        ("vm_id", string_of_int vm_id);
        ("sock", string_of_int sock);
        ("op", op);
        ("dst", dst);
      ]
  | Nqe_deliver { component; instance; qset; op; vm_id; sock } ->
      [
        ("component", component);
        ("instance", instance);
        ("qset", string_of_int qset);
        ("op", op);
        ("vm_id", string_of_int vm_id);
        ("sock", string_of_int sock);
      ]
  | Ring_full { device; qset; queue } ->
      [
        ("device", string_of_int device);
        ("qset", string_of_int qset);
        ("queue", queue_to_string queue);
      ]
  | Rate_limit_defer { vm_id; bytes } ->
      [ ("vm_id", string_of_int vm_id); ("bytes", string_of_int bytes) ]
  | Ring_defer { vm_id } -> [ ("vm_id", string_of_int vm_id) ]
  | Nqe_drop { vm_id; sock; reason } ->
      [ ("vm_id", string_of_int vm_id); ("sock", string_of_int sock); ("reason", reason) ]
  | Tcp_state { stack; sock; old_state; new_state } ->
      [
        ("stack", stack);
        ("sock", string_of_int sock);
        ("old_state", old_state);
        ("new_state", new_state);
      ]
  | Hugepage_alloc { region; offset; len } ->
      [ ("region", region); ("offset", string_of_int offset); ("len", string_of_int len) ]
  | Hugepage_free { region; offset; len } ->
      [ ("region", region); ("offset", string_of_int offset); ("len", string_of_int len) ]
  | Custom { component; name; detail } ->
      [ ("component", component); ("name", name); ("detail", detail) ]
