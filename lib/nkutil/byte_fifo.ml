(* A [Data] chunk is a slice of a string the writer handed over: strings
   are immutable, so the FIFO shares it instead of copying it. *)
type chunk =
  | Data of { s : string; mutable pos : int; mutable len : int }
  | Zeros of { mutable n : int }

type t = {
  q : chunk Queue.t;
  mutable total : int;
  (* Most recently queued chunk if it is a zero-run, for O(1) coalescing of
     consecutive synthetic writes (one logical run per burst instead of one
     chunk per segment). Only extended while it still holds bytes. *)
  mutable tail_zeros : chunk option;
}

let create () = { q = Queue.create (); total = 0; tail_zeros = None }

let length t = t.total

let add_slice t s ~pos ~len =
  if len > 0 then begin
    Queue.add (Data { s; pos; len }) t.q;
    t.tail_zeros <- None;
    t.total <- t.total + len
  end

let write_sub t s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Byte_fifo.write_sub: slice out of bounds";
  add_slice t s ~pos ~len

let write t s = add_slice t s ~pos:0 ~len:(String.length s)

let write_zeros t n =
  if n < 0 then invalid_arg "Byte_fifo.write_zeros: negative count";
  if n > 0 then begin
    (match t.tail_zeros with
    | Some (Zeros z) when z.n > 0 -> z.n <- z.n + n
    | Some _ | None ->
        let chunk = Zeros { n } in
        Queue.add chunk t.q;
        t.tail_zeros <- Some chunk);
    t.total <- t.total + n
  end

let next_run t =
  match Queue.peek_opt t.q with
  | None -> None
  | Some (Data d) -> Some (`Data d.len)
  | Some (Zeros z) -> Some (`Zeros z.n)

let rec read_into t out ~want copied =
  if copied >= want then copied
  else
    match Queue.peek_opt t.q with
    | None -> copied
    | Some (Data d) ->
        let take = Int.min (want - copied) d.len in
        Bytes.blit_string d.s d.pos out copied take;
        d.pos <- d.pos + take;
        d.len <- d.len - take;
        if d.len = 0 then ignore (Queue.pop t.q);
        read_into t out ~want (copied + take)
    | Some (Zeros z) ->
        let take = Int.min (want - copied) z.n in
        Bytes.fill out copied take '\000';
        z.n <- z.n - take;
        if z.n = 0 then ignore (Queue.pop t.q);
        read_into t out ~want (copied + take)

let read t n =
  let n = Int.max 0 (Int.min n t.total) in
  match Queue.peek_opt t.q with
  | Some (Data { s; pos = 0; len }) when len = n && n = String.length s ->
      (* The whole of a string a writer queued: hand the same string on. *)
      ignore (Queue.pop t.q);
      t.total <- t.total - n;
      s
  | Some _ | None ->
      let out = Bytes.create n in
      let got = read_into t out ~want:n 0 in
      assert (got = n);
      t.total <- t.total - n;
      Bytes.unsafe_to_string out

let rec discard_loop t ~want dropped =
  if dropped >= want then dropped
  else
    match Queue.peek_opt t.q with
    | None -> dropped
    | Some (Data d) ->
        let take = Int.min (want - dropped) d.len in
        d.pos <- d.pos + take;
        d.len <- d.len - take;
        if d.len = 0 then ignore (Queue.pop t.q);
        discard_loop t ~want (dropped + take)
    | Some (Zeros z) ->
        let take = Int.min (want - dropped) z.n in
        z.n <- z.n - take;
        if z.n = 0 then ignore (Queue.pop t.q);
        discard_loop t ~want (dropped + take)

let discard t n =
  let n = discard_loop t ~want:(Int.min (Int.max 0 n) t.total) 0 in
  t.total <- t.total - n;
  n

let rec transfer_loop ~src ~dst ~want moved =
  if moved >= want then moved
  else
    match Queue.peek_opt src.q with
    | None -> moved
    | Some (Data d) ->
        let take = Int.min (want - moved) d.len in
        add_slice dst d.s ~pos:d.pos ~len:take;
        d.pos <- d.pos + take;
        d.len <- d.len - take;
        if d.len = 0 then ignore (Queue.pop src.q);
        transfer_loop ~src ~dst ~want (moved + take)
    | Some (Zeros z) ->
        let take = Int.min (want - moved) z.n in
        write_zeros dst take;
        z.n <- z.n - take;
        if z.n = 0 then ignore (Queue.pop src.q);
        transfer_loop ~src ~dst ~want (moved + take)

let transfer ~src ~dst n =
  let n = transfer_loop ~src ~dst ~want:(Int.min (Int.max 0 n) src.total) 0 in
  src.total <- src.total - n;
  n
