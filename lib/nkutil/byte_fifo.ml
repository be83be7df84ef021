type chunk =
  | Data of { buf : bytes; mutable pos : int; mutable len : int }
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

let write_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Byte_fifo.write_bytes: slice out of bounds";
  if len > 0 then begin
    Queue.add (Data { buf = Bytes.sub b pos len; pos = 0; len }) t.q;
    t.tail_zeros <- None;
    t.total <- t.total + len
  end

let write t s = write_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

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

let read_into t out ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length out then
    invalid_arg "Byte_fifo.read_into: slice out of bounds";
  let want = Int.min len t.total in
  let rec loop copied =
    if copied >= want then copied
    else
      match Queue.peek_opt t.q with
      | None -> copied
      | Some (Data d) ->
          let take = Int.min (want - copied) d.len in
          Bytes.blit d.buf d.pos out (pos + copied) take;
          d.pos <- d.pos + take;
          d.len <- d.len - take;
          if d.len = 0 then ignore (Queue.pop t.q);
          loop (copied + take)
      | Some (Zeros z) ->
          let take = Int.min (want - copied) z.n in
          Bytes.fill out (pos + copied) take '\000';
          z.n <- z.n - take;
          if z.n = 0 then ignore (Queue.pop t.q);
          loop (copied + take)
  in
  let n = loop 0 in
  t.total <- t.total - n;
  n

let read t n =
  let n = Int.max 0 (Int.min n t.total) in
  let out = Bytes.create n in
  let got = read_into t out ~pos:0 ~len:n in
  assert (got = n);
  Bytes.unsafe_to_string out

let discard t n =
  let want = Int.min (Int.max 0 n) t.total in
  let rec loop dropped =
    if dropped >= want then dropped
    else
      match Queue.peek_opt t.q with
      | None -> dropped
      | Some (Data d) ->
          let take = Int.min (want - dropped) d.len in
          d.pos <- d.pos + take;
          d.len <- d.len - take;
          if d.len = 0 then ignore (Queue.pop t.q);
          loop (dropped + take)
      | Some (Zeros z) ->
          let take = Int.min (want - dropped) z.n in
          z.n <- z.n - take;
          if z.n = 0 then ignore (Queue.pop t.q);
          loop (dropped + take)
  in
  let n = loop 0 in
  t.total <- t.total - n;
  n

let transfer ~src ~dst n =
  let want = Int.min (Int.max 0 n) src.total in
  let rec loop moved =
    if moved >= want then moved
    else
      match Queue.peek_opt src.q with
      | None -> moved
      | Some (Data d) ->
          let take = Int.min (want - moved) d.len in
          write_bytes dst d.buf ~pos:d.pos ~len:take;
          d.pos <- d.pos + take;
          d.len <- d.len - take;
          if d.len = 0 then ignore (Queue.pop src.q);
          loop (moved + take)
      | Some (Zeros z) ->
          let take = Int.min (want - moved) z.n in
          write_zeros dst take;
          z.n <- z.n - take;
          if z.n = 0 then ignore (Queue.pop src.q);
          loop (moved + take)
  in
  let n = loop 0 in
  src.total <- src.total - n;
  n
