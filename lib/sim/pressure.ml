(* The estimate lives in an all-float record, stored flat, so that
   updating it on every observed segment allocates nothing. *)
type est = { mutable rate : float; (* bits per second *) mutable last : float }

type t = { engine : Engine.t; tau : float; est : est }

let create engine ?(tau = 0.01) () =
  { engine; tau; est = { rate = 0.0; last = Engine.now engine } }

let decay t =
  let now = Engine.now t.engine in
  let e = t.est in
  if now > e.last then begin
    e.rate <- e.rate *. exp (-.(now -. e.last) /. t.tau);
    e.last <- now
  end

let observe t ~bits =
  decay t;
  t.est.rate <- t.est.rate +. (bits /. t.tau)

let rate_bps t =
  decay t;
  t.est.rate

let hugepage_copy_cost t ~base ~contention =
  let frac = rate_bps t /. 100e9 in
  base +. (contention *. frac *. frac)
