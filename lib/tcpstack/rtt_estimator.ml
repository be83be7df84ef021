(* RFC 6298 2.1: before the first sample the RTO is 1 s. *)
let initial_rto = 1.0

(* The RTO's clamp: Linux's 200 ms floor and a 30 s ceiling. *)
let min_rto = 0.2

let max_rto = 30.0

type t = { mutable srtt : float; mutable rttvar : float; mutable has_sample : bool }

let create () = { srtt = 0.0; rttvar = 0.0; has_sample = false }

let sample t rtt =
  if rtt >= 0.0 then
    if not t.has_sample then begin
      t.srtt <- rtt;
      t.rttvar <- rtt /. 2.0;
      t.has_sample <- true
    end
    else begin
      (* RFC 6298: alpha = 1/8, beta = 1/4. *)
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. rtt));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt)
    end

let srtt t = t.srtt

(* The clamp is two branches rather than [Float.min]/[Float.max] so that a
   clamped RTO is the bound itself, not a fresh box of its value. *)
let rto t =
  if not t.has_sample then initial_rto
  else
    let rto = t.srtt +. (4.0 *. t.rttvar) in
    if rto < min_rto then min_rto else if rto > max_rto then max_rto else rto

type snapshot = { s_srtt : float; s_rttvar : float; s_has_sample : bool }

let snapshot t = { s_srtt = t.srtt; s_rttvar = t.rttvar; s_has_sample = t.has_sample }

let restore s = { srtt = s.s_srtt; rttvar = s.s_rttvar; has_sample = s.s_has_sample }
