(* RFC 6298 2.1: before the first sample the RTO is 1 s. *)
let initial_rto = 1.0

type t = {
  min_rto : float;
  max_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable has_sample : bool;
}

let create ?(min_rto = 0.2) ?(max_rto = 30.0) () =
  { min_rto; max_rto; srtt = 0.0; rttvar = 0.0; has_sample = false }

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

let rto t =
  if not t.has_sample then initial_rto
  else Float.min t.max_rto (Float.max t.min_rto (t.srtt +. (4.0 *. t.rttvar)))

type snapshot = {
  s_min_rto : float;
  s_max_rto : float;
  s_srtt : float;
  s_rttvar : float;
  s_has_sample : bool;
}

let snapshot t =
  {
    s_min_rto = t.min_rto;
    s_max_rto = t.max_rto;
    s_srtt = t.srtt;
    s_rttvar = t.rttvar;
    s_has_sample = t.has_sample;
  }

let restore s =
  {
    min_rto = s.s_min_rto;
    max_rto = s.s_max_rto;
    srtt = s.s_srtt;
    rttvar = s.s_rttvar;
    has_sample = s.s_has_sample;
  }
