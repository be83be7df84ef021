(* RFC 8312 constants. *)
let c = 0.4 (* cubic scaling, MSS/s^3 *)
let beta = 0.7 (* multiplicative decrease *)

type state = {
  mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable w_max : float; (* window (in MSS) at last reduction *)
  mutable epoch_start : float; (* < 0: no epoch in progress *)
  mutable k : float; (* time to regrow to w_max *)
  mutable w_est : float; (* TCP-friendly Reno estimate, in MSS *)
  mutable acked_in_epoch : float;
  mutable min_rtt : float; (* HyStart baseline *)
}

let create ~mss () =
  let s =
    { mss; cwnd = Cc.initial_window ~mss; ssthresh = Cc.max_cwnd; w_max = 0.0;
      epoch_start = -1.0; k = 0.0; w_est = 0.0; acked_in_epoch = 0.0; min_rtt = infinity }
  in
  let mssf = float_of_int mss in
  let on_ack ~acked ~rtt ~now =
    if rtt > 0.0 then s.min_rtt <- Float.min s.min_rtt rtt;
    if s.cwnd < s.ssthresh then begin
      (* HyStart (Linux CUBIC): leave slow start on delay increase, before
         the burst overflows a queue. *)
      let eta = Float.max (s.min_rtt /. 8.0) 0.004 (* Linux HYSTART_DELAY_MIN *) in
      if
        rtt > 0.0 && s.min_rtt < infinity
        && rtt > s.min_rtt +. eta
        && s.cwnd > 16 * s.mss
      then s.ssthresh <- s.cwnd
      else s.cwnd <- Int.min Cc.max_cwnd (s.cwnd + Int.min acked (2 * s.mss))
    end
    else begin
      let cwnd_mss = float_of_int s.cwnd /. mssf in
      if s.epoch_start < 0.0 then begin
        s.epoch_start <- now;
        s.acked_in_epoch <- 0.0;
        if cwnd_mss < s.w_max then
          s.k <- Float.cbrt ((s.w_max -. cwnd_mss) /. c)
        else s.k <- 0.0;
        if s.w_max <= 0.0 then s.w_max <- cwnd_mss;
        s.w_est <- cwnd_mss
      end;
      let t = now -. s.epoch_start in
      let target = s.w_max +. (c *. ((t -. s.k) ** 3.0)) in
      (* TCP-friendly region: emulate Reno's growth over the epoch. *)
      s.acked_in_epoch <- s.acked_in_epoch +. (float_of_int acked /. mssf);
      let rtt = if rtt > 0.0 then rtt else 0.001 in
      let w_est =
        s.w_est +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. (t /. rtt))
      in
      let target = Float.max target w_est in
      if target > cwnd_mss then begin
        let incr = (target -. cwnd_mss) /. cwnd_mss *. float_of_int acked in
        s.cwnd <- Int.min Cc.max_cwnd (s.cwnd + Int.max 1 (int_of_float incr))
      end
    end
  in
  let reduce () =
    let cwnd_mss = float_of_int s.cwnd /. mssf in
    (* Fast convergence: release share faster when below the previous peak. *)
    s.w_max <- (if cwnd_mss < s.w_max then cwnd_mss *. (1.0 +. beta) /. 2.0 else cwnd_mss);
    s.ssthresh <- Int.max (int_of_float (float_of_int s.cwnd *. beta)) (2 * s.mss);
    s.cwnd <- s.ssthresh;
    s.epoch_start <- -1.0
  in
  let on_timeout ~now:_ =
    reduce ();
    s.cwnd <- s.mss
  in
  {
    Cc.name = "cubic";
    cwnd = (fun () -> s.cwnd);
    on_ack;
    on_loss = (fun ~now:_ -> reduce ());
    on_timeout;
    release = (fun () -> ());
    export =
      (fun () ->
        [
          ("cwnd", float_of_int s.cwnd);
          ("ssthresh", float_of_int s.ssthresh);
          ("w_max", s.w_max);
          ("epoch_start", s.epoch_start);
          ("k", s.k);
          ("w_est", s.w_est);
          ("acked_in_epoch", s.acked_in_epoch);
          ("min_rtt", s.min_rtt);
        ]);
    import =
      (fun kv ->
        s.cwnd <- int_of_float (Cc.import_field kv "cwnd" ~default:(float_of_int s.cwnd));
        s.ssthresh <-
          int_of_float (Cc.import_field kv "ssthresh" ~default:(float_of_int s.ssthresh));
        s.w_max <- Cc.import_field kv "w_max" ~default:s.w_max;
        s.epoch_start <- Cc.import_field kv "epoch_start" ~default:s.epoch_start;
        s.k <- Cc.import_field kv "k" ~default:s.k;
        s.w_est <- Cc.import_field kv "w_est" ~default:s.w_est;
        s.acked_in_epoch <- Cc.import_field kv "acked_in_epoch" ~default:s.acked_in_epoch;
        s.min_rtt <- Cc.import_field kv "min_rtt" ~default:s.min_rtt);
  }

let factory ~mss () = create ~mss ()
