type group = {
  mss : int;
  mutable cwnd : int; (* shared window, bytes *)
  mutable ssthresh : int;
  (* Not exported: the destination group's flow count was already bumped by
     [factory] when the migrating flow attached. (* nkscope: volatile *) *)
  mutable n : int; (* active flows *)
}

let create_group ~mss () =
  { mss; cwnd = Cc.initial_window ~mss; ssthresh = Cc.max_cwnd; n = 0 }

let shared_cwnd g = g.cwnd

let active_flows g = g.n

let factory g () =
  g.n <- g.n + 1;
  let released = ref false in
  let share () = Int.max g.mss (g.cwnd / Int.max 1 g.n) in
  let grow acked =
    if g.cwnd < g.ssthresh then
      g.cwnd <- Int.min Cc.max_cwnd (g.cwnd + Int.min acked (2 * g.mss))
    else begin
      let incr = Int.max 1 (g.mss * acked / Int.max g.cwnd 1) in
      g.cwnd <- Int.min Cc.max_cwnd (g.cwnd + incr)
    end
  in
  let floor () = Int.max (2 * g.mss) (g.mss * Int.max 1 g.n) in
  let reduce () =
    g.ssthresh <- Int.max (g.cwnd / 2) (floor ());
    g.cwnd <- g.ssthresh
  in
  let release () =
    if not !released then begin
      released := true;
      g.n <- Int.max 0 (g.n - 1)
    end
  in
  {
    Cc.name = "vm-shared";
    cwnd = share;
    on_ack = (fun ~acked ~rtt:_ ~now:_ -> grow acked);
    on_loss = (fun ~now:_ -> reduce ());
    on_timeout =
      (fun ~now:_ ->
        g.ssthresh <- Int.max (g.cwnd / 2) (floor ());
        g.cwnd <- Int.max (floor ()) (g.cwnd / 2));
    release;
    (* Export/import move the *shared* group state: when a flow migrates,
       the destination group inherits the source group's window estimate
       (the flow-count bump already happened in [factory]). *)
    export =
      (fun () -> [ ("cwnd", float_of_int g.cwnd); ("ssthresh", float_of_int g.ssthresh) ]);
    import =
      (fun kv ->
        g.cwnd <- int_of_float (Cc.import_field kv "cwnd" ~default:(float_of_int g.cwnd));
        g.ssthresh <-
          int_of_float (Cc.import_field kv "ssthresh" ~default:(float_of_int g.ssthresh)));
  }
