(* The transmitter's per-segment float, in an all-float record so that
   storing it allocates nothing. *)
type tx = { mutable busy_until : float }

type t = {
  engine : Sim.Engine.t;
  rate : float;
  delay : float;
  buffer : int;
  name : string;
  mutable receiver : (Segment.t -> unit) option;
  tx : tx;
  mutable queued : int;
  mutable drops : int;
  mutable loss : (Nkutil.Rng.t * float) option;
  (* In-flight transmissions whose buffer space is not yet released: a
     circular FIFO of (tx_done, wire_bytes) pairs in unboxed parallel
     arrays. Serialization makes tx_done monotone in enqueue order, so
     releasing due entries is a head scan. Keeping this ledger instead of
     scheduling a release event per segment halves the engine events the
     network path generates — occupancy is only ever read by [send], so
     releasing lazily at read time observes the exact same values the
     eager events produced. *)
  mutable fly_time : float array;
  mutable fly_wire : int array;
  mutable fly_head : int;
  mutable fly_len : int;
}

let create engine ~rate_bps ~delay ?(buffer_bytes = 16 * 1024 * 1024) ?(name = "link") () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be > 0";
  { engine; rate = rate_bps; delay; buffer = buffer_bytes; name; receiver = None;
    tx = { busy_until = 0.0 }; queued = 0; drops = 0; loss = None;
    fly_time = Array.make 64 0.0; fly_wire = Array.make 64 0; fly_head = 0; fly_len = 0 }

let set_random_loss t ~rng ~rate = t.loss <- Some (rng, rate)

let set_receiver t f = t.receiver <- Some f

(* Release the buffer space of every transmission completed by [now]. *)
let release t now =
  let cap = Array.length t.fly_time in
  while t.fly_len > 0 && t.fly_time.(t.fly_head) <= now do
    let wire = t.fly_wire.(t.fly_head) in
    t.queued <- t.queued - wire;
    t.fly_head <- (t.fly_head + 1) mod cap;
    t.fly_len <- t.fly_len - 1
  done

let fly_push t tx_done wire =
  let cap = Array.length t.fly_time in
  if t.fly_len = cap then begin
    let time' = Array.make (2 * cap) 0.0 and wire' = Array.make (2 * cap) 0 in
    for i = 0 to t.fly_len - 1 do
      time'.(i) <- t.fly_time.((t.fly_head + i) mod cap);
      wire'.(i) <- t.fly_wire.((t.fly_head + i) mod cap)
    done;
    t.fly_time <- time';
    t.fly_wire <- wire';
    t.fly_head <- 0
  end;
  let cap = Array.length t.fly_time in
  let i = (t.fly_head + t.fly_len) mod cap in
  t.fly_time.(i) <- tx_done;
  t.fly_wire.(i) <- wire;
  t.fly_len <- t.fly_len + 1

let send t seg =
  let receiver =
    match t.receiver with
    | Some f -> f
    | None -> invalid_arg (t.name ^ ": no receiver attached")
  in
  let now = Sim.Engine.now t.engine in
  release t now;
  let lossy_drop =
    match t.loss with
    | Some (rng, rate) -> Nkutil.Rng.float rng < rate
    | None -> false
  in
  (* A GSO segment is many wire packets: when the buffer cannot hold all of
     them, the fitting prefix is still enqueued and only the tail packets
     drop — which is what lets the receiver emit duplicate ACKs and the
     sender fast-retransmit instead of stalling into an RTO. *)
  let seg =
    if lossy_drop then seg
    else begin
      let space = t.buffer - t.queued in
      let full = Segment.wire_bytes seg in
      if full <= space || seg.Segment.len = 0 then seg
      else begin
        let per_packet = Segment.header_bytes in
        let fit_packets = space / (per_packet + Int.min seg.Segment.len Segment.mss) in
        let fit_payload = Int.min seg.Segment.len (fit_packets * Segment.mss) in
        if fit_payload <= 0 then seg
        else
          Segment.make ~flow:seg.Segment.flow ~seq:seg.Segment.seq ~ack:seg.Segment.ack
            ~syn:seg.Segment.syn ~ack_flag:seg.Segment.ack_flag ~fin:false
            ~rst:seg.Segment.rst ~window:seg.Segment.window ~len:fit_payload
            ~ts:seg.Segment.ts ~ts_echo:seg.Segment.ts_echo
      end
    end
  in
  let wire = Segment.wire_bytes seg in
  if lossy_drop || t.queued + wire > t.buffer then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    t.queued <- t.queued + wire;
    let start = Float.max now t.tx.busy_until in
    let tx_done = start +. (float_of_int wire *. 8.0 /. t.rate) in
    t.tx.busy_until <- tx_done;
    fly_push t tx_done wire;
    ignore (Sim.Engine.schedule_at t.engine ~at:(tx_done +. t.delay) (fun () -> receiver seg));
    true
  end

let drops t = t.drops
