type t = {
  engine : Engine.t;
  name : string;
  freq : float; (* Hz *)
  mutable free_at : float;
  mutable busy_cycles : float;
}

let create engine ?(freq_ghz = 2.3) ~name () =
  { engine; name; freq = freq_ghz *. 1e9; free_at = 0.0; busy_cycles = 0.0 }

let name t = t.name
let engine t = t.engine
let freq_hz t = t.freq

let exec t ~cycles k =
  let cycles = Float.max 0.0 cycles in
  let now = Engine.now t.engine in
  let start = Float.max now t.free_at in
  let finish = start +. (cycles /. t.freq) in
  t.free_at <- finish;
  t.busy_cycles <- t.busy_cycles +. cycles;
  Engine.emit_cycles t.engine ~core:t.name cycles;
  ignore (Engine.schedule_at t.engine ~at:finish k)

let charge t ~cycles =
  let cycles = Float.max 0.0 cycles in
  let now = Engine.now t.engine in
  let start = Float.max now t.free_at in
  t.free_at <- start +. (cycles /. t.freq);
  t.busy_cycles <- t.busy_cycles +. cycles;
  Engine.emit_cycles t.engine ~core:t.name cycles

let busy_cycles t = t.busy_cycles

let busy_seconds t = t.busy_cycles /. t.freq

module Set = struct
  type core = t

  type nonrec t = { cores : core array }

  let create engine ?freq_ghz ~name ~n () =
    if n < 1 then invalid_arg "Cpu.Set.create: need at least one core";
    let make i = create engine ?freq_ghz ~name:(Printf.sprintf "%s.%d" name i) () in
    { cores = Array.init n make }

  let of_array cores =
    if Array.length cores = 0 then invalid_arg "Cpu.Set.of_array: empty";
    { cores }

  let cores t = t.cores
  let n t = Array.length t.cores
  let core t i = t.cores.(i)

  let pick t ~hash =
    let n = Array.length t.cores in
    t.cores.((hash land max_int) mod n)

  let total_busy_cycles t = Array.fold_left (fun acc c -> acc +. c.busy_cycles) 0.0 t.cores
end
