(* A core's per-event state, in an all-float record: OCaml stores its
   fields flat, so updating them allocates nothing (a mutable float field
   of a mixed record is a box, reallocated at every store). *)
type acct = { mutable free_at : float; mutable busy_cycles : float }

type t = {
  engine : Engine.t;
  name : string;
  freq : float; (* Hz *)
  acct : acct;
}

let create engine ?(freq_ghz = 2.3) ~name () =
  { engine; name; freq = freq_ghz *. 1e9; acct = { free_at = 0.0; busy_cycles = 0.0 } }

let name t = t.name
let engine t = t.engine
let freq_hz t = t.freq

(* Queue [cycles] behind the core's backlog: [free_at] becomes the time
   the work finishes. *)
let[@inline] account t cycles =
  let a = t.acct in
  a.free_at <- Float.max (Engine.now t.engine) a.free_at +. (cycles /. t.freq);
  a.busy_cycles <- a.busy_cycles +. cycles;
  Engine.emit_cycles t.engine ~core:t.name cycles

let exec t ~cycles k =
  account t (Float.max 0.0 cycles);
  ignore (Engine.schedule_at t.engine ~at:t.acct.free_at k)

let charge t ~cycles = account t (Float.max 0.0 cycles)

let busy_cycles t = t.acct.busy_cycles

let busy_seconds t = t.acct.busy_cycles /. t.freq

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

  let total_busy_cycles t =
    Array.fold_left (fun acc c -> acc +. c.acct.busy_cycles) 0.0 t.cores
end
