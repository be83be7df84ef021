module Registry = Registry
module Trace = Trace

type t = { registry : Registry.t; trace : Trace.t }

let create ?trace_capacity ?trace_enabled ~now () =
  let registry = Registry.create () in
  let trace = Trace.create ?capacity:trace_capacity ?enabled:trace_enabled ~now () in
  (* Overwritten-event count as a first-class metric, so ring undersizing
     shows up in `nk stats` instead of silently truncating traces. *)
  Registry.sampler registry ~component:"nkmon" ~instance:"trace" ~name:"dropped_events"
    (fun () -> float_of_int (Trace.dropped trace));
  { registry; trace }

let null () =
  {
    registry = Registry.create ();
    trace = Trace.create ~capacity:1 ~enabled:false ~now:(fun () -> 0.0) ();
  }

let registry t = t.registry

let trace t = t.trace

let dropped_events t = Trace.dropped t.trace

let counter t = Registry.counter t.registry

let gauge t = Registry.gauge t.registry

let sampler t = Registry.sampler t.registry

let histogram t = Registry.histogram t.registry

let tracing t = Trace.enabled t.trace

let event t ev = Trace.record t.trace ev

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
