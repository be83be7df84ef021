(* Nkspan — request-scoped spans over the NetKernel datapath, plus a cycle
   profiler (DESIGN.md par.12).

   One span follows one NQE from the GuestLib API call that created it to
   the completion event delivered back to the application. Components mark
   named stages ([begin_stage]/[end_stage]); the time a sampled request
   spends between stages — sitting in an NK device ring or parked in a
   CoreEngine deferred queue while no component is touching it — is
   attributed to the implicit "ring" stage, so per-stage sums reconcile
   with end-to-end latency by construction.

   Everything here observes virtual time only and charges zero simulated
   cycles: enabling spans must not perturb event ordering, so traced and
   untraced runs of the same seed stay byte-identical in their reported
   metrics. *)

type seg = { g_stage : string; g_comp : string; g_t0 : float; g_t1 : float }

type span = {
  id : int;
  vm : string;
  birth : float;
  mutable finished_at : float; (* negative while the request is in flight *)
  mutable open_stage : (string * string * float) option; (* stage, component, t0 *)
  mutable segs : seg list; (* newest first *)
}

type t = {
  now : unit -> float;
  every : int; (* sample 1 in [every] requests; 0 disables spans *)
  id_base : int; (* host index lsl 24, OR'd into every minted id *)
  spans : (int, span) Hashtbl.t;
  mutable next_seq : int;
  mutable births : int;
  mutable dropped : int;
  (* profiler *)
  mutable profiling : bool;
  mutable frames : (string * string) list; (* (component, stage), innermost first *)
  cells : (string * string, float ref) Hashtbl.t;
}

(* Span ids are host-unique across a cluster: the host index occupies the
   high bits of the 32-bit NQE span field (bytes 28-31, unchanged on the
   wire) and a dense per-host sequence the low 24. Id 0 stays "untraced",
   so stage calls against a foreign host's instance remain safe no-ops. *)
let seq_bits = 24
let max_host_index = (1 lsl (32 - seq_bits)) - 1

(* Most spans retained; later samples count as dropped. *)
let capacity = 1 lsl 16

let create ?(span_every = 0) ?(host_index = 0) ~now () =
  if host_index < 0 || host_index > max_host_index then
    invalid_arg "Nkspan.create: host_index out of range";
  {
    now;
    every = span_every;
    id_base = host_index lsl seq_bits;
    spans = Hashtbl.create 256;
    next_seq = 1;
    births = 0;
    dropped = 0;
    profiling = false;
    frames = [];
    cells = Hashtbl.create 64;
  }

let null () = create ~now:(fun () -> 0.0) ()

let enabled t = t.every > 0

let dropped t = t.dropped

let host_index t = t.id_base lsr seq_bits

(* ---- span lifecycle ---------------------------------------------------- *)

let sample t ~vm =
  if t.every <= 0 then 0
  else begin
    let n = t.births in
    t.births <- n + 1;
    if n mod t.every <> 0 then 0
    else if Hashtbl.length t.spans >= capacity then begin
      t.dropped <- t.dropped + 1;
      0
    end
    else begin
      let id = t.id_base lor t.next_seq in
      t.next_seq <- t.next_seq + 1;
      Hashtbl.replace t.spans id
        { id; vm; birth = t.now (); finished_at = -1.0; open_stage = None; segs = [] };
      id
    end
  end

let close_open t sp =
  match sp.open_stage with
  | None -> ()
  | Some (stage, comp, t0) ->
      sp.segs <- { g_stage = stage; g_comp = comp; g_t0 = t0; g_t1 = t.now () } :: sp.segs;
      sp.open_stage <- None

let find_live t id =
  if id <= 0 then None
  else
    match Hashtbl.find_opt t.spans id with
    | Some sp when sp.finished_at < 0.0 -> Some sp
    | _ -> None

let begin_stage t ~id ~component stage =
  match find_live t id with
  | None -> ()
  | Some sp -> (
      match sp.open_stage with
      | Some (open_name, _, _) when String.equal open_name stage ->
          (* Re-entry into the stage already open (e.g. a CoreEngine shard
             retrying a deferred NQE): keep the earliest t0 so the parked
             time stays inside the stage. *)
          ()
      | _ ->
          close_open t sp;
          sp.open_stage <- Some (stage, component, t.now ()))

let end_stage t ~id stage =
  match find_live t id with
  | None -> ()
  | Some sp -> (
      match sp.open_stage with
      | Some (open_name, _, _) when String.equal open_name stage -> close_open t sp
      | _ -> ())

let finish t ~id =
  match find_live t id with
  | None -> ()
  | Some sp ->
      close_open t sp;
      sp.finished_at <- t.now ()

(* Sequence numbers are dense from 1, so iterating [1, next_seq) with the
   host base OR'd back in visits spans in creation order without touching
   Hashtbl bucket order. *)
let fold_spans t f acc =
  let acc = ref acc in
  for seq = 1 to t.next_seq - 1 do
    match Hashtbl.find_opt t.spans (t.id_base lor seq) with
    | Some sp -> acc := f !acc sp
    | None -> ()
  done;
  !acc

let finished_spans t =
  List.rev
    (fold_spans t (fun acc sp -> if sp.finished_at >= 0.0 then sp :: acc else acc) [])

let span_id sp = sp.id
let span_birth sp = sp.birth
let span_finish sp = sp.finished_at
let span_segs sp = List.rev sp.segs

let span_count t = Hashtbl.length t.spans

(* ---- per-stage aggregation -------------------------------------------- *)

(* Canonical presentation order of the request-path taxonomy; stages outside
   it (component-specific extensions) sort alphabetically after. *)
let stage_order =
  [ "guestlib"; "ring"; "ce-switch"; "spine"; "servicelib"; "stack"; "completion" ]

let ring_stage = "ring"

let order_stages names =
  let known = List.filter (fun s -> List.mem s names) stage_order in
  let extra =
    List.sort String.compare
      (List.filter (fun s -> not (List.mem s stage_order)) names)
  in
  known @ extra

type breakdown = {
  b_spans : int;
  b_e2e : Nkutil.Histogram.t;
  b_stages : (string * Nkutil.Histogram.t) list; (* taxonomy order, incl. ring *)
}

let breakdown t =
  let names =
    fold_spans t
      (fun acc sp ->
        if sp.finished_at < 0.0 then acc
        else
          List.fold_left
            (fun acc g -> if List.mem g.g_stage acc then acc else g.g_stage :: acc)
            acc sp.segs)
      []
  in
  let names =
    order_stages (if List.mem ring_stage names then names else ring_stage :: names)
  in
  let e2e = Nkutil.Histogram.create () in
  let stages = List.map (fun s -> (s, Nkutil.Histogram.create ())) names in
  let count =
    fold_spans t
      (fun n sp ->
        if sp.finished_at < 0.0 then n
        else begin
          let total = sp.finished_at -. sp.birth in
          Nkutil.Histogram.record e2e total;
          let explicit =
            List.fold_left (fun acc g -> acc +. (g.g_t1 -. g.g_t0)) 0.0 sp.segs
          in
          List.iter
            (fun (name, h) ->
              let named =
                List.fold_left
                  (fun acc g ->
                    if String.equal g.g_stage name then acc +. (g.g_t1 -. g.g_t0)
                    else acc)
                  0.0 sp.segs
              in
              (* The ring stage owns every instant no explicit stage claims
                 (deferred-queue parking, hops recorded without a device
                 mark), on top of its explicitly recorded segments. *)
              let v =
                if String.equal name ring_stage then
                  named +. Float.max 0.0 (total -. explicit)
                else named
              in
              Nkutil.Histogram.record h v)
            stages;
          n + 1
        end)
      0
  in
  { b_spans = count; b_e2e = e2e; b_stages = stages }

(* ---- Chrome trace-event (catapult JSON) export ------------------------- *)

(* Microseconds with fixed decimals: virtual times are deterministic, so the
   rendered JSON is byte-identical across same-seed runs. *)
let usec v = Printf.sprintf "%.3f" (v *. 1e6)

let to_catapult t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  (* pid = order of first appearance of the originating VM, tid = span id. *)
  let pids = ref [] in
  let pid_of vm =
    match List.assoc_opt vm !pids with
    | Some p -> p
    | None ->
        let p = List.length !pids in
        pids := !pids @ [ (vm, p) ];
        p
  in
  let first = ref true in
  let emit ~name ~cat ~ts ~dur ~pid ~tid ~args =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf
      (Printf.sprintf
         "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
         (Nkmon.json_escape name) cat (usec ts) (usec dur) pid tid args)
  in
  List.iter
    (fun sp ->
      let pid = pid_of sp.vm in
      emit ~name:"request" ~cat:"span" ~ts:sp.birth ~dur:(sp.finished_at -. sp.birth)
        ~pid ~tid:sp.id
        ~args:(Printf.sprintf "\"vm\":\"%s\"" (Nkmon.json_escape sp.vm));
      List.iter
        (fun g ->
          emit ~name:g.g_stage ~cat:"stage" ~ts:g.g_t0 ~dur:(g.g_t1 -. g.g_t0) ~pid
            ~tid:sp.id
            ~args:(Printf.sprintf "\"component\":\"%s\"" (Nkmon.json_escape g.g_comp)))
        (span_segs sp))
    (finished_spans t);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"";
  if t.dropped > 0 then
    Buffer.add_string buf (Printf.sprintf ",\"nkspanDropped\":%d" t.dropped);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---- cycle profiler ---------------------------------------------------- *)

(* Core names follow "host.component.i" ("hostA.vm0.3") or "host.component"
   ("hostA.coreengine"): strip a trailing all-digit segment, then take the
   last remaining segment as the component. *)
let component_of_core core =
  let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let rec last_non_digit prev = function
    | [] -> prev
    | [ x ] -> if is_digits x then prev else x
    | x :: tl -> last_non_digit (if is_digits x then prev else x) tl
  in
  match String.split_on_char '.' core with
  | [] -> core
  | segs -> ( match last_non_digit "" segs with "" -> core | c -> c)

let unframed_stage = "(unframed)"

let record_cycles t ~core cycles =
  let comp, stage =
    match t.frames with
    | (c, s) :: _ -> (c, s)
    | [] -> (component_of_core core, unframed_stage)
  in
  match Hashtbl.find_opt t.cells (comp, stage) with
  | Some r -> r := !r +. cycles
  | None -> Hashtbl.replace t.cells (comp, stage) (ref cycles)

let enable_profiler t engine =
  t.profiling <- true;
  Sim.Engine.set_cycle_hook engine (Some (fun core cycles -> record_cycles t ~core cycles))

(* With the profiler off, each is one bool test: no closure, no
   allocation. *)
let enter t ~component ~stage =
  if t.profiling then t.frames <- (component, stage) :: t.frames

let leave t =
  if t.profiling then match t.frames with [] -> () | _ :: tl -> t.frames <- tl

type cell = { p_comp : string; p_stage : string; p_cycles : float }

let key_cmp = Nkutil.Det_tbl.pair String.compare String.compare

let profile_cells t =
  List.map
    (fun ((c, s), r) -> { p_comp = c; p_stage = s; p_cycles = !r })
    (Nkutil.Det_tbl.bindings ~cmp:key_cmp t.cells)

(* Self-cycles table, hottest first; key order breaks exact ties so the
   dump is deterministic. *)
let profile_table t =
  List.sort
    (fun a b ->
      let c = Float.compare b.p_cycles a.p_cycles in
      if c <> 0 then c
      else key_cmp (a.p_comp, a.p_stage) (b.p_comp, b.p_stage))
    (profile_cells t)

let total_cycles t =
  List.fold_left (fun acc c -> acc +. c.p_cycles) 0.0 (profile_cells t)

(* flamegraph.pl-compatible collapsed stacks: "component;stage cycles". *)
let to_collapsed t =
  let buf = Buffer.create 512 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s;%s %.0f\n" c.p_comp c.p_stage c.p_cycles))
    (profile_cells t);
  Buffer.contents buf
