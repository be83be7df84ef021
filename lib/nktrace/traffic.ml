type t = { ag_id : int; rates : float array; peak : float; mean : float }

(* One-hour series matching Fig 7's burstiness: mean utilization a few
   percent of peak. *)
let minutes = 60

let base_rps = 800.0 (* median demand level *)

let diurnal_amplitude = 0.5 (* 0..1 fraction of base *)

let noise_sigma = 0.6 (* lognormal sigma of multiplicative noise *)

let spike_probability = 0.05 (* per-minute probability of a burst *)

let spike_magnitude = 12.0 (* burst height as multiple of base *)

let finish ~ag_id rates =
  let peak = Array.fold_left Float.max 0.0 rates in
  let mean = Nkutil.Stats.mean rates in
  { ag_id; rates; peak; mean }

let generate ~rng ~ag_id =
  let phase = Nkutil.Rng.float_range rng 0.0 (2.0 *. Float.pi) in
  let scale = Nkutil.Rng.lognormal rng ~mu:0.0 ~sigma:0.5 in
  let rates =
    Array.init minutes (fun m ->
        let tod = 2.0 *. Float.pi *. float_of_int m /. 1440.0 in
        let diurnal = 1.0 +. (diurnal_amplitude *. sin (tod +. phase)) in
        let noise = Nkutil.Rng.lognormal rng ~mu:0.0 ~sigma:noise_sigma in
        let spike =
          if Nkutil.Rng.float rng < spike_probability then
            spike_magnitude *. Nkutil.Rng.float_range rng 0.5 1.5
          else 0.0
        in
        Float.max 1.0 (base_rps *. scale *. ((diurnal *. noise) +. spike)))
  in
  finish ~ag_id rates

let generate_fleet ~seed ~n () =
  let master = Nkutil.Rng.create ~seed in
  List.init n (fun ag_id -> generate ~rng:(Nkutil.Rng.split master) ~ag_id)

let rate_at t seconds =
  let n = Array.length t.rates in
  if n = 0 then 0.0
  else begin
    let pos = seconds /. 60.0 in
    let i = int_of_float pos in
    if pos <= 0.0 then t.rates.(0)
    else if i >= n - 1 then t.rates.(n - 1)
    else begin
      let frac = pos -. float_of_int i in
      (t.rates.(i) *. (1.0 -. frac)) +. (t.rates.(i + 1) *. frac)
    end
  end

let peak_to_mean t = if t.mean = 0.0 then 0.0 else t.peak /. t.mean

let top_k_by_utilization ts k =
  let sorted = List.sort (fun a b -> Float.compare b.mean a.mean) ts in
  List.filteri (fun i _ -> i < k) sorted

let aggregate = function
  | [] -> [||]
  | first :: _ as ts ->
      let n = Array.length first.rates in
      let out = Array.make n 0.0 in
      List.iter
        (fun t -> Array.iteri (fun i r -> if i < n then out.(i) <- out.(i) +. r) t.rates)
        ts;
      out
