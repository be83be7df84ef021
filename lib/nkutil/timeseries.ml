type t = { width : float; mutable bins : float array; mutable last : int }

let create ~bin_width () =
  if bin_width <= 0.0 then invalid_arg "Timeseries.create: bin_width must be > 0";
  { width = bin_width; bins = Array.make 64 0.0; last = -1 }

let ensure t i =
  if i >= Array.length t.bins then begin
    let bins = Array.make (Int.max (i + 1) (2 * Array.length t.bins)) 0.0 in
    Array.blit t.bins 0 bins 0 (Array.length t.bins);
    t.bins <- bins
  end

let add t ~time v =
  if time >= 0.0 then begin
    let i = int_of_float (time /. t.width) in
    ensure t i;
    t.bins.(i) <- t.bins.(i) +. v;
    if i > t.last then t.last <- i
  end

let num_bins t = t.last + 1

let get t i = if i >= 0 && i <= t.last then t.bins.(i) else 0.0

let rate t i = get t i /. t.width
