let sum a = Array.fold_left ( +. ) 0.0 a

let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

let stddev a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (acc /. float_of_int n)
  end

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy a in
    Array.sort Float.compare sorted;
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))
  end

let coefficient_of_variation a =
  let m = mean a in
  if m = 0.0 then 0.0 else stddev a /. m

let jain_fairness a =
  let n = Array.length a in
  if n = 0 then 1.0
  else begin
    let s = sum a in
    let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a in
    if sq = 0.0 then 1.0 else s *. s /. (float_of_int n *. sq)
  end
