let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024

let bits_per_sec_of_bytes ~bytes ~seconds =
  if seconds <= 0.0 then 0.0 else float_of_int bytes *. 8.0 /. seconds

let gbps_of_bytes ~bytes ~seconds = bits_per_sec_of_bytes ~bytes ~seconds /. 1e9

let pp_bytes fmt n =
  if n >= gib then Format.fprintf fmt "%.1f GB" (float_of_int n /. float_of_int gib)
  else if n >= mib then Format.fprintf fmt "%.1f MB" (float_of_int n /. float_of_int mib)
  else if n >= kib then Format.fprintf fmt "%d KB" (n / kib)
  else Format.fprintf fmt "%d B" n
