let modulus = 1 lsl 32

let mask = modulus - 1

let half = 1 lsl 31

let add a n = (a + n) land mask

let diff a b =
  let d = (a - b) land mask in
  if d >= half then d - modulus else d

let lt a b = diff a b < 0

let leq a b = diff a b <= 0

let gt a b = diff a b > 0

let geq a b = diff a b >= 0

let between ~low ~x ~high = leq low x && lt x high
