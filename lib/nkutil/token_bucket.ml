type t = {
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate ~burst ~now =
  if rate <= 0.0 then invalid_arg "Token_bucket.create: rate must be > 0";
  if burst <= 0.0 then invalid_arg "Token_bucket.create: burst must be > 0";
  { rate; burst; tokens = burst; last = now }

let refill t ~now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

let try_take t ~now n =
  refill t ~now;
  if t.tokens >= n then begin
    t.tokens <- t.tokens -. n;
    true
  end
  else false

let time_until t ~now n =
  refill t ~now;
  if t.tokens >= n then 0.0 else (n -. t.tokens) /. t.rate
