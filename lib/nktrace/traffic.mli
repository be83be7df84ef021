(** Synthetic application-gateway traffic traces.

    Stand-in for the paper's September-2018 production trace of tens of
    thousands of application gateways (§6.1, Fig 7): per-minute request
    rates with the properties the paper reports — very low average
    utilization, strong burstiness, rare large peaks. Each AG's one-hour
    series (60 minutes) is a diurnal baseline around a median of 800 rps
    plus lognormal noise plus Poisson-arriving spikes, deterministic per
    seed: mean utilization a few percent of peak, as in Fig 7. *)

type t = {
  ag_id : int;
  rates : float array;  (** requests/second, one entry per minute *)
  peak : float;
  mean : float;
}

val generate_fleet : seed:int -> n:int -> unit -> t list
(** [n] AGs with independent sub-streams of one seed. *)

val rate_at : t -> float -> float
(** [rate_at t seconds] is the request rate at a point in (trace) time,
    with linear interpolation between minute bins. *)

val peak_to_mean : t -> float

val top_k_by_utilization : t list -> int -> t list
(** The paper picks "the three most utilized AGs"; utilization here is the
    mean rate. *)

val aggregate : t list -> float array
(** Sum of the per-minute rates across AGs. *)
