(** ab-like load generator.

    Closed-loop mode keeps a fixed number of in-flight requests
    (ab's concurrency) until a request budget or deadline runs out — used
    for the RPS and latency experiments (§7.3–§7.7, Table 3, Table 5).
    Open-loop mode issues requests following a time-varying arrival rate —
    used to replay the application-gateway traces (§6.1).

    Each request is connect → request → full response → close (or reuse on
    keep-alive protocols). Latencies are recorded into an HDR histogram. *)

type mode =
  | Closed of { concurrency : int; total : int option; duration : float option }
  | Open of { rate_at : float -> float; duration : float }

type config = {
  server : Addr.t;
  proto : Proto.t;
  mode : mode;
  warmup : float;  (** ignore samples before this time (seconds) *)
}

type t

type results = {
  completed : int;
  errors : int;
  started : float;
  finished : float;
  rps : float;  (** completed / (finished - started) *)
  latency : Nkutil.Histogram.t;
  response_bytes : int;
  completions : Nkutil.Timeseries.t;  (** completed requests per 100 ms *)
}

val start : engine:Sim.Engine.t -> api:Tcpstack.Socket_api.t -> config -> t

val results : t -> results

val in_flight : t -> int
