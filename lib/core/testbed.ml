module Config = struct
  type t = {
    rate_gbps : float;
    buffer_bytes : int option;
    seed : int;
    costs : Nk_costs.t;
    trace_capacity : int option;
    trace_enabled : bool;
    span_every : int;
  }

  let default =
    {
      rate_gbps = 100.0;
      buffer_bytes = None;
      seed = 42;
      costs = Nk_costs.default;
      trace_capacity = None;
      trace_enabled = false;
      span_every = 0;
    }
end

type t = {
  engine : Sim.Engine.t;
  registry : Tcpstack.Conn_registry.t;
  fabric : Fabric.t;
  rng : Nkutil.Rng.t;
  costs : Nk_costs.t;
  mon : Nkmon.t;
  spans : Nkspan.t;
  config : Config.t;
}

let create ?(config = Config.default) () =
  let {
    Config.rate_gbps;
    buffer_bytes;
    seed;
    costs;
    trace_capacity;
    trace_enabled;
    span_every;
  } =
    config
  in
  let engine = Sim.Engine.create () in
  (* 20 us one-way through the switch *)
  let fabric =
    Fabric.create engine ~rate_bps:(rate_gbps *. 1e9) ~delay:20e-6 ?buffer_bytes ()
  in
  let mon =
    Nkmon.create ?trace_capacity ~trace_enabled
      ~now:(fun () -> Sim.Engine.now engine)
      ()
  in
  let spans = Nkspan.create ~span_every ~now:(fun () -> Sim.Engine.now engine) () in
  { engine; registry = Tcpstack.Conn_registry.create (); fabric;
    rng = Nkutil.Rng.create ~seed; costs; mon; spans; config }

let add_host ?mon ?spans t ~name =
  let mon = Option.value mon ~default:t.mon in
  let spans = Option.value spans ~default:t.spans in
  Host.create ~engine:t.engine ~fabric:t.fabric ~registry:t.registry
    ~rng:(Nkutil.Rng.split t.rng) ~costs:t.costs ~name ~mon ~spans ()

let run ?until t = Sim.Engine.run ?until t.engine

let now t = Sim.Engine.now t.engine
