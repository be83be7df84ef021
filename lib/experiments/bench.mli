(** The `nk bench` double run behind the committed BENCH_<id>.json
    baselines, which `tools/check.sh` compares with `diff`. *)

val run_twice : (unit -> Report.t) -> (string, string) result
(** Run an experiment twice. Each run's {!Report.to_json} gains two last
    notes, [host: <N> engine events executed] and
    [host: <N> minor words allocated], counted with
    {!Sim.Engine.total_executed} and [Gc.minor_words] around the run; the
    events count repeats exactly for every build, the words count for a
    given build. [Ok] holds the first rendering when both runs render
    byte-identical: rows, percentiles and notes, both host notes
    included. [Error] quotes the first pair of lines where the two
    renderings differ. *)
