(** The `nk bench` double run behind the committed BENCH_<id>.json
    baselines, which `tools/check.sh` compares with `diff`. *)

val run_twice : (unit -> Report.t) -> (string, string) result
(** Run an experiment twice. [Ok] holds the first run's
    {!Report.to_json} when both runs render byte-identical: rows,
    percentiles and notes. [Error] quotes the first pair of lines where
    the two renderings differ. *)
