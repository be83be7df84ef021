(** The `nk bench` double run behind the committed BENCH_<id>.json
    baselines, which `tools/check.sh` compares with `diff`. *)

val run_twice : (unit -> Report.t) -> (string, string) result
(** Run an experiment twice. Each run's {!Report.to_json} gains a last
    note, [host: <N> minor words allocated], counted with
    [Gc.minor_words] around the run; the count repeats exactly for a
    given build. [Ok] holds the first rendering when both runs render
    byte-identical: rows, percentiles and notes, the allocation note
    included. [Error] quotes the first pair of lines where the two
    renderings differ. *)
