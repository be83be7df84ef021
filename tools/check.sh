#!/bin/sh
# Repo check: tier-1 build + tests + static analysis, the BENCH baselines
# (one loop: each experiment runs twice, then its rendering is diffed
# against the committed file), plus a format check when ocamlformat is
# available (the pinned version is in .ocamlformat; the build does not
# require it, so environments without it skip the formatting step).
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
# @lint runs nklint once: its syntactic pass (DESIGN.md §10) over every
# .ml/.mli under lib/ bin/ bench/ test/ examples/ perfbench/, and its
# typedtree pass (DESIGN.md §15) over the lib/ .cmt files `dune build` just
# produced — the lint rule depends on the default alias with sandboxing
# off, so it never recompiles the tree.
dune build @lint
# Microbenchmark smoke: run the Bechamel suite once so a broken case (an
# NQE that is not switched, a full hugepage region, a Send NQE that never
# completes) fails the check. Its timings stay ungated.
dune exec bench/main.exe > /dev/null
# Benchmark selftest: perfbench's in-process checks (output checks, a
# slice-driven run equal to one Testbed.run, paced equal to plain, traced
# equal to untraced, seed sensitivity), so a change that breaks a workload
# fails here before any benchmark run.
dune exec perfbench/main.exe -- --selftest
# Trace export smoke: `nk trace` and `nk trace --cluster` export their
# whole workload, so neither may write to stderr (a dropped-events
# warning means the trace ring overwrote part of the run).
for args in "" "--cluster"; do
  err=$(dune exec bin/nk.exe -- trace $args 2>&1 >/dev/null)
  if [ -n "$err" ]; then
    echo "check.sh: nk trace $args wrote to stderr:" >&2
    echo "$err" >&2
    exit 1
  fi
done
echo "check.sh: nk trace exports OK"
# Bench gate, and the one determinism loop: `nk bench` runs each
# experiment's quick mode twice and exits 1 if the two rendered reports
# differ anywhere, notes included (the sharded CE, the Nkspan catapult
# export digest, the Nkfabric migration and relay, the Homa grant pacer
# and handover, Nkobs SLO windows, alerts and the flight-dump digest, and
# the shared-memory NSM, whose fig10 row sits at its hugepage copy bound).
# Its rendering is then diffed against the committed BENCH_<id>.json. The
# reports are deterministic, so any diff is a behaviour change, to be
# acknowledged by regenerating the baseline
# (`dune exec bin/nk.exe -- bench <id> -o BENCH_<id>.json`).
snap=$(mktemp)
trap 'rm -f "$snap"' EXIT
for id in ce-scale latency-breakdown cluster incast slo fig10; do
  dune exec bin/nk.exe -- bench "$id" -o "$snap"
  diff -u "BENCH_$id.json" "$snap"
  echo "check.sh: bench baseline $id OK"
done
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "check.sh: ocamlformat not installed; skipping format check"
fi
echo "check.sh: OK"
