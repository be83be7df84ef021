#!/bin/sh
# Repo check: tier-1 build + tests + static analysis, plus a format
# check when ocamlformat is available (the pinned version is in
# .ocamlformat; the build does not require it, so environments without it
# skip the formatting step).
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
# NQE that is not switched, a full hugepage region, a decode error) fails
# the check. Its timings stay ungated.
dune exec bench/main.exe > /dev/null
# Span tracing smoke: the quick latency-breakdown run is executed twice and
# the catapult JSON exports diffed — Nkspan derives every timestamp from
# virtual time, so same-seed traces must be byte-identical.
cat1=$(mktemp) cat2=$(mktemp)
trap 'rm -f "$cat1" "$cat2"' EXIT
dune exec bin/nk.exe -- span --quick --catapult "$cat1" > /dev/null
dune exec bin/nk.exe -- span --quick --catapult "$cat2" > /dev/null
if ! diff -q "$cat1" "$cat2" >/dev/null; then
  echo "check.sh: latency-breakdown catapult exports diverged (nondeterminism in Nkspan):" >&2
  diff "$cat1" "$cat2" >&2 || true
  exit 1
fi
echo "check.sh: latency-breakdown catapult determinism smoke OK"
# Bench drift gate and determinism smoke: `nk bench` runs each experiment
# twice and exits 1 if the two rendered reports differ anywhere, notes
# included (the sharded CE, the Nkfabric migration and relay, the Homa
# grant pacer and handover, Nkobs SLO windows, alerts and the flight-dump
# digest). The fresh snapshot is then diffed against the committed
# BENCH_<id>.json baseline. The simulated metric tables are deterministic,
# so any drift beyond the tolerance is a behaviour change that must be
# acknowledged by regenerating the baseline
# (`dune exec bin/nk.exe -- bench <id> -o BENCH_<id>.json`). Wall-clock
# is reported as a ratio only, never gated.
snap=$(mktemp)
trap 'rm -f "$cat1" "$cat2" "$snap"' EXIT
for id in ce-scale latency-breakdown cluster incast slo; do
  dune exec bin/nk.exe -- bench "$id" -o "$snap"
  dune exec bin/nk.exe -- bench --compare "BENCH_$id.json,$snap"
  echo "check.sh: bench baseline $id OK"
done
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "check.sh: ocamlformat not installed; skipping format check"
fi
echo "check.sh: OK"
