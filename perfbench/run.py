#!/usr/bin/env python3
"""Build and run the NetKernel benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/main.exe from the checkout's sources with dune, into the
build directory named by CARGO_TARGET_DIR (default .bench_build, relative
to the checkout root), then runs it with the given arguments. The last
line of standard output is the run's JSON result; build output goes to
standard error.

--selftest runs the benchmark's own tests: the in-process checks of
main.exe --selftest, then two same-seed processes per workload whose
deterministic metrics must agree exactly.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170

# Metrics that must repeat exactly for the same seed and run length.
DETERMINISTIC = {
    0: ["alloc_words_per_op", "peak_heap_mb", "sim_ops_per_s", "sim_goodput_gbps",
        "sim_p50_us", "sim_p99_us", "sim_p999_us", "sim_cycles_per_op", "ok_ratio"],
    1: ["sim.events_per_op", "sim.pending_peak", "vm.sim_cycles_per_op",
        "nsm.sim_cycles_per_op", "coreengine.sim_cycles_per_op", "nkfabric.spine_us"],
}

WORKLOADS = ["rpc-churn", "bulk-stream", "cluster-http", "homa-fanin"]


def build():
    """Build main.exe; return its path, or None if the build failed."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} missing at {ROOT}; the benchmark builds the "
                  "simulator from this checkout's sources", file=sys.stderr)
            return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "--cache", "disabled", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run(exe, args, capture=False):
    """Run main.exe to completion (killed after RUN_TIMEOUT_S)."""
    try:
        return subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None


def result(exe, workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    done = run(exe, args, capture=True)
    if done is None or done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def selftest(exe):
    done = run(exe, ["--selftest"])
    ok = done is not None and done.returncode == 0
    for workload in WORKLOADS:
        for trace, names in DETERMINISTIC.items():
            a, b = result(exe, workload, trace), result(exe, workload, trace)
            if a is None or b is None:
                print(f"FAIL {workload} trace {trace}: run failed")
                ok = False
                continue
            same = [n for n in names if a["metrics"].get(n) == b["metrics"].get(n)]
            differ = [n for n in names if n not in same]
            verdict = "ok  " if not differ else "FAIL"
            print(f"{verdict} {workload} trace {trace}: {len(same)} deterministic metrics "
                  f"repeat exactly across two processes" + (f"; differ: {differ}" if differ else ""))
            ok = ok and not differ
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    exe = build()
    if exe is None:
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest(exe)
    done = run(exe, sys.argv[1:])
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
