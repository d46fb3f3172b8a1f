"""Benchmark entry point.

    python3 perfbench/run.py --workload {fibers,products,modules} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it times the workload end to
end: set-up in fresh interpreters, then repetitions of (fresh contexts,
cold sweep, warm sweeps) for about S seconds.  With --trace 1 it runs one
untraced and one traced cold sweep (S is not used) and reports per-layer
metrics.  Every
pass checks its outputs; the last line of standard output is a JSON object
with keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fibers", "products", "modules")
SETUP_PROBES = 7  # fresh interpreters timed per run; setup_s is their median
WARM_MIN_S = 3.0  # warm passes repeat until they add up to this much


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def time_setup(workload: str) -> float:
    probe = os.path.join(HERE, "setup_probe.py")
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, probe, workload],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.split()[-1]) - t0


def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


class Checker:
    """Tallies check executions and failures over every pass of a run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def add(self, label: str, res) -> None:
        self.attempted += res.checks
        self.failed += res.failed
        for name, got in res.digests().items():
            if got != self.expected.get(name):
                self.failed += 1
                self.mismatches.append(f"{label}/{name}: {got}")


def measure(workload: str, seed: int, seconds: float, checker: Checker):
    import contexts
    import workloads

    setup = [time_setup(workload) for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    cold, warm = [], []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        ctxs = contexts.build(workload)
        res = workloads.run_pass(workload, ctxs, rng)
        checker.add("cold", res)
        cold.append(res)
        warm_s = 0.0
        while warm_s < WARM_MIN_S:
            again = workloads.run_pass(workload, ctxs, rng, capture=False)
            checker.add("warm", again)
            warm.append(again.seconds)
            warm_s += again.seconds
        if len(cold) == 1:
            # later repetitions reuse freed memory unevenly, so take the peak
            # of the first; it covers set-up, one cold pass and its warm passes
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del ctxs
        gc.collect()
        rep_s = perf_counter() - rep_start
        if perf_counter() - start + rep_s > seconds:
            break
    latencies = [t for r in cold for t in r.latencies]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (statistics.median(r.seconds for r in cold), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "check_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "check_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "repetitions": len(cold),
        "warm_passes": len(warm),
        "checks_per_pass": cold[0].checks,
        "setup_samples_s": setup,
        "cold_samples_s": [r.seconds for r in cold],
        "cold_s_by_subsweep": {
            name: statistics.median(r.sub_seconds[name] for r in cold)
            for name in cold[0].sub_seconds
        },
        "checks_by_subsweep": cold[0].sub_checks,
    }
    return metrics, info


def measure_traced(workload: str, seed: int, checker: Checker, tag: str):
    import contexts
    import tracing
    import workloads

    rng = random.Random(seed)
    base = workloads.run_pass(workload, contexts.build(workload), rng)
    checker.add("untraced", base)
    gc.collect()
    ctxs = contexts.build(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = workloads.run_pass(workload, ctxs, rng, tracer)
    finally:
        tracer.uninstall()
    checker.add("traced", res)
    metrics = tracing.layer_metrics(tracer, res.seconds, base.seconds)
    tracing.write_layer_table(tracer, res.seconds, os.path.join(OUT, f"{tag}-layers.txt"))
    tracer.dump(os.path.join(OUT, f"{tag}-spans.npz"))
    info = {
        "checks_per_pass": res.checks,
        "untraced_cold_s_by_subsweep": base.sub_seconds,
        "traced_cold_s_by_subsweep": res.sub_seconds,
        "checks_by_subsweep": res.sub_checks,
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = perf_counter()

    if not os.path.isdir(os.path.join(SRC, "periodic_hall")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checker = Checker(workloads.EXPECTED_DIGESTS[args.workload])
    if args.trace:
        metrics, info = measure_traced(args.workload, args.seed, checker, tag)
    else:
        metrics, info = measure(args.workload, args.seed, args.seconds, checker)

    env = environment(args.workload, args.seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(
        f"{'checks_failed':<36} {checker.failed:>14d} count "
        f"(of {checker.attempted} check executions, {info['checks_per_pass']} per pass)"
    )
    for key in ("cold_s_by_subsweep", "traced_cold_s_by_subsweep"):
        if key in info:
            parts = ", ".join(f"{k} {v:.3f} s" for k, v in info[key].items())
            print(f"{key.replace('_by_subsweep', '')} by sub-sweep: {parts}")
    for line in checker.mismatches:
        print(f"digest mismatch {line}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        run_wall_s = perf_counter() - run_start
        json.dump({**result, "environment": env, "run_wall_s": run_wall_s, **info}, fh, indent=1)
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
