#!/usr/bin/env python3
"""Record a performance snapshot of an svb checkout as ``BENCH_<n>.json``.

    python3 scripts/bench_snapshot.py --out BENCH_1.json [--checkout DIR]

Runs the checkout's ``perfbench/run.py`` for every workload over seeds
1-3, 20 s each, and stores, per workload, the median and interquartile range of each
end-to-end metric together with the run context (commit, numpy, BLAS
and its threads, nproc).  It also times kernels at the sizes the
benchmark's inputs hide: ``check_frontier`` and
``local_finiteness_report`` on the Cantor stratifications of levels 6-9,
and the construction of a 3,200-point ``Stratification`` (32 clusters in
R^3), five times each.  Seeds, run length and repeats are fixed, so that
any two snapshots compare like with like.  Each measurement runs in a fresh process that imports svb from
the checkout's ``src``, so a snapshot of an older commit only needs its
checkout; ``--checkout`` defaults to the one holding this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus", "cloud", "fibers", "orbits")
METRICS = ("setup_s", "ops_per_s", "op_s.p50", "op_s.tail", "peak_rss_mb")
CONTEXT_KEYS = ("commit", "numpy", "python", "blas", "nproc", "affinity")
SEEDS = (1, 2, 3)
SECONDS = 20.0  # length of each perfbench run
REPEATS = 5  # timings of each scaled kernel


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    parser.add_argument("--checkout", default=HERE,
                        help="svb checkout to measure (default: this one)")
    parser.add_argument("--scaled", action="store_true",
                        help=argparse.SUPPRESS)  # the child-process mode
    return parser.parse_args(argv)


def spread(values):
    """Median and interquartile range of a sample."""
    values = sorted(values)
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def perfbench(checkout, workload, seed):
    """End-to-end metrics and context of one untraced perfbench run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    context = json.loads(next(line for line in lines
                              if line.startswith("context: "))[9:])
    result = json.loads(lines[-1])
    metrics = {name: result["metrics"][name]["value"] for name in METRICS}
    return metrics, context


def src_modified(checkout):
    """Whether the checkout's ``src`` differs from its commit, or None
    outside a git checkout."""
    done = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
        cwd=checkout, capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def _clusters(rng, grid=(4, 4, 2), points=100):
    """Balls of radius 0.25 around a jittered unit grid in R^3."""
    import numpy as np

    from svb.strata import Stratum

    strata = []
    for c, center in enumerate(np.ndindex(*grid)):
        center = np.array(center, float) + rng.uniform(-0.05, 0.05, 3)
        direction = rng.normal(size=(points, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = 0.25 * rng.uniform(0.0, 1.0, (points, 1)) ** (1.0 / 3.0)
        strata.append(Stratum(f"cl{c:03d}", 3, center + radius * direction))
    return strata


def scaled_timings(checkout):
    """Median and minimum seconds of each scaled kernel, in this process."""
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    import numpy as np

    import svb
    from svb.fixtures import cantor_stratification
    from svb.strata import (Stratification, check_frontier,
                            local_finiteness_report)

    if os.path.dirname(os.path.abspath(svb.__file__)) != \
            os.path.join(os.path.abspath(src), "svb"):
        raise SystemExit(f"imported svb from {svb.__file__}, not {src}")
    cases = {}
    for level in (6, 7, 8, 9):
        s = cantor_stratification(level)
        size = {"points": int(sum(len(st) for st in s.strata)),
                "strata": len(s.strata)}
        cases[f"cantor_l{level}_frontier"] = (
            size, lambda s=s: check_frontier(s))
        cases[f"cantor_l{level}_local_finiteness"] = (
            size, lambda s=s: local_finiteness_report(s, 0.1, threshold=3))
    strata = _clusters(np.random.default_rng(0))
    cases["stratification_3200"] = (
        {"points": 3200, "strata": len(strata)},
        lambda: Stratification(strata))
    out = {}
    for name, (size, call) in cases.items():
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
        out[name] = {"median_s": statistics.median(times),
                     "min_s": min(times), "repeats": REPEATS, "size": size}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.scaled:
        print(json.dumps(scaled_timings(checkout)))
        return 0

    workloads = {}
    context = None
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            metrics, ctx = perfbench(checkout, workload, seed)
            context = context or {key: ctx.get(key) for key in CONTEXT_KEYS}
            runs.append(dict(metrics, seed=seed, fail_ratio=ctx["fail_ratio"]))
            print(f"{workload} seed={seed} ops_per_s="
                  f"{metrics['ops_per_s']:.4g}", file=sys.stderr)
        summary = {name: spread([run[name] for run in runs])
                   for name in METRICS}
        workloads[workload] = {
            "median": {name: m for name, (m, _) in summary.items()},
            "iqr": {name: q for name, (_, q) in summary.items()},
            "fail_ratio": max(run["fail_ratio"] for run in runs),
            "runs": runs}
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--scaled", "--out",
         args.out, "--checkout", checkout],
        capture_output=True, text=True, check=True)
    snapshot = {"context": dict(context, seeds=list(SEEDS),
                                seconds=SECONDS,
                                src_modified=src_modified(checkout)),
                "workloads": workloads,
                "scaled": json.loads(done.stdout)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
