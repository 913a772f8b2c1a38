#!/usr/bin/env python3
"""Benchmark of svb, driven from outside the package.

    python3 perfbench/run.py --workload corpus|cloud|fibers|orbits \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: svb is imported from ``src/``.
One process runs one workload as a closed loop with one client: one
operation in flight, each operation one ``svb.cli.main(argv)`` call on
JSON files generated from ``--seed`` (or, for
``local_finiteness_report``, one direct call).  Set-up imports svb,
writes the inputs (three times, the median counts) and runs one
untimed warm-up pass whose reports become the reference.  The timed
loop then runs as many whole passes as fill ``--seconds`` at the
workload's nominal pass time on the seed code, so every run of a
workload times the same operations however fast the program is.  Every
report is checked against how its input was built and against the
same operation's report in the first pass.

Reported times are wall times rescaled by a machine-speed probe (see
``speed_probe``); the raw figures go to the context.  ``ops_per_s`` is
operations over their summed time, so the checking between operations
is left out.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics.  With ``--trace 1`` half the time runs untraced and
the same number of passes traced, and the last line holds the
per-layer metrics: counts and raw wall seconds per pass.  Full results,
with the run's context, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
# A slow program stops early rather than overrun the run's time limit.
GUARD = 4.0
EXIT_VERDICT = {"PASS": 0, "FAIL": 2, "INCONCLUSIVE": 3}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
                    "op_s.tail": "s", "peak_rss_mb": "MB"}

# Machine-speed probe: a fixed pure-Python loop timed right before every
# operation.  On a shared 2-core VM the CPU runs in fast and slow phases,
# lasting seconds to minutes, that move every operation's wall time by
# up to a third.  The loop's time follows those phases (over 150 s,
# corpus passes took 196-324 ms while their ratio to the loop's time
# stayed within 31-39), so end-to-end times are wall times rescaled to
# the speed at which the loop takes PROBE_NOMINAL_S.
PROBE_LOOPS = 30_000
PROBE_NOMINAL_S = 2.0e-3


def speed_probe() -> float:
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return perf_counter() - start


def rescaled(times, probes):
    """Each time scaled by the median of the probes taken before the
    nine operations around it, a window of about a second."""
    return [t * PROBE_NOMINAL_S
            / statistics.median(probes[max(i - 4, 0):i + 5])
            for i, t in enumerate(times)]


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    xs = sorted(samples)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


class Runner:
    """Runs passes over one workload's operations and checks each
    report; a failing or raising operation is counted, never fatal."""

    def __init__(self, ops, tmp, cli):
        self.ops = ops
        self.tmp = tmp
        self.cli = cli
        self.reference = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.labels: list[str] = []
        self.probes: list[float] = []

    def run_pass(self) -> list[float]:
        """One pass; returns each operation's wall time and appends the
        speed probe taken before it to ``probes``."""
        state: dict = {}
        times = []
        for i, op in enumerate(self.ops):
            self.probes.append(speed_probe())
            if self.tracer is not None:
                self.tracer.op = len(self.labels)
                self.labels.append(op.label)
            out = io.StringIO()
            code, result, error = None, None, None
            start = perf_counter()
            try:
                if op.call is not None:
                    result, code = op.call(), 0
                else:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = self.cli.main(op.argv)
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=-3)
            times.append(perf_counter() - start)
            self.attempted += 1
            if error is None:
                try:
                    error = self._verify(i, op, code, result, out.getvalue(),
                                         state)
                except Exception:
                    error = traceback.format_exc(limit=-3)
            if error is not None:
                self.failed += 1
                self.failures.append(f"{op.label}: {error}")
        return times

    def _verify(self, i, op, code, result, stdout, state):
        if code != op.code:
            return f"exit code {code}, expected {op.code}"
        if op.call is not None:
            text = json.dumps(result, sort_keys=True)
        else:
            text = stdout.replace(self.tmp, "<tmp>")
            result = json.loads(text)
            if EXIT_VERDICT.get(result["overall"]) != code:
                return f"overall {result['overall']} with exit code {code}"
        digest = hashlib.sha256(text.encode())
        if op.artifact is not None:
            with open(op.artifact, "rb") as fh:
                digest.update(fh.read())
        op.check(result, state)
        if self.reference[i] is None:
            self.reference[i] = digest.hexdigest()
        elif self.reference[i] != digest.hexdigest():
            return "report differs from the first pass"
        return None


class Loop:
    """Operation times of consecutive passes, raw and rescaled."""

    def __init__(self, runner, passes, seconds):
        """``passes`` whole passes, or fewer once ``GUARD`` times the
        intended ``seconds`` have gone by."""
        self.samples: list[float] = []
        self.by_op = defaultdict(list)
        self.passes = 0
        first_probe = len(runner.probes)
        start = perf_counter()
        while self.passes < passes and \
                perf_counter() - start < GUARD * seconds:
            gc.collect()
            times = runner.run_pass()
            self.passes += 1
            self.samples.extend(times)
            for op, t in zip(runner.ops, times):
                self.by_op[op.label].append(t)
        self.wall = perf_counter() - start
        self.probes = runner.probes[first_probe:]
        self.scaled = rescaled(self.samples, self.probes)


def context(args, svb, numpy, ops) -> dict:
    from workloads import describe_input
    from svb.functors import dim_map, parse_functor

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inputs = {}
    for op in ops:
        for path in op.inputs:
            if path not in inputs:
                inputs[path] = describe_input(path)
    functor_out = []
    for op in ops:
        if op.argv and "--functor" in op.argv:
            spec = op.argv[op.argv.index("--functor") + 1]
            ambient = max(inputs[p].get("fiber_ambient", 0)
                          for p in op.inputs)
            functor_out.append(dim_map(parse_functor(spec), ambient))
    largest = {key: max((d.get(key, 0) for d in inputs.values()), default=0)
               for key in ("points", "strata", "fibers", "fiber_ambient")}
    largest["functor_out"] = max(functor_out, default=0)
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "svb": svb.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(numpy)},
        "commit": git_commit(),
        "operations_per_pass": len(ops),
        "sizes": {"largest_input": largest,
                  "inputs": list(inputs.values())},
    }


def blas_threads(numpy):
    """OpenBLAS thread count, read from the library numpy bundles."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def baselines(workload, rng) -> dict:
    """The ROADMAP.md kernel baselines that belong to this workload, each
    timed three times at its original size."""
    from workloads import BASELINES

    out = {}
    for key, (home, then, kernel, what) in BASELINES.items():
        if home == workload:
            now = statistics.median(kernel(rng) for _ in range(3))
            out[key] = {"baseline_s": then, "measured_s": now,
                        "ratio": now / then,
                        "gap_over_2x": not 0.5 <= now / then <= 2.0,
                        "timed": what}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "cloud", "fibers", "orbits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    for needed in (os.path.join(src, "svb", "__init__.py"),
                   os.path.join(ROOT, "scripts", "run_corpus.py")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from the root of "
                  "an svb checkout", file=sys.stderr)
            return 2

    t0 = perf_counter()
    sys.path.insert(0, src)
    import numpy
    import svb
    import svb.cli
    import workloads
    import_s = perf_counter() - t0
    if os.path.dirname(os.path.abspath(svb.__file__)) != \
            os.path.join(src, "svb"):
        print(f"perfbench: imported svb from {svb.__file__}, not {src}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        write_s = []
        for k in range(SETUP_REPEATS):
            work = os.path.join(tmp, f"inputs{k}")
            os.mkdir(work)
            start = perf_counter()
            ops = build(ROOT, work, numpy.random.default_rng(args.seed),
                        scale)
            write_s.append(perf_counter() - start)
        runner = Runner(ops, work, svb.cli)
        start = perf_counter()
        warmup = runner.run_pass()
        warmup_s = perf_counter() - start
        setup_raw = import_s + statistics.median(write_s) + warmup_s
        setup_probe = statistics.median(runner.probes)
        info = context(args, svb, numpy, ops)
        info["setup"] = {"import_s": import_s, "write_inputs_s": write_s,
                         "warmup_pass_s": warmup_s, "raw_s": setup_raw,
                         "probe_median_s": setup_probe,
                         "warmup_op_s": {op.label: t
                                         for op, t in zip(ops, warmup)}}
        pass_s = scale.pass_s[args.workload]

        if args.trace == 0:
            loop = Loop(runner, math.ceil(args.seconds / pass_s),
                        args.seconds)
            value, pct, beyond = tail(loop.scaled)
            metrics = {"setup_s": setup_raw * PROBE_NOMINAL_S / setup_probe,
                       "ops_per_s": len(loop.scaled) / sum(loop.scaled),
                       "op_s.p50": statistics.median(loop.scaled),
                       "op_s.tail": value,
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = END_TO_END_UNITS
            info["loop"] = {
                "passes": loop.passes, "wall_s": loop.wall,
                "samples": len(loop.samples), "tail_percentile": pct,
                "tail_samples_beyond": beyond,
                "raw_ops_per_s": len(loop.samples) / sum(loop.samples),
                "raw_op_s.p50": statistics.median(loop.samples),
                "raw_op_s.tail": tail(loop.samples)[0],
                "probe_s": {"min": min(loop.probes),
                            "median": statistics.median(loop.probes),
                            "max": max(loop.probes)}}
        else:
            from spans import Tracer, metric_units

            half = args.seconds / 2
            loop = Loop(runner, math.ceil(half / pass_s), half)
            by_verb = defaultdict(list)
            for op in ops:
                by_verb[op.verb].extend(loop.by_op[op.label])
            verb_p50 = {v: statistics.median(t) for v, t in by_verb.items()}
            tracer = Tracer()
            runner.tracer = tracer
            tracer.install(svb)
            try:
                traced = Loop(runner, loop.passes, half)
            finally:
                tracer.uninstall()
                runner.tracer = None
            overhead = (sum(traced.scaled) / traced.passes) / \
                (sum(loop.scaled) / loop.passes)
            metrics = tracer.metrics(traced.passes, traced.wall, overhead,
                                     verb_p50)
            units = metric_units()
            info["loop"] = {"untraced_passes": loop.passes,
                            "untraced_wall_s": loop.wall,
                            "traced_passes": traced.passes,
                            "traced_wall_s": traced.wall,
                            "spans": len(tracer.spans)}
            info["baselines"] = baselines(
                args.workload, numpy.random.default_rng(args.seed))
            tracer.dump(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                runner.labels)

    info["op_samples_s"] = dict(loop.by_op)
    info["probes_s"] = loop.probes
    info["fail_ratio"] = runner.failed / runner.attempted
    info["failures"] = runner.failures[:10]
    result = {"correct": runner.failed == 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"context": info, "result": result}, fh, indent=2)

    for message in runner.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace == 0:
        for name, unit in units.items():
            print(f"  {name:12s} {metrics[name]:.6g} {unit}")
        print(f"  {'fail_ratio':12s} {info['fail_ratio']:.6g} 1 "
              f"({runner.failed} of {runner.attempted})")
        print(f"  tail at p{info['loop']['tail_percentile']:.1f} of "
              f"{len(loop.samples)} samples")
    print("context: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
