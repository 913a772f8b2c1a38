#!/usr/bin/env python3
"""Record a performance snapshot of an svb checkout as ``BENCH_<n>.json``,
or compare two checkouts run by run.

    python3 scripts/bench_snapshot.py --out BENCH_1.json [--checkout DIR]
    python3 scripts/bench_snapshot.py --out pairs.json --against PARENT

A snapshot runs the checkout's ``perfbench/run.py`` for every workload
over ``SEEDS``, ``SECONDS`` each, and stores per workload the median and
interquartile range (IQR) of each end-to-end metric and every run, with
the run context (commit, numpy, BLAS and its threads, nproc).  Under
``scaled`` it holds the median and minimum seconds of ``REPEATS`` timings
of each kernel of ``scaled_timings``, run at sizes the workloads hide,
with its problem size.  Seeds, run length and repeats are fixed, so any
two snapshots compare like with like.

``--against PARENT`` times no kernels.  For each workload and each of its
``PAIR_SEEDS`` it runs perfbench once in PARENT and once in the checkout,
and the side that runs first alternates from seed to seed.  Per workload
the file holds both sides' runs (``runs``) and, per end-to-end metric of
``BENCHMARK.json`` (only read), ``metrics``: each side's median and IQR,
``ratio`` (the checkout's median over PARENT's), ``wins`` (the seeds on
which the checkout did better, by the metric's ``better``) out of
``pairs``, the ``bound``, ``beyond_bound`` (the checkout's median is
worse by more than the bound) and ``resolved`` (the medians differ by
more than PARENT's IQR).  The context holds each side's, plus the
``MALLOC_*`` environment that both ran under.

Each measurement runs in a fresh process that imports svb from its
checkout's ``src``, so an older commit only needs its checkout;
``--checkout`` defaults to the one holding this script.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus", "cloud", "fibers", "orbits")
METRICS = ("setup_s", "ops_per_s", "op_s.p50", "op_s.tail", "peak_rss_mb")
CONTEXT_KEYS = ("commit", "numpy", "python", "blas", "nproc", "affinity")
SEEDS = (1, 2, 3)
SECONDS = 20.0  # length of each perfbench run
REPEATS = 5  # timings of each scaled kernel
# Seeds of the --against pairs, ten where run-to-run spread is widest.
PAIR_SEEDS = {"corpus": tuple(range(81, 86)), "cloud": tuple(range(81, 86)),
              "fibers": tuple(range(81, 86)), "orbits": tuple(range(81, 91))}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    parser.add_argument("--checkout", default=HERE,
                        help="svb checkout to measure (default: this one)")
    parser.add_argument("--against", metavar="PARENT",
                        help="compare with the svb checkout PARENT, "
                        "alternating the sides seed by seed")
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


def pair_order(seeds):
    """``(seed, sides)`` for each seed, ``sides`` the order in which the
    two checkouts run it: the parent first on the first seed, and then on
    every other one."""
    sides = ("parent", "change")
    return [(seed, sides if k % 2 == 0 else sides[::-1])
            for k, seed in enumerate(seeds)]


def summarize(runs, end_to_end):
    """Per metric of ``end_to_end`` (the list in ``BENCHMARK.json``), the
    comparison of ``runs["change"]`` with ``runs["parent"]``, whose k-th
    runs share a seed."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        (p_median, p_iqr), (c_median, c_iqr) = spread(parent), spread(change)
        out[name] = {
            "parent": {"median": p_median, "iqr": p_iqr},
            "change": {"median": c_median, "iqr": c_iqr},
            "ratio": c_median / p_median if p_median else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent), "better": spec["better"],
            "bound": spec["bound"],
            "beyond_bound": sign * (p_median - c_median)
            > spec["bound"] * abs(p_median),
            "resolved": abs(c_median - p_median) > p_iqr}
    return out


def compare(parent, checkout):
    """Both checkouts' perfbench runs on the seeds of ``PAIR_SEEDS``,
    with their summary per workload and metric."""
    with open(os.path.join(checkout, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    where = {"parent": parent, "change": checkout}
    workloads, contexts = {}, {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed, sides in pair_order(PAIR_SEEDS[workload]):
            for side in sides:
                metrics, ctx = perfbench(where[side], workload, seed)
                contexts.setdefault(side, dict(
                    {key: ctx.get(key) for key in CONTEXT_KEYS},
                    checkout=where[side],
                    src_modified=src_modified(where[side])))
                runs[side].append(dict(metrics, seed=seed,
                                       first=side == sides[0],
                                       fail_ratio=ctx["fail_ratio"]))
                print(f"{workload} seed={seed} {side} ops_per_s="
                      f"{metrics['ops_per_s']:.4g}", file=sys.stderr)
        metrics = summarize(runs, end_to_end)
        workloads[workload] = {
            "metrics": metrics, "runs": runs,
            "fail_ratio": {side: max(run["fail_ratio"] for run in side_runs)
                           for side, side_runs in runs.items()}}
        for name, m in metrics.items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} "
                  f"[{m['parent']['iqr']:.2g}] -> "
                  f"{m['change']['median']:.4g} [{m['change']['iqr']:.2g}],"
                  f" ratio {m['ratio'] and round(m['ratio'], 3)}, "
                  f"wins {m['wins']}/{m['pairs']}", file=sys.stderr)
    context = dict(contexts, seconds=SECONDS,
                   seeds={w: list(seeds) for w, seeds in PAIR_SEEDS.items()},
                   malloc={key: value for key, value in os.environ.items()
                           if key.startswith("MALLOC_")})
    return {"context": context, "workloads": workloads}


def write(snapshot, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    import svb.cli
    from svb.bundle import (SampledStratifiedBundle, apply_functor_to_bundle,
                            trivial_bundle)
    from svb.equivariant import (FiniteGroupAction, invariant_subbundle,
                                 orbit_type_partition, quotient_bundle)
    from svb.fixtures import (axis_scaling_fields_plane, bundle_scalar_action,
                              cantor_stratification, ring_tangent_bundle,
                              rotation_group)
    from svb.foliation import VectorFieldSet, foliation_bundle
    from svb.functors import (SymPower, WedgePower, apply_to_map,
                              check_orthogonality, orthogonality_residuals)
    from svb.grassmann import Subspace
    from svb.jsonio import bundle_from_json, bundle_to_json, read_json, \
        write_json
    from svb.monoid import (MonoidActionSample, audit_axioms,
                            reconstruct_bundle, regularity_check)
    from svb.strata import (Stratification, Stratum, check_frontier,
                            local_finiteness_report, near_pairs,
                            partition_by_label)

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
    clusters = Stratification(strata)
    cases["frontier_clusters3200"] = (
        {"points": 3200, "strata": len(strata), "eps_touch": 0.05},
        lambda: check_frontier(clusters, 0.05, 0.05))
    grid = np.stack(np.meshgrid(np.arange(40), np.arange(40), indexing="ij"),
                    axis=-1).reshape(-1, 2) * 0.01
    grid400x4 = Stratification([Stratum(f"g{k:03d}", 0, grid[4 * k:4 * k + 4])
                                for k in range(400)])
    cases["frontier_grid400x4"] = (
        {"points": 1600, "strata": 400, "eps_touch": 0.05},
        lambda: check_frontier(grid400x4, 0.05, 0.05))
    uniform = np.random.default_rng(0).random((100_000, 3))
    radius = (10 / (len(uniform) * 4 / 3 * np.pi)) ** (1 / 3)
    cases["near_pairs_uniform100k"] = (
        {"points": 100_000, "ambient": 3, "radius": radius},
        lambda: sum(i.size for i, _, _ in near_pairs(uniform, uniform,
                                                     radius)))
    rng = np.random.default_rng(0)
    bundle = trivial_bundle(Stratification(
        [Stratum("bulk", 2, rng.uniform(-1.0, 1.0, (2000, 2)))]), 4)
    size = {"points": 2000, "rank": 4, "fiber_ambient": 4}
    cases["sym3_apply_2000"] = (
        size, lambda: apply_functor_to_bundle(SymPower(3), bundle))
    scratch = tempfile.mkdtemp()
    bundle_path = os.path.join(scratch, "bundle2000.json")
    write_json(bundle_to_json(bundle), bundle_path)

    def orthogonality_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            return svb.cli.main(["check", "orthogonality", "--functor",
                                 "wedge:2", "--bundle", bundle_path,
                                 "--no-timestamp"])

    cases["bundle_read_2000"] = (
        size, lambda: bundle_from_json(read_json(bundle_path)))
    cases["orthogonality_bundle_cli_2000"] = (size, orthogonality_cli)
    plane = Subspace(7, np.linalg.qr(rng.normal(size=(7, 3)))[0].T)
    cases["sym4_orthogonality_r7"] = (
        {"rank": 3, "ambient": 7},
        lambda: check_orthogonality(SymPower(4), plane))
    planes = np.linalg.qr(np.random.default_rng(0).normal(
        size=(150, 5, 2)))[0].swapaxes(1, 2)
    cases["sym2_orthogonality_150"] = (
        {"planes": 150, "rank": 2, "ambient": 5},
        lambda: orthogonality_residuals(SymPower(2), planes))
    cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (150, 2))
    image = apply_functor_to_bundle(
        WedgePower(2), SampledStratifiedBundle.from_stacks(
            Stratification([Stratum("bulk", 2, cloud)]), 5,
            {"bulk": planes}))
    image_path = os.path.join(scratch, "wedge2_image150.json")
    cases["write_wedge2_image_150"] = (
        {"points": 150, "rank": 1, "fiber_ambient": 10},
        lambda: write_json(bundle_to_json(image), image_path))
    maps = np.random.default_rng(0).normal(size=(150, 2, 4))
    cases["sym6_apply_150"] = (
        {"matrices": 150, "shape": [2, 4], "degree": 6},
        lambda: apply_to_map(SymPower(6), maps))
    action, _, _ = bundle_scalar_action(trivial_bundle(Stratification(
        [Stratum("bulk", 2, rng.uniform(-1.0, 1.0, (100, 2)))]), 2))
    cases["monoid_audits_300"] = (
        {"samples": len(action.sample_points), "ambient": action.ambient_dim,
         "t_grid": len(action.t_grid)},
        lambda: (audit_axioms(action), regularity_check(action)))
    cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (20_000, 3))
    scalar = MonoidActionSample.builtin("scalar", 3, cloud)
    table = MonoidActionSample.polynomial(
        [[{"powers": [1] + [int(c == j) for c in range(3)], "coef": 1.0}]
         for j in range(3)], 3, cloud)
    cases["monoid_audits_20000"] = (
        {"samples": 20_000, "ambient": 3, "t_grid": len(scalar.t_grid),
         "actions": ["builtin scalar", "polynomial t e"]},
        lambda: (audit_axioms(scalar), audit_axioms(table)))
    rotations = rotation_group(12)
    ring = ring_tangent_bundle(12, np.linspace(0.2, 1.0, 200).tolist())
    cases["equivariant_tilde_ring2401"] = (
        {"points": 2401, "order": 12, "fiber_ambient": 2},
        lambda: invariant_subbundle(rotations, ring, r_cc=0.25))
    # The orbit-type partition of the ring, redone by partition_by_label
    # alone: the two orbit types (the whole group at the centre, the
    # trivial group elsewhere) nest by size, so `below` compares sizes.
    ring_points = np.concatenate([st.points for st in ring.base.strata])
    part = orbit_type_partition(rotations, ring_points, r_cc=0.25)
    classes = {name.rsplit("_c", 1)[0]: label
               for name, label in part.label_of_stratum.items()}
    dims = {part.label_of_stratum[st.name]: st.dim
            for st in part.stratification.strata}
    cases["partition_ring2401"] = (
        {"points": 2401, "labels": len(classes), "r_cc": 0.25},
        lambda: partition_by_label(
            ring_points, part.labels, list(classes.items()),
            dim=lambda label, cloud: dims[label],
            below=lambda low, high: len(low) > len(high), r_cc=0.25))
    tilde_path = os.path.join(scratch, "tilde2401.json")
    tilde = invariant_subbundle(rotations, ring, r_cc=0.25)
    write_json(bundle_to_json(tilde), tilde_path)
    cases["equivariant_quotient_ring2401"] = (
        {"points": 2401, "order": 12, "fiber_ambient": 2},
        lambda: quotient_bundle(rotations, tilde, r_cc=0.25))
    cases["bundle_read_tilde2401"] = (
        {"points": 2401, "ranks": [0, 2], "fiber_ambient": 2},
        lambda: bundle_from_json(read_json(tilde_path)))
    cases["write_tilde_ring2401"] = (
        {"points": 2401, "ranks": [0, 2], "fiber_ambient": 2},
        lambda: write_json(bundle_to_json(tilde), tilde_path))
    rot48 = rotation_group(48)
    cases["group_table_rot48"] = (
        {"order": 48, "n": 2, "fiber_n": 2},
        lambda: FiniteGroupAction(2, rot48.elements,
                                  fiber_elements=rot48.fiber_elements))
    eye = np.eye(3)
    signed = FiniteGroupAction(3, [
        np.diag(signs) @ eye[list(perm)]
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1.0, -1.0), repeat=3)])
    cube = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0),
                                           repeat=3)))
    cases["orbit_types_cube125"] = (
        {"points": 125, "order": 48, "r_cc": 0.6},
        lambda: orbit_type_partition(signed, cube, r_cc=0.6))
    line = os.path.join(checkout, "fixtures", "line.json")

    def frontier_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            return svb.cli.main(["check", "frontier", "--stratification",
                                 line, "--no-timestamp"])

    axis = np.arange(-10, 11) * 0.1  # the workloads' grid, origin exact
    grid = VectorFieldSet(2, axis_scaling_fields_plane(0.1).fields,
                          [[x, y] for x in axis for y in axis])
    warm = {"cli_main_frontier_line": ({"verb": "check frontier"},
                                       frontier_cli),
            "foliation_bundle_grid441": (
                {"points": 441, "fields": 2},
                lambda: foliation_bundle(grid, r_cc=0.12)),
            # Timed cold above: its first call fills the sym:4 tables.
            "sym4_orthogonality_r7_warm": cases["sym4_orthogonality_r7"]}
    cases.update(warm)
    # Timed last: a kernel's allocations can shift the timings of the
    # kernels after it in this process, and earlier snapshots had none.
    scaling, base_points, _ = bundle_scalar_action(trivial_bundle(
        Stratification([Stratum("bulk", 2, np.random.default_rng(0).uniform(
            -1.0, 1.0, (400, 2)))]), 2))
    cases["monoid_reconstruct_1200"] = (
        {"samples": len(scaling.sample_points), "base_points": 400,
         "ambient": scaling.ambient_dim},
        lambda: reconstruct_bundle(scaling, base_points))
    out = {}
    for name, (size, call) in cases.items():
        if name in warm:
            call()
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
        out[name] = {"median_s": statistics.median(times),
                     "min_s": min(times), "repeats": REPEATS, "size": size}
    for path in (bundle_path, image_path, tilde_path):
        os.remove(path)
    os.rmdir(scratch)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.scaled:
        print(json.dumps(scaled_timings(checkout)))
        return 0
    if args.against:
        write(compare(os.path.abspath(args.against), checkout), args.out)
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
    write(snapshot, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
