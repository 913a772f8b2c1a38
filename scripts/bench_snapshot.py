#!/usr/bin/env python3
"""Record a performance snapshot of an svb checkout as ``BENCH_<n>.json``.

    python3 scripts/bench_snapshot.py --out BENCH_1.json [--checkout DIR]

Runs the checkout's ``perfbench/run.py`` for every workload over seeds
1-3, 20 s each, and stores, per workload, the median and interquartile range of each
end-to-end metric together with the run context (commit, numpy, BLAS
and its threads, nproc).  It also times kernels at the sizes the
benchmark's inputs hide: ``check_frontier`` and
``local_finiteness_report`` on the Cantor stratifications of levels 6-9,
the construction of a 3,200-point ``Stratification`` (32 clusters in
R^3) and ``check_frontier`` on it at ``eps_touch = delta_cover = 0.05``,
``check_frontier`` at that threshold on the 40 x 40 grid of spacing 0.01
cut in row-major order into 400 four-sample strata (every stratum live,
8,002 touching pairs),
every chunk of ``near_pairs`` on 100,000 seeded uniform points of the
unit cube in R^3 at the radius that gives about ten neighbours per
point, ``apply_functor_to_bundle`` with sym:3 on a rank-4 trivial bundle
over 2,000 points, reading that bundle's file (``bundle_from_json`` of
``read_json``) and checking it in process with ``check orthogonality
--bundle --functor wedge:2``, ``check_orthogonality`` with sym:4 on a
3-plane in R^7, ``orthogonality_residuals`` with sym:2 on 150 random
2-planes in R^5, ``apply_to_map`` with sym:6 on 150 random 2 x 4
matrices, and ``audit_axioms`` plus ``regularity_check`` on the
scalar action (``bundle_scalar_action``, 300 samples in R^4) of a
rank-2 trivial bundle over 100 points of the plane, five times each.
``audit_axioms`` alone is timed on 20,000 uniform samples in R^3 with
the default time grid, for the builtin ``scalar`` action and for the
same action as a polynomial table, one call of each per timing.
``invariant_subbundle`` of ``rotation_group(12)`` on its tangent bundle
over 200 rings (``ring_tangent_bundle``, 2,401 points) is timed five
times as well, and so are ``quotient_bundle`` of that group on the
resulting tilde bundle, ``partition_by_label`` alone on that ring's
points and orbit types at ``r_cc`` 0.25 and reading the file of the
tilde bundle (fibers of ranks 0 and 2).  Writing bundle files
(``write_json`` of ``bundle_to_json``) is timed five times on that tilde
bundle and on the wedge:2 image of 150 random 2-planes in R^5, and so
is building ``FiniteGroupAction`` of ``rotation_group(48)`` with its
fiber action (the product table).  Three calls are timed warm,
each right after one untimed call of its own, five times each: one
in-process ``cli.main`` call of ``check frontier`` on
``fixtures/line.json``, ``foliation_bundle`` on the 441-point grid of
the cloud and orbits workloads, and the sym:4 ``check_orthogonality``
again, whose first timing above includes filling its index and weight
tables.  Seeds, run length and repeats are fixed, so that any two
snapshots compare like with like.  Each
measurement runs in a fresh process that imports svb from the
checkout's ``src``, so a snapshot of an older commit only needs its
checkout; ``--checkout`` defaults to the one holding this script.
"""

import argparse
import contextlib
import io
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
    from svb.monoid import MonoidActionSample, audit_axioms, regularity_check
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
