#!/usr/bin/env python3
"""Compare two svb checkouts run by run, and record the comparison.

    python3 scripts/bench_snapshot.py --out pairs.json --against PARENT

The checkout (``--checkout``, by default the one holding this script) is
compared with PARENT pair by pair, the side that runs first alternating
from pair to pair (``pair_order``).  For each workload and each of its
``PAIR_SEEDS`` it runs perfbench once in each, ``SECONDS`` each.  Per
workload the file holds both sides' runs (``runs``) and, per end-to-end
metric of ``BENCHMARK.json`` (only read), ``metrics``: each side's median
and interquartile range (IQR), ``ratio`` (the checkout's median over
PARENT's), ``wins`` (the seeds on which the checkout did better, by the
metric's ``better``) out of ``pairs``, the ``bound``, ``beyond_bound``
(the checkout's median is worse by more than the bound) and ``resolved``
(the medians differ by more than PARENT's IQR).  Under ``scaled`` it
holds, per kernel of ``KERNELS`` (run at sizes the workloads hide),
``KERNEL_ROUNDS`` pairs of timings and the same summary of their median
seconds, without a bound.  The context holds each side's (commit, numpy,
BLAS and its threads, nproc), plus the ``MALLOC_*`` environment that
both ran under.

Every measurement runs in a fresh process that imports svb from its
checkout's ``src``, so an older commit only needs its checkout.  A kernel
is timed by this script's hidden ``--kernel NAME`` mode: ``REPEATS``
timings, their median and minimum, and the problem size, in a process
that builds only that kernel's inputs, so that no other kernel's
allocations run before it.  To record one checkout alone, run an A/A
comparison, ``--against`` the checkout itself; its IQRs are also the
noise floor that a claimed gain must clear.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus", "cloud", "fibers", "orbits")
METRICS = ("setup_s", "ops_per_s", "op_s.p50", "op_s.tail", "peak_rss_mb")
CONTEXT_KEYS = ("commit", "numpy", "python", "blas", "nproc", "affinity")
SECONDS = 20.0  # length of each perfbench run
REPEATS = 5  # timings of each scaled kernel
KERNEL_ROUNDS = 5  # --against: fresh-process pairs of each scaled kernel
# The scaled kernels of ``scaled_timings``.
KERNELS = tuple(
    [f"cantor_l{level}_{kind}" for level in (6, 7, 8, 9)
     for kind in ("frontier", "local_finiteness")]
    + ["stratification_3200", "frontier_clusters3200", "frontier_grid400x4",
       "near_pairs_uniform100k", "sym3_apply_2000", "bundle_read_2000",
       "orthogonality_bundle_cli_2000", "sym4_orthogonality_r7",
       "sym2_orthogonality_150", "write_wedge2_image_150", "sym6_apply_150",
       "monoid_audits_300", "monoid_audits_20000",
       "equivariant_tilde_ring2401", "partition_ring2401",
       "equivariant_quotient_ring2401", "bundle_read_tilde2401",
       "write_tilde_ring2401", "group_table_rot48", "orbit_types_cube125",
       "cli_main_frontier_line", "foliation_bundle_grid441",
       "sym4_orthogonality_r7_warm", "monoid_reconstruct_1200",
       "point_permutations_rot48", "stratification_chain400"])
# Seeds of the --against pairs, ten where run-to-run spread is widest.
PAIR_SEEDS = {"corpus": tuple(range(81, 86)), "cloud": tuple(range(81, 86)),
              "fibers": tuple(range(81, 86)), "orbits": tuple(range(81, 91))}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="record to write")
    parser.add_argument("--checkout", default=HERE,
                        help="svb checkout to measure (default: this one)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="PARENT",
                      help="compare with the svb checkout PARENT, "
                      "alternating the sides seed by seed")
    mode.add_argument("--kernel", choices=KERNELS,
                      help=argparse.SUPPRESS)  # the child: one kernel's timing
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
            "beyond_bound": None if spec["bound"] is None
            else sign * (p_median - c_median) > spec["bound"] * abs(p_median),
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


def kernel_child(checkout, name):
    """The timing of the scaled kernel ``name`` in ``checkout``, from a
    fresh process that builds only that kernel's inputs."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--kernel", name,
         "--out", os.devnull, "--checkout", checkout],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare_kernels(parent, checkout, run=kernel_child):
    """Each kernel of ``KERNELS`` timed by ``run(checkout, name)`` in both
    checkouts over ``KERNEL_ROUNDS`` rounds, the side that runs first
    alternating from round to round: per kernel, both sides' runs and the
    ``summarize`` of their median seconds, without a bound."""
    where = {"parent": parent, "change": checkout}
    spec = [{"name": "median_s", "better": "lower", "bound": None}]
    out = {}
    for name in KERNELS:
        runs = {"parent": [], "change": []}
        for k, sides in pair_order(range(KERNEL_ROUNDS)):
            for side in sides:
                runs[side].append(dict(run(where[side], name), round=k,
                                       first=side == sides[0]))
        m = out[name] = dict(summarize(runs, spec)["median_s"], runs=runs,
                             size=runs["change"][0]["size"])
        print(f"{name}: {m['parent']['median']:.4g} [{m['parent']['iqr']:.2g}]"
              f" -> {m['change']['median']:.4g} [{m['change']['iqr']:.2g}] s,"
              f" wins {m['wins']}/{m['pairs']}", file=sys.stderr)
    return out


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


def scaled_timings(checkout, name):
    """Median and minimum seconds of ``REPEATS`` timings of the scaled
    kernel ``name``, and its problem size, in this process, which builds
    only that kernel's inputs."""
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    import numpy as np

    import svb
    import svb.cli
    from svb.bundle import (SampledStratifiedBundle, apply_functor_to_bundle,
                            trivial_bundle)
    from svb.config import TOL_CHECK
    from svb.equivariant import (FiniteGroupAction, _point_permutations,
                                 invariant_subbundle, orbit_type_partition,
                                 quotient_bundle)
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
    scratch = tempfile.mkdtemp()
    bundle_path = os.path.join(scratch, "bundle2000.json")
    image_path = os.path.join(scratch, "wedge2_image150.json")
    tilde_path = os.path.join(scratch, "tilde2401.json")
    # Builders: each returns a kernel's (size, call), building only the
    # inputs it needs, each once.
    cases = {}

    def cantor(level, kernel):
        s = cantor_stratification(level)
        return ({"points": int(sum(len(st) for st in s.strata)),
                 "strata": len(s.strata)}, lambda: kernel(s))

    for level in (6, 7, 8, 9):
        cases[f"cantor_l{level}_frontier"] = functools.partial(
            cantor, level, check_frontier)
        cases[f"cantor_l{level}_local_finiteness"] = functools.partial(
            cantor, level, lambda s: local_finiteness_report(s, 0.1,
                                                             threshold=3))
    clusters = functools.cache(lambda: _clusters(np.random.default_rng(0)))
    cases["stratification_3200"] = lambda: (
        {"points": 3200, "strata": len(clusters())},
        lambda strata=clusters(): Stratification(strata))

    def stratification_chain400():
        """A deep declared order: one-point strata at 0, ..., 399 on the
        line, each in the closure of the next."""
        strata = [Stratum(f"p{k:03d}", 0, [[float(k)]]) for k in range(400)]
        chain = [(a.name, b.name) for a, b in zip(strata, strata[1:])]
        return ({"strata": 400, "declared_pairs": 399},
                lambda: Stratification(strata, chain))

    cases["stratification_chain400"] = stratification_chain400
    cases["frontier_clusters3200"] = lambda: (
        {"points": 3200, "strata": len(clusters()), "eps_touch": 0.05},
        lambda s=Stratification(clusters()): check_frontier(s, 0.05, 0.05))

    def frontier_grid400x4():
        grid = np.stack(np.meshgrid(np.arange(40), np.arange(40),
                                    indexing="ij"), axis=-1).reshape(-1, 2)
        grid = grid * 0.01
        s = Stratification([Stratum(f"g{k:03d}", 0, grid[4 * k:4 * k + 4])
                            for k in range(400)])
        return ({"points": 1600, "strata": 400, "eps_touch": 0.05},
                lambda: check_frontier(s, 0.05, 0.05))

    def near_pairs_uniform100k():
        uniform = np.random.default_rng(0).random((100_000, 3))
        radius = (10 / (len(uniform) * 4 / 3 * np.pi)) ** (1 / 3)
        return ({"points": 100_000, "ambient": 3, "radius": radius},
                lambda: sum(i.size for i, _, _ in near_pairs(uniform, uniform,
                                                             radius)))

    cases["frontier_grid400x4"] = frontier_grid400x4
    cases["near_pairs_uniform100k"] = near_pairs_uniform100k

    @functools.cache
    def drawn():
        """The draws of one generator, in order: a 2,000-point square, a
        random 3-plane in R^7 and the 100 base points of an action."""
        rng = np.random.default_rng(0)
        bulk = rng.uniform(-1.0, 1.0, (2000, 2))
        plane = Subspace(7, np.linalg.qr(rng.normal(size=(7, 3)))[0].T)
        return bulk, plane, rng.uniform(-1.0, 1.0, (100, 2))

    bulk = functools.cache(lambda: trivial_bundle(Stratification(
        [Stratum("bulk", 2, drawn()[0])]), 4))
    size2000 = {"points": 2000, "rank": 4, "fiber_ambient": 4}
    cases["sym3_apply_2000"] = lambda: (
        size2000, lambda b=bulk(): apply_functor_to_bundle(SymPower(3), b))

    @functools.cache
    def bundle_file():
        write_json(bundle_to_json(bulk()), bundle_path)
        return bundle_path

    def orthogonality_bundle_cli_2000():
        argv = ["check", "orthogonality", "--functor", "wedge:2",
                "--bundle", bundle_file(), "--no-timestamp"]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return svb.cli.main(argv)
        return size2000, call

    cases["bundle_read_2000"] = lambda: (
        size2000, lambda path=bundle_file(): bundle_from_json(read_json(path)))
    cases["orthogonality_bundle_cli_2000"] = orthogonality_bundle_cli_2000
    cases["sym4_orthogonality_r7"] = lambda: (
        {"rank": 3, "ambient": 7},
        lambda plane=drawn()[1]: check_orthogonality(SymPower(4), plane))
    planes = functools.cache(lambda: np.linalg.qr(np.random.default_rng(
        0).normal(size=(150, 5, 2)))[0].swapaxes(1, 2))
    cases["sym2_orthogonality_150"] = lambda: (
        {"planes": 150, "rank": 2, "ambient": 5},
        lambda p=planes(): orthogonality_residuals(SymPower(2), p))

    def write_wedge2_image_150():
        cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (150, 2))
        image = apply_functor_to_bundle(
            WedgePower(2), SampledStratifiedBundle.from_stacks(
                Stratification([Stratum("bulk", 2, cloud)]), 5,
                {"bulk": planes()}))
        return ({"points": 150, "rank": 1, "fiber_ambient": 10},
                lambda: write_json(bundle_to_json(image), image_path))

    def monoid_audits_300():
        action, _, _ = bundle_scalar_action(trivial_bundle(Stratification(
            [Stratum("bulk", 2, drawn()[2])]), 2))
        return ({"samples": len(action.sample_points),
                 "ambient": action.ambient_dim, "t_grid": len(action.t_grid)},
                lambda: (audit_axioms(action), regularity_check(action)))

    def monoid_audits_20000():
        cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (20_000, 3))
        scalar = MonoidActionSample.builtin("scalar", 3, cloud)
        table = MonoidActionSample.polynomial(
            [[{"powers": [1] + [int(c == j) for c in range(3)], "coef": 1.0}]
             for j in range(3)], 3, cloud)
        return ({"samples": 20_000, "ambient": 3,
                 "t_grid": len(scalar.t_grid),
                 "actions": ["builtin scalar", "polynomial t e"]},
                lambda: (audit_axioms(scalar), audit_axioms(table)))

    cases["write_wedge2_image_150"] = write_wedge2_image_150
    cases["sym6_apply_150"] = lambda: (
        {"matrices": 150, "shape": [2, 4], "degree": 6},
        lambda maps=np.random.default_rng(0).normal(size=(150, 2, 4)):
        apply_to_map(SymPower(6), maps))
    cases["monoid_audits_300"] = monoid_audits_300
    cases["monoid_audits_20000"] = monoid_audits_20000
    ring = functools.cache(lambda: (rotation_group(12), ring_tangent_bundle(
        12, np.linspace(0.2, 1.0, 200).tolist())))
    size_ring = {"points": 2401, "order": 12, "fiber_ambient": 2}
    cases["equivariant_tilde_ring2401"] = lambda: (
        size_ring, lambda r=ring(): invariant_subbundle(*r, r_cc=0.25))

    def partition_ring2401():
        # The orbit-type partition of the ring, redone by
        # partition_by_label alone: the two orbit types (the whole group
        # at the centre, the trivial group elsewhere) nest by size, so
        # `below` compares sizes.
        rotations, bundle = ring()
        points = np.concatenate([st.points for st in bundle.base.strata])
        part = orbit_type_partition(rotations, points, r_cc=0.25)
        classes = {name.rsplit("_c", 1)[0]: label
                   for name, label in part.label_of_stratum.items()}
        dims = {part.label_of_stratum[st.name]: st.dim
                for st in part.stratification.strata}
        return ({"points": 2401, "labels": len(classes), "r_cc": 0.25},
                lambda: partition_by_label(
                    points, part.labels, list(classes.items()),
                    dim=lambda label, cloud: dims[label],
                    below=lambda low, high: len(low) > len(high), r_cc=0.25))

    @functools.cache
    def tilde():
        """The invariant subbundle of the ring, also written to
        ``tilde_path``."""
        bundle = invariant_subbundle(*ring(), r_cc=0.25)
        write_json(bundle_to_json(bundle), tilde_path)
        return bundle

    cases["partition_ring2401"] = partition_ring2401
    cases["equivariant_quotient_ring2401"] = lambda: (
        size_ring, lambda g=ring()[0], t=tilde(): quotient_bundle(
            g, t, r_cc=0.25))
    size_tilde = {"points": 2401, "ranks": [0, 2], "fiber_ambient": 2}

    def bundle_read_tilde2401():
        tilde()  # written to tilde_path
        return size_tilde, lambda: bundle_from_json(read_json(tilde_path))

    cases["bundle_read_tilde2401"] = bundle_read_tilde2401
    cases["write_tilde_ring2401"] = lambda: (
        size_tilde, lambda t=tilde(): write_json(bundle_to_json(t),
                                                 tilde_path))
    cases["group_table_rot48"] = lambda: (
        {"order": 48, "n": 2, "fiber_n": 2},
        lambda g=rotation_group(48): FiniteGroupAction(
            2, g.elements, fiber_elements=g.fiber_elements))

    def orbit_types_cube125():
        eye = np.eye(3)
        signed = FiniteGroupAction(3, [
            np.diag(signs) @ eye[list(perm)]
            for perm in itertools.permutations(range(3))
            for signs in itertools.product((1.0, -1.0), repeat=3)])
        cube = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0),
                                               repeat=3)))
        return ({"points": 125, "order": 48, "r_cc": 0.6},
                lambda: orbit_type_partition(signed, cube, r_cc=0.6))

    def frontier_cli():
        line = os.path.join(checkout, "fixtures", "line.json")
        with contextlib.redirect_stdout(io.StringIO()):
            return svb.cli.main(["check", "frontier", "--stratification",
                                 line, "--no-timestamp"])

    def foliation_bundle_grid441():
        axis = np.arange(-10, 11) * 0.1  # the workloads' grid, origin exact
        grid = VectorFieldSet(2, axis_scaling_fields_plane(0.1).fields,
                              [[x, y] for x in axis for y in axis])
        return ({"points": 441, "fields": 2},
                lambda: foliation_bundle(grid, r_cc=0.12))

    cases["orbit_types_cube125"] = orbit_types_cube125
    warm = {"cli_main_frontier_line": lambda: ({"verb": "check frontier"},
                                               frontier_cli),
            "foliation_bundle_grid441": foliation_bundle_grid441,
            # Timed cold above: its first call fills the sym:4 tables.
            "sym4_orthogonality_r7_warm": cases["sym4_orthogonality_r7"]}
    cases.update(warm)

    def monoid_reconstruct_1200():
        scaling, base_points, _ = bundle_scalar_action(trivial_bundle(
            Stratification([Stratum("bulk", 2, np.random.default_rng(
                0).uniform(-1.0, 1.0, (400, 2)))]), 2))
        return ({"samples": len(scaling.sample_points), "base_points": 400,
                 "ambient": scaling.ambient_dim},
                lambda: reconstruct_bundle(scaling, base_points))

    def point_permutations_rot48():
        g = rotation_group(48)
        pts = ring_tangent_bundle(
            48, np.linspace(0.2, 1.0, 50).tolist()).base._cloud
        return ({"points": len(pts), "order": 48},
                lambda: _point_permutations(g, pts, TOL_CHECK))

    cases["monoid_reconstruct_1200"] = monoid_reconstruct_1200
    cases["point_permutations_rot48"] = point_permutations_rot48
    size, call = cases[name]()
    if name in warm:
        call()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    shutil.rmtree(scratch)
    return {"median_s": statistics.median(times), "min_s": min(times),
            "repeats": REPEATS, "size": size}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.kernel:
        print(json.dumps(scaled_timings(checkout, args.kernel)))
        return 0
    parent = os.path.abspath(args.against)
    pairs = compare(parent, checkout)
    pairs["scaled"] = compare_kernels(parent, checkout)
    pairs["context"]["kernel_rounds"] = KERNEL_ROUNDS
    write(pairs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
