"""Seeded inputs, operations and correctness oracles of the four workloads.

Each workload function writes its inputs into a work directory and
returns the operations of one pass, in order.  An operation is either
one in-process ``svb.cli.main(argv)`` call or, for
``local_finiteness_report`` (which has no verb), one direct call.  Every
operation carries the exit code it must return and a check of the
verdict fields that hold by construction of its input; no expectation
is taken from a recorded run.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import svb.bundle
import svb.functors
import svb.jsonio
import svb.strata
from svb import fixtures
from svb.bundle import SampledStratifiedBundle
from svb.foliation import VectorFieldSet
from svb.functors import SymPower
from svb.grassmann import Subspace
from svb.strata import Stratification, Stratum


class OracleError(Exception):
    """An operation's output contradicts how its input was built."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


@dataclass(frozen=True)
class Scale:
    cantor_levels: tuple[int, ...]
    tight_eps: float
    grid_step: float
    cluster_grid: tuple[int, int, int]
    cluster_points: int
    fibers: int
    plane_ambient: int
    cone_depth: int
    rings: tuple[tuple[int, int], ...]  # (group order, number of radii)
    # About the seconds of one pass of each workload on the seed code
    # (2-core x86-64, numpy 2.4 with OpenBLAS); sizes the timed loop.
    # Single samples on a shared machine scatter by a quarter, so the
    # sizes keep a pass near one second: a 20-second run then holds
    # 17 or more samples of every operation.  With an odd number of
    # operations per pass and more than ten passes, the median falls
    # among the samples of the middle operation and the tail among
    # those of the slowest, not on the edge between two operations.
    pass_s: dict


SCALES = {
    "full": Scale(cantor_levels=(3, 4, 5), tight_eps=5e-3, grid_step=0.1,
                  cluster_grid=(4, 4, 2), cluster_points=50, fibers=150,
                  plane_ambient=7, cone_depth=40, rings=((8, 10), (12, 10)),
                  pass_s={"corpus": 0.33, "cloud": 1.0, "fibers": 1.2,
                          "orbits": 0.85}),
    # Every workload in well under a second per pass, for the
    # benchmark's own smoke test.
    "tiny": Scale(cantor_levels=(2, 3, 4), tight_eps=1.5e-2, grid_step=0.25,
                  cluster_grid=(2, 2, 1), cluster_points=10, fibers=12,
                  plane_ambient=5, cone_depth=40, rings=((8, 2), (12, 2)),
                  pass_s={"corpus": 0.33, "cloud": 0.1, "fibers": 0.1,
                          "orbits": 0.1}),
}


@dataclass
class Op:
    """One operation of a pass.

    ``check(result, state)`` raises OracleError on a wrong verdict;
    ``state`` is a dict shared by the operations of one pass.  For a CLI
    operation ``result`` is the parsed report, for a direct call it is
    whatever ``call`` returned.
    """

    label: str
    verb: str
    check: Callable[[dict, dict], None]
    inputs: list[str]
    argv: Optional[list[str]] = None
    code: int = 0
    call: Optional[Callable[[], dict]] = None
    artifact: Optional[str] = None


INPUT_FLAGS = ("--stratification", "--bundle", "--subspace", "--scenario",
               "--group", "--action", "--fields")


def _verb(argv) -> str:
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


def cli_op(label, argv, code, check=None, artifact=None) -> Op:
    inputs = [argv[i + 1] for i, a in enumerate(argv[:-1])
              if a in INPUT_FLAGS]
    return Op(label=label, verb=_verb(argv),
              check=check or (lambda report, state: None), inputs=inputs,
              argv=list(argv) + ["--no-timestamp"], code=code,
              artifact=artifact)


def describe_input(path: str) -> dict:
    """Problem sizes of one svb/1 input file."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {"file": os.path.basename(path)}
    base = obj.get("base", obj)
    if isinstance(base.get("strata"), list):
        out["strata"] = len(base["strata"])
        out["points"] = sum(len(s["points"]) for s in base["strata"])
    if isinstance(obj.get("samples"), list):
        out["points"] = len(obj["samples"])
    if isinstance(obj.get("fibers"), list):
        out["fibers"] = len(obj["fibers"])
        out["fiber_ambient"] = obj["fiber_ambient"]
    if "basis" in obj:
        out["fiber_ambient"] = obj["ambient"]
    return out


def _write(work: str, name: str, obj: dict) -> str:
    path = os.path.join(work, name)
    svb.jsonio.write_json(obj, path)
    return path


def _checks(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


# -- corpus -------------------------------------------------------------------

def build_corpus(root, work, rng, scale) -> list[Op]:
    """The invocations of ``plan()`` in scripts/run_corpus.py, imported
    rather than copied, in the plan's order (tilde before the quotient
    that reads its artifact), on the committed fixtures."""
    path = os.path.join(root, "scripts", "run_corpus.py")
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [cli_op(f"{i:02d} {_verb(argv)}", argv, code)
            for i, (code, argv) in enumerate(module.plan(work))]


# -- cloud ---------------------------------------------------------------------

def cantor_frontier_fails(level: int, eps_touch: float) -> bool:
    """Closed-form frontier verdict of cantor_stratification(level).

    The deepest gaps are 3^-level wide and sampled at 1/4, 1/2 and 3/4 of
    their width, so a whole gap lies within 3/4 * 3^-level of either
    endpoint, an undeclared touching pair (a gap is not in the closure
    of a point).  Every other undeclared pair (shallower gaps, adjacent
    endpoints at distance >= 3^-level) needs a larger eps_touch, and the
    declared endpoint-to-gap pairs are covered whenever they touch,
    because they sit 3^-level / 4 apart and delta_cover >= eps_touch
    here.
    """
    return 0.75 * 3.0 ** -level <= eps_touch


def _shuffled_stratification(strat: Stratification, rng) -> dict:
    obj = svb.jsonio.stratification_to_json(strat)
    order = rng.permutation(len(obj["strata"]))
    obj["strata"] = [obj["strata"][i] for i in order]
    return obj


def _grid_fields(step: float, rng) -> dict:
    """{x d/dx, y d/dy} on the square grid of integer multiples of
    ``step`` in [-1, 1]^2 (so the origin is sampled exactly), samples in
    seeded order."""
    half = round(1.0 / step)
    axis = np.arange(-half, half + 1) * step
    samples = np.array([[x, y] for x in axis for y in axis])
    fields = fixtures.axis_scaling_fields_plane(step).fields
    obj = svb.jsonio.fields_to_json(VectorFieldSet(2, fields, samples))
    obj["samples"] = [obj["samples"][i]
                      for i in rng.permutation(len(samples))]
    return obj


def _grid_rank_table(step: float) -> dict[int, tuple[int, int]]:
    """rank -> (components, points per component) of the grid: the
    origin, four punctured half axes, four open quadrants."""
    half = round(1.0 / step)
    return {0: (1, 1), 1: (4, half), 2: (4, half * half)}


def _frontier_check(fails: bool):
    def check(report, state):
        frontier = _checks(report)["frontier"]
        expect(frontier["verdict"] == ("FAIL" if fails else "PASS"),
               f"frontier verdict {frontier['verdict']}")
        reasons = {v["reason"] for v in frontier["violations"]}
        expect(reasons <= {"undeclared"}, f"violation reasons {reasons}")
    return check


def _clusters(grid, points, rng) -> tuple[list, list]:
    """Balls of radius 0.25 around a jittered unit grid in R^3, plus a
    one-point stratum 0.01 away from one cluster sample.  The probe
    touches that cluster and nothing else, since clusters lie at least
    0.4 apart.  Returns the strata and the touching pair."""
    strata = []
    for c, (i, j, k) in enumerate(np.ndindex(*grid)):
        center = np.array([i, j, k], float) + rng.uniform(-0.05, 0.05, 3)
        direction = rng.normal(size=(points, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = 0.25 * rng.uniform(0.0, 1.0, (points, 1)) ** (1.0 / 3.0)
        strata.append(Stratum(f"cl{c:03d}", 3, center + radius * direction))
    host = strata[int(rng.integers(len(strata)))]
    offset = rng.normal(size=3)
    probe = host.points[int(rng.integers(len(host)))] \
        + 0.01 * offset / np.linalg.norm(offset)
    strata.append(Stratum("probe", 0, probe.reshape(1, 3)))
    return strata, ["probe", host.name]


def _cluster_check(pair: list, declared: bool):
    def check(report, state):
        frontier = _checks(report)["frontier"]
        expect(frontier["touching_pairs"] == [pair],
               f"touching pairs {frontier['touching_pairs']}")
        want = [] if declared else [(pair[0], pair[1], "undeclared")]
        got = [(v["S"], v["R"], v["reason"]) for v in frontier["violations"]]
        expect(got == want, f"violations {got}")
    return check


def _local_finiteness(path: str, level: int) -> Callable[[], dict]:
    def call():
        strat = svb.jsonio.stratification_from_json(
            svb.jsonio.read_json(path))
        report = svb.strata.local_finiteness_report(strat, radius=0.1,
                                                    threshold=3)
        return {"level": level, "passed": report.passed,
                "max_count": report.max_count,
                "flagged": [list(f) for f in report.flagged],
                "counts": [list(c) for c in report.counts]}
    return call


def _lf_check(result, state):
    """Flagged counts strictly increase with the Cantor level."""
    flagged = len(result["flagged"])
    previous = state.get("lf_flagged")
    if previous is not None:
        expect(flagged > previous,
               f"level {result['level']} flags {flagged} points, "
               f"the level before {previous}")
    expect(result["passed"] == (flagged == 0), "passed disagrees with flags")
    state["lf_flagged"] = flagged


def _stratify_check(step: float):
    table = _grid_rank_table(step)

    def check(report, state):
        checks = _checks(report)
        seen: dict[int, list] = {}
        for s in checks["stratify"]["strata"]:
            rank = int(s["name"][4:s["name"].index("_")])
            expect(s["dim"] == rank, f"stratum {s['name']} has dim {s['dim']}")
            seen.setdefault(rank, []).append(s["points"])
        want = {r: [n] * c for r, (c, n) in table.items()}
        expect(seen == want, f"rank classes {seen}")
        expect(checks["frontier-audit"]["verdict"] == "PASS",
               "grid frontier audit failed")
    return check


def build_cloud(root, work, rng, scale) -> list[Op]:
    ops = []
    lf_ops = []
    for level in scale.cantor_levels:
        path = _write(work, f"cantor{level}.json", _shuffled_stratification(
            fixtures.cantor_stratification(level), rng))
        fails = cantor_frontier_fails(level, 1e-2)  # 1e-2 x unit diameter
        ops.append(cli_op(
            f"frontier cantor{level}",
            ["check", "frontier", "--stratification", path],
            2 if fails else 0, _frontier_check(fails)))
        if level != scale.cantor_levels[0]:
            # Flips the verdict from PASS to FAIL at the deepest level.
            fails = cantor_frontier_fails(level, scale.tight_eps)
            ops.append(cli_op(
                f"frontier cantor{level} tight",
                ["check", "frontier", "--stratification", path,
                 "--eps-touch", repr(scale.tight_eps),
                 "--delta-cover", "1e-2"],
                2 if fails else 0, _frontier_check(fails)))
        lf_ops.append(Op(label=f"local finiteness cantor{level}",
                         verb="local_finiteness_report", check=_lf_check,
                         inputs=[path], call=_local_finiteness(path, level)))
    ops.extend(lf_ops)

    grid = _write(work, "grid.json", _grid_fields(scale.grid_step, rng))
    ops.append(cli_op(
        "foliation stratify grid",
        ["foliation", "stratify", "--fields", grid,
         "--r-cc", repr(1.2 * scale.grid_step)],
        0, _stratify_check(scale.grid_step)))

    # Same clouds twice: declaring the touching pair passes, leaving it
    # out leaves exactly one undeclared touching pair.
    strata, pair = _clusters(scale.cluster_grid, scale.cluster_points, rng)
    for declared in (True, False):
        name = "clusters_pass" if declared else "clusters_fail"
        path = _write(work, f"{name}.json", svb.jsonio.stratification_to_json(
            Stratification(strata, [tuple(pair)] if declared else [])))
        ops.append(cli_op(
            f"frontier {name}",
            ["check", "frontier", "--stratification", path,
             "--eps-touch", "0.05", "--delta-cover", "0.05"],
            0 if declared else 2, _cluster_check(pair, declared)))
    return ops


# -- fibers --------------------------------------------------------------------

# Rank and ambient dimension of F(R^k), in closed form.
FUNCTOR_DIMS = {
    "sym:2": lambda k: math.comb(k + 1, 2),
    "sym:3": lambda k: math.comb(k + 2, 3),
    "wedge:2": lambda k: math.comb(k, 2),
    "tensor:2": lambda k: k * k,
    "compose(wedge:2,sum(id,const:1))": lambda k: math.comb(k + 1, 2),
}


def _orthonormal_rows(rng, rank: int, ambient: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(ambient, rank)))
    return q.T


def _point_base(n: int, rng) -> Stratification:
    return Stratification([Stratum("bulk", 2,
                                   rng.uniform(-1.0, 1.0, size=(n, 2)))])


def _apply_check(spec: str, rank: int, ambient: int):
    def check(report, state):
        checks = _checks(report)
        expect(checks["validate-input"]["verdict"] == "PASS", "input invalid")
        out = checks["validate-output"]
        expect(out["verdict"] == "PASS", "image fails validation")
        want_rank = FUNCTOR_DIMS[spec](rank)
        want_ambient = FUNCTOR_DIMS[spec](ambient)
        expect(out["ranks"] == {"bulk": want_rank},
               f"{spec} image ranks {out['ranks']}, want {want_rank}")
        expect(out["fiber_ambient"] == want_ambient,
               f"{spec} image ambient {out['fiber_ambient']}")
    return check


def _all_pass(count: int):
    def check(report, state):
        expect(len(report["checks"]) == count,
               f"{len(report['checks'])} checks, want {count}")
        bad = [c["name"] for c in report["checks"] if c["verdict"] != "PASS"]
        expect(not bad, f"failing checks {bad[:3]}")
    return check


def _cone_check(variant: str):
    def check(report, state):
        checks = _checks(report)
        expect(checks["validate-bundle"]["verdict"] == "PASS",
               "cone bundle invalid")
        verdict = checks["whitney-a"]
        if variant == "pass":
            expect(verdict["verdict"] == "PASS", "pass cone did not PASS")
        else:
            # The origin fiber is orthogonal to the limit line.
            expect(verdict["verdict"] == "FAIL", "fail cone did not FAIL")
            expect(abs(verdict["residual"] - 1.0) <= 1e-9,
                   f"fail cone residual {verdict['residual']}")
    return check


def build_fibers(root, work, rng, scale) -> list[Op]:
    n = scale.fibers
    base = _point_base(n, rng)
    fibers = {("bulk", i): Subspace(5, _orthonormal_rows(rng, 2, 5))
              for i in range(n)}
    random_path = _write(work, "random.json", svb.jsonio.bundle_to_json(
        SampledStratifiedBundle(base, 5, fibers, {"bulk": 2})))
    trivial_path = _write(work, "trivial.json", svb.jsonio.bundle_to_json(
        fixtures.trivial_bundle(_point_base(n, rng), 4)))
    ambient = scale.plane_ambient
    plane = {"schema": svb.jsonio.SCHEMA}
    plane.update(Subspace(ambient, _orthonormal_rows(rng, 3, ambient))
                 .to_json())
    plane_path = _write(work, "plane.json", plane)

    ops = []
    for spec in ("sym:3", "wedge:2", "tensor:2",
                 "compose(wedge:2,sum(id,const:1))"):
        out = os.path.join(work, f"image_{len(ops)}.json")
        ops.append(cli_op(f"apply-functor {spec} random",
                          ["apply-functor", "--functor", spec,
                           "--bundle", random_path, "--out", out],
                          0, _apply_check(spec, 2, 5), artifact=out))
    out = os.path.join(work, "image_trivial.json")
    ops.append(cli_op("apply-functor sym:3 trivial",
                      ["apply-functor", "--functor", "sym:3",
                       "--bundle", trivial_path, "--out", out],
                      0, _apply_check("sym:3", 4, 4), artifact=out))
    ops.append(cli_op("orthogonality sym:4 plane",
                      ["check", "orthogonality", "--functor", "sym:4",
                       "--subspace", plane_path], 0, _all_pass(1)))
    ops.append(cli_op("orthogonality sym:2 random",
                      ["check", "orthogonality", "--functor", "sym:2",
                       "--bundle", random_path], 0, _all_pass(n)))
    scenario = _write(work, "cone_scenario.json", svb.jsonio.scenario_to_json(
        fixtures.cone_scenario(scale.cone_depth)))
    for variant in ("pass", "fail"):
        path = _write(work, f"cone_{variant}.json", svb.jsonio.bundle_to_json(
            fixtures.cone_bundle(variant, scale.cone_depth)))
        ops.append(cli_op(f"whitney-a cone {variant}",
                          ["check", "whitney-a", "--bundle", path,
                           "--scenario", scenario],
                          0 if variant == "pass" else 2,
                          _cone_check(variant)))
    return ops


# -- orbits --------------------------------------------------------------------

def _ring_radii(count: int, rng) -> list[float]:
    """One seeded radius in each of ``count`` equal slices of [0.2, 1]."""
    slots = np.arange(count) + rng.uniform(0.1, 0.9, count)
    return (0.2 + 0.8 * slots / count).tolist()


def _orbit_rank_check(suffix: str, name: str):
    """The origin is fixed by the whole rotation group, so its invariant
    fiber is 0 and its class sorts first (largest stabilizer); every
    other sample has a trivial stabilizer and keeps its whole plane."""
    def check(report, state):
        checks = _checks(report)
        ranks = checks[name]["ranks"]
        origin = f"type0_c0{suffix}"
        expect(ranks.get(origin) == 0, f"origin stratum rank {ranks}")
        rest = {k: v for k, v in ranks.items() if k != origin}
        expect(rest and set(rest.values()) == {2}, f"generic ranks {ranks}")
        if suffix:
            expect(checks["tangent-comparison"]["isomorphic"] is True,
                   "quotient not isomorphic to the stratified tangent")
    return check


def _grid_bundle_check(step: float):
    table = _grid_rank_table(step)

    def check(report, state):
        ranks = _checks(report)["validate-bundle"]["ranks"]
        count: dict[int, int] = {}
        for name, rank in ranks.items():
            expect(name.startswith(f"rank{rank}_"), f"{name} has rank {rank}")
            count[rank] = count.get(rank, 0) + 1
        expect(count == {r: c for r, (c, _) in table.items()},
               f"rank components {count}")
    return check


# Single-linkage radius splitting each orbit-type class into strata; the
# rank tables checked above hold whatever the number of components.
ORBIT_R_CC = "0.25"


def build_orbits(root, work, rng, scale) -> list[Op]:
    ops = []
    for order, count in scale.rings:
        bundle = _write(work, f"ring{order}.json", svb.jsonio.bundle_to_json(
            fixtures.ring_tangent_bundle(order, _ring_radii(count, rng))))
        group = _write(work, f"rot{order}.json", svb.jsonio.group_to_json(
            fixtures.rotation_group(order)))
        tilde = os.path.join(work, f"tilde{order}.json")
        quotient = os.path.join(work, f"quotient{order}.json")
        ops.append(cli_op(f"tilde rot{order}",
                          ["equivariant", "tilde", "--group", group,
                           "--bundle", bundle, "--r-cc", ORBIT_R_CC,
                           "--out", tilde],
                          0, _orbit_rank_check("", "invariant-subbundle"),
                          artifact=tilde))
        ops.append(cli_op(f"quotient rot{order}",
                          ["equivariant", "quotient", "--group", group,
                           "--bundle", tilde, "--r-cc", ORBIT_R_CC,
                           "--out", quotient],
                          0, _orbit_rank_check("/G", "quotient-bundle"),
                          artifact=quotient))
    grid = _write(work, "grid.json", _grid_fields(scale.grid_step, rng))
    ops.append(cli_op("foliation bundle grid",
                      ["foliation", "bundle", "--fields", grid,
                       "--r-cc", repr(1.2 * scale.grid_step)],
                      0, _grid_bundle_check(scale.grid_step)))
    return ops


# -- baselines ------------------------------------------------------------------
# Kernel timings recorded in ROADMAP.md (2-core x86-64), taken again by
# the traced run at their original sizes: name -> (workload, seconds
# recorded, kernel, what is timed and why the two can differ).

def _timed(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def _cantor_l6_frontier(rng) -> float:
    return _timed(svb.strata.check_frontier, fixtures.cantor_stratification(6))


def _sym3_apply(rng) -> float:
    bundle = fixtures.trivial_bundle(_point_base(2000, rng), 4)
    return _timed(svb.bundle.apply_functor_to_bundle, SymPower(3), bundle)


def _sym4_orthogonality(rng) -> float:
    plane = Subspace(7, _orthonormal_rows(rng, 3, 7))
    return _timed(svb.functors.check_orthogonality, SymPower(4), plane)


def _stratification_3200(rng) -> float:
    strata, _ = _clusters((4, 4, 2), 100, rng)
    return _timed(Stratification, strata)


BASELINES = {
    "cantor_l6_frontier": (
        "cloud", 0.35, _cantor_l6_frontier,
        "check_frontier on cantor_stratification(6), 191 strata"),
    "sym3_apply": (
        "fibers", 0.93, _sym3_apply,
        "apply_functor_to_bundle(sym:3) on a trivial rank-4 bundle over "
        "2,000 points"),
    "sym4_orthogonality": (
        "fibers", 1.18, _sym4_orthogonality,
        "check_orthogonality(sym:4) on a 3-plane in R^7, after the "
        "workload has run; the first such call in a fresh process has "
        "measured 1.02 s against 0.08 s warm, so the baseline most likely "
        "timed a cold call"),
    "stratification_3200": (
        "cloud", 0.19, _stratification_3200,
        "Stratification of 32 clusters of 100 points in R^3 plus a probe "
        "point; the baseline's stratum layout was not recorded, and "
        "construction cost grows with the number of stratum pairs"),
}


WORKLOADS = {
    "corpus": build_corpus,
    "cloud": build_cloud,
    "fibers": build_fibers,
    "orbits": build_orbits,
}
