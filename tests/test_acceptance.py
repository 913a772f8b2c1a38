"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with ``pytest -s``).  Tolerances are pinned here and nowhere
else; do not loosen them.

Run: pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest

from svb.bundle import (
    validate_bundle,
    whitney_a_check,
)
from svb.cli import main as cli_main
from svb.fixtures import (
    bundle_scalar_action,
    cantor_stratification,
    cone_bundle,
    cone_scenario,
    line_foliation_scenario,
    line_scaling_fields,
    ring_tangent_bundle,
    sign_flip_tangent_bundle,
    step_rank_bundle,
    trivial_bundle,
    line_stratification,
)
from svb.foliation import foliation_bundle
from svb.functors import (
    SymPower,
    TensorPower,
    WedgePower,
    apply_to_map,
    check_orthogonality,
    dim_map,
    parse_functor,
)
from svb.bundle import apply_functor_to_bundle
from svb.grassmann import Subspace, gap_distance, opnorms, span
from svb.jsonio import bundle_from_json, read_json
from svb.monoid import (
    MonoidActionSample,
    reconstruct_bundle,
    regularity_check,
)
from svb.strata import local_finiteness_report

from helpers import circle_rank_table

PRIMITIVES = [factory(n)
              for factory in (WedgePower, SymPower, TensorPower)
              for n in (1, 2, 3)]

COMPOSITES = [parse_functor(spec) for spec in (
    "sum(id,const:1)", "compose(wedge:2,sum(id,const:1))",
    "sum(wedge:2,sym:2)", "compose(sym:2,wedge:2)",
    "compose(wedge:2,tensor:2)")]

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def random_subspace(rng, ambient, dim):
    if dim == 0:
        return Subspace.zero(ambient)
    return span(rng.standard_normal((dim, ambient)), ambient)


def test_criterion_1_orthogonality_suite():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 0.0
    for functor in PRIMITIVES:
        for _ in range(500):
            ambient = int(rng.integers(1, 7))
            dim = int(rng.integers(0, ambient + 1))
            w = random_subspace(rng, ambient, dim)
            ok, residual = check_orthogonality(functor, w, 1e-9)
            worst = max(worst, residual)
            assert ok, (functor, ambient, dim, residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"orthogonality suite took {elapsed:.1f}s"
    announce(1, f"9 primitives x 500 cases, worst residual {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_2_functoriality_suite():
    rng = np.random.default_rng(20240802)
    worst = 0.0
    for case in range(500):
        functor = PRIMITIVES[case % len(PRIMITIVES)]
        k, j, i = (int(rng.integers(1, 6)) for _ in range(3))
        a = rng.standard_normal((k, j))
        b = rng.standard_normal((j, i))
        residual = opnorms(apply_to_map(functor, a @ b)
                           - apply_to_map(functor, a) @ apply_to_map(functor, b))
        identity_residual = opnorms(apply_to_map(functor, np.eye(j))
                                    - np.eye(dim_map(functor, j)))
        worst = max(worst, residual, identity_residual)
        assert residual <= 1e-9
        assert identity_residual <= 1e-9
    # F is a *-functor, F(A^T) = F(A)^T: the orthogonality residual rests
    # on it.  Every primitive and the composites, on k x j matrices.
    rng = np.random.default_rng(20240803)
    worst_adjoint = 0.0
    for case in range(500):
        functor = (PRIMITIVES + COMPOSITES)[case % (len(PRIMITIVES)
                                                    + len(COMPOSITES))]
        k, j = (int(rng.integers(1, 6)) for _ in range(2))
        a = rng.standard_normal((k, j))
        adjoint = np.abs(apply_to_map(functor, a.T)
                         - apply_to_map(functor, a).T).max(initial=0.0)
        worst_adjoint = max(worst_adjoint, adjoint)
        assert adjoint <= 1e-9, (functor, k, j, adjoint)
    announce(2, f"500 random pairs, worst residual {worst:.2e}; "
                f"500 transposes, worst |F(A^T) - F(A)^T| {worst_adjoint:.2e}")


def test_criterion_3_whitney_fixture_verdicts():
    scenario = cone_scenario()
    verdict_pass = whitney_a_check(cone_bundle("pass"), scenario, tol=1e-8)
    assert verdict_pass.status == "PASS"
    verdict_fail = whitney_a_check(cone_bundle("fail"), scenario, tol=1e-8)
    assert verdict_fail.status == "FAIL"
    assert abs(verdict_fail.residual - 1.0) <= 1e-6
    verdict_rank0 = whitney_a_check(cone_bundle("rank0"), scenario, tol=1e-8)
    assert verdict_rank0.status == "PASS"
    announce(3, f"PASS / FAIL(residual {verdict_fail.residual:.9f}) / rank-0 "
                "PASS reproduced")


def pass_fixtures():
    line_fields = line_scaling_fields(power=1)
    square_fields = line_scaling_fields(power=2)
    fol_linear = foliation_bundle(line_fields, r_cc=0.015)
    fol_square = foliation_bundle(square_fields, r_cc=0.015)
    fol_scenario = line_foliation_scenario(fol_linear)
    return [
        ("cone-pass", cone_bundle("pass"), cone_scenario()),
        ("cone-rank0", cone_bundle("rank0"), cone_scenario()),
        ("foliation-linear", fol_linear, fol_scenario),
        ("foliation-square", fol_square, fol_scenario),
    ]


def test_criterion_4_functor_preserves_whitney():
    tol = 1e-8
    regressions = []
    cases = 0
    for name, bundle, scenario in pass_fixtures():
        assert whitney_a_check(bundle, scenario, tol=tol).status == "PASS"
        for functor in PRIMITIVES:
            transformed = apply_functor_to_bundle(functor, bundle)
            verdict = whitney_a_check(transformed, scenario, tol=10 * tol)
            cases += 1
            if verdict.status != "PASS":
                regressions.append((name, functor, verdict.status))
    assert not regressions, regressions
    announce(4, f"{cases} fixture x functor combinations, zero regressions")


def test_criterion_5_rotation_quotient_dimension_table():
    # Computed with Z_8 for the circle (see helpers.circle_rank_table).
    quotient_ranks, tangent_ranks, _ = circle_rank_table(8)
    assert quotient_ranks == {"origin": 0, "generic": 2}
    assert tangent_ranks == {"origin": 0, "generic": 1}
    assert (quotient_ranks == tangent_ranks) is False
    announce(5, "invariant-quotient ranks (2, 0) vs tangent ranks (1, 0): "
                "NOT isomorphic")


def bundle_fixture_menu():
    return [
        ("cone-pass", cone_bundle("pass", depth=12)),
        ("cone-fail", cone_bundle("fail", depth=12)),
        ("cone-rank0", cone_bundle("rank0", depth=12)),
        ("trivial3", trivial_bundle(line_stratification(), 3)),
        ("step-rank", step_rank_bundle()),
        ("sign-flip-tangent", sign_flip_tangent_bundle()),
        ("ring-tangent", ring_tangent_bundle()),
        ("foliation-line", foliation_bundle(line_scaling_fields(), r_cc=0.015)),
    ]


def test_criterion_6_monoid_classification():
    # Scalar multiplication of every bundle fixture is a regular action
    # whose reconstruction gives the bundle back over the zero section,
    # the depth-40 cones too, whose base points lie 2^-40 apart.
    menu = bundle_fixture_menu() + [
        (f"cone-{variant}-40", cone_bundle(variant))
        for variant in ("pass", "fail", "rank0")]
    worst_gap = 0.0
    for name, bundle in menu:
        action, base, expected = bundle_scalar_action(bundle)
        report = regularity_check(action, tol=1e-8)
        assert report.overall == "REGULAR", name
        got = reconstruct_bundle(action, base)
        assert got.stratum_rank == expected.stratum_rank, name
        for key in got.point_keys():
            gap = gap_distance(got.fiber(key), expected.fiber(key))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12, (name, key)

    squares = MonoidActionSample.builtin(
        "square_scale", 1, [[1.0], [-0.5], [2.0], [0.0]])
    square_report = regularity_check(squares, tol=1e-6)
    assert square_report.overall == "NOT_REGULAR"
    assert square_report.violating_indices == (0, 1, 2)
    announce(6, f"{len(menu)} fixtures regular, worst recovery gap "
                f"{worst_gap:.2e}; "
                "square scaling rejected with points listed")


def test_criterion_6_reconstructed_cones_keep_whitney_verdicts():
    # x -> (x, 0) is an isometry, so the reconstructed depth-40 cones
    # read the input's Whitney A verdicts and residuals.
    scenario = cone_scenario()
    read = []
    for variant in ("pass", "fail", "rank0"):
        bundle = cone_bundle(variant)
        action, base, _ = bundle_scalar_action(bundle)
        want = whitney_a_check(bundle, scenario)
        got = whitney_a_check(reconstruct_bundle(action, base), scenario)
        assert got.status == want.status, variant
        assert abs(got.residual - want.residual) <= 1e-15, variant
        read.append(f"{got.status} {got.residual:.3g}")
    announce(6, "reconstructed depth-40 cones read " + " / ".join(read))


def test_criterion_7_foliation_stratification():
    linear = foliation_bundle(line_scaling_fields(power=1, n_samples=201),
                              r_cc=0.015)
    assert len(linear.base.strata) == 3
    assert sorted(linear.stratum_rank.values()) == [0, 1, 1]

    square = foliation_bundle(line_scaling_fields(power=2, n_samples=201),
                              r_cc=0.015)
    assert [s.name for s in square.base.strata] == \
        [s.name for s in linear.base.strata]
    assert square.stratum_rank == linear.stratum_rank
    for a, b in zip(linear.base.strata, square.base.strata):
        np.testing.assert_array_equal(a.points, b.points)
    for key in linear.point_keys():
        assert gap_distance(linear.fiber(key), square.fiber(key)) <= 1e-12
    announce(7, "x d/dx on 201 samples: 3 strata, ranks (1, 0, 1); "
                "x^2 d/dx gives the identical bundle")


def test_criterion_8_cantor_local_finiteness():
    flagged = []
    for level in (3, 4, 5, 6):
        report = local_finiteness_report(cantor_stratification(level),
                                         radius=0.1, threshold=3)
        flagged.append(len(report.flagged))
    assert all(a < b for a, b in zip(flagged, flagged[1:])), flagged
    announce(8, f"flagged points strictly increase over levels 3-6: {flagged}")


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


CORPUS_COMMANDS = [
    ("check", "frontier", "--stratification", fx("line.json"),
     "--eps-touch", "0.05", "--delta-cover", "0.05"),
    ("check", "frontier", "--stratification", fx("local_line.json"),
     "--eps-touch", "0.06", "--delta-cover", "0.06"),
    ("check", "frontier", "--stratification", fx("cone_base.json"),
     "--eps-touch", "0.08", "--delta-cover", "0.08"),
    ("check", "frontier", "--stratification", fx("cantor_level3.json"),
     "--eps-touch", "0.0005", "--delta-cover", "0.01"),
    ("check", "frontier", "--stratification", fx("cantor_level4.json"),
     "--eps-touch", "0.0005", "--delta-cover", "0.01"),
    ("check", "frontier", "--stratification", fx("cantor_level5.json"),
     "--eps-touch", "0.0005", "--delta-cover", "0.01"),
    ("check", "frontier", "--stratification", fx("cantor_level6.json"),
     "--eps-touch", "0.0005", "--delta-cover", "0.01"),
    ("check", "whitney-a", "--bundle", fx("cone_pass.json"),
     "--scenario", fx("cone_scenario.json")),
    ("check", "whitney-a", "--bundle", fx("cone_fail.json"),
     "--scenario", fx("cone_scenario.json")),
    ("check", "whitney-a", "--bundle", fx("cone_rank0.json"),
     "--scenario", fx("cone_scenario.json")),
    ("check", "whitney-a", "--bundle", fx("cone_pass.json"),
     "--auto-sequence", "radial:S0[0],12", "--source-stratum", "S+"),
    ("check", "orthogonality", "--functor", "wedge:2",
     "--subspace", fx("plane_in_r3.json")),
    ("check", "orthogonality", "--functor",
     "compose(wedge:2,sum(id,const:1))", "--subspace", fx("plane_in_r3.json")),
    ("check", "orthogonality", "--functor", "sym:2",
     "--bundle", fx("step_rank.json")),
    ("monoid", "analyze", "--action", fx("action_scalar.json")),
    ("monoid", "analyze", "--action", fx("action_square_scale.json"),
     "--tol-check", "1e-6"),
    ("monoid", "analyze", "--action", fx("action_translate.json")),
    ("monoid", "analyze", "--action", fx("action_scale_last.json")),
    ("monoid", "analyze", "--action", fx("action_cone_scalar.json")),
    ("foliation", "stratify", "--fields", fx("fields_line.json"),
     "--r-cc", "0.015"),
    ("foliation", "stratify", "--fields", fx("fields_line_square.json"),
     "--r-cc", "0.015"),
    ("foliation", "stratify", "--fields", fx("fields_plane_axes.json"),
     "--r-cc", "0.3"),
    ("foliation", "stratify", "--fields", fx("fields_constant.json"),
     "--r-cc", "0.3"),
    ("foliation", "bundle", "--fields", fx("fields_line.json"),
     "--scenario", fx("fol_line_scenario.json"), "--r-cc", "0.015",
     "--tol-check", "1e-9"),
]

APPLY_FUNCTOR_TARGETS = ["trivial3.json", "step_rank.json", "cone_pass.json",
                         "cone_rank0.json", "sign_flip_tangent.json",
                         "ring_tangent.json"]


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    start = time.perf_counter()

    # Byte-stable reports (modulo the timestamp, dropped by flag).
    for command in CORPUS_COMMANDS:
        argv = command + ("--no-timestamp",)
        code_a, first = run_cli(*argv)
        code_b, second = run_cli(*argv)
        assert code_a == code_b
        assert first == second, command
        assert code_a in (0, 2, 3)

    # Equivariant pipelines, twice, artifacts byte-identical.
    pipelines = [
        ("signflip", fx("sign_flip_group.json"),
         fx("sign_flip_tangent.json"), "0.06"),
        ("ring", fx("rotation8_group.json"), fx("ring_tangent.json"), "1.0"),
    ]
    for label, group, bundle, r_cc in pipelines:
        for tag in ("a", "b"):
            tilde = tmp_path / f"tilde_{label}_{tag}.json"
            quot = tmp_path / f"quot_{label}_{tag}.json"
            code, _ = run_cli("equivariant", "tilde", "--group", group,
                              "--bundle", bundle, "--r-cc", r_cc,
                              "--out", str(tilde), "--no-timestamp")
            assert code == 0, label
            code, _ = run_cli("equivariant", "quotient", "--group", group,
                              "--bundle", str(tilde), "--r-cc", r_cc,
                              "--out", str(quot), "--no-timestamp")
            assert code == 0, label
        assert (tmp_path / f"tilde_{label}_a.json").read_bytes() == \
            (tmp_path / f"tilde_{label}_b.json").read_bytes()
        assert (tmp_path / f"quot_{label}_a.json").read_bytes() == \
            (tmp_path / f"quot_{label}_b.json").read_bytes()

    # apply-functor round trip: outputs reload and validate.
    functors = ["wedge:2", "sym:2", "tensor:2"]
    for i, target in enumerate(APPLY_FUNCTOR_TARGETS):
        out_path = tmp_path / f"image_{i}.json"
        code, report_text = run_cli("apply-functor",
                                    "--functor", functors[i % len(functors)],
                                    "--bundle", fx(target),
                                    "--out", str(out_path), "--no-timestamp")
        assert code == 0, target
        reloaded = bundle_from_json(read_json(str(out_path)))
        assert validate_bundle(reloaded).passed, target
        assert json.loads(report_text)["overall"] == "PASS"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
    announce(9, f"{2 * len(CORPUS_COMMANDS)} corpus runs byte-stable, "
                f"{len(APPLY_FUNCTOR_TARGETS)} functor images re-validated, "
                f"{elapsed:.1f}s")
