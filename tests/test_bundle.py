import os
import re

import numpy as np
import pytest

from svb.bundle import (
    ConvergenceScenario,
    InvalidBundleError,
    SampledStratifiedBundle,
    apply_functor_to_bundle,
    failing_fibers,
    trivial_bundle,
    validate_bundle,
    whitney_a_check,
    whitney_a_from_sections,
)
from svb.config import TAIL_LEN
from svb.strata import check_frontier
from svb.fixtures import (
    cone_bundle,
    cone_scenario,
    line_stratification,
    ring_tangent_bundle,
    sign_flip_tangent_bundle,
    step_rank_bundle,
)
from svb.functors import (
    Compose,
    ConstantSum,
    DirectSum,
    Identity,
    SymPower,
    TensorPower,
    WedgePower,
    apply_to_subspace,
    check_orthogonality,
    dim_map,
    orthogonality_residuals,
)
from svb.strata import Stratification, Stratum
from svb.grassmann import (
    Subspace,
    containment_residual,
    gap_distance,
    sequence_limit,
    span,
)
from svb.jsonio import bundle_from_json, read_json, scenario_from_json

from helpers import (assert_sections_read_fiber_check, cone_sections,
                     violation_rows)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PRIMITIVES = [WedgePower(1), WedgePower(2), WedgePower(3),
              SymPower(1), SymPower(2), SymPower(3),
              TensorPower(1), TensorPower(2), TensorPower(3)]


class TestValidateBundle:
    def test_trivial_bundle_passes(self):
        b = trivial_bundle(line_stratification(), 2)
        assert validate_bundle(b).passed

    def test_cone_bundle_passes(self):
        assert validate_bundle(cone_bundle("pass")).passed

    def test_rank_violation_names_the_point(self):
        b = trivial_bundle(line_stratification(), 2)
        fibers = {key: b.fiber(key) for key in b.point_keys()}
        fibers[("S+", 3)] = span([(1.0, 0.0)], 2)
        with pytest.raises(ValueError, match=re.escape(
                "fiber over ('S+', 3) has rank 1, the fiber over ('S+', 0) "
                "has rank 2")):
            SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)

    def test_missing_fiber_raises(self):
        b = trivial_bundle(line_stratification(), 2)
        fibers = {key: b.fiber(key) for key in b.point_keys()}
        del fibers[("S0", 0)]
        with pytest.raises(KeyError, match="missing fiber"):
            SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)

    def test_wrong_ambient_raises(self):
        b = trivial_bundle(line_stratification(), 2)
        fibers = {key: b.fiber(key) for key in b.point_keys()}
        fibers[("S0", 0)] = span([(1.0, 0.0, 0.0)], 3)
        with pytest.raises(ValueError, match="ambient 3, bundle declares 2"):
            SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)

    def test_missing_fiber_reported_before_a_rank_fault(self):
        # Every point is checked for a fiber of the right ambient before
        # any stratum's stack is gathered.
        b = trivial_bundle(line_stratification(), 2)
        fibers = {key: b.fiber(key) for key in b.point_keys()}
        fibers[("S+", 3)] = span([(1.0, 0.0)], 2)
        del fibers[("S-", 0)]
        with pytest.raises(KeyError, match=re.escape(
                "missing fiber over point ('S-', 0)")):
            SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)

    def test_scenario_needs_a_sequence(self):
        with pytest.raises(ValueError,
                           match="^scenario needs a nonempty sequence$"):
            ConvergenceScenario("S0", "S+", 0, ())

    @pytest.mark.parametrize("x0, seq, bad", [
        (0, (1.7, 2.2, 3), "1.7"), (0.5, (1, 2, 3), "0.5"),
        ("0", (1, 2, 3), "'0'"), (0, (1, None), "None")])
    def test_scenario_indices_must_be_integers(self, x0, seq, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"scenario index {bad} is not an integer")):
            ConvergenceScenario("S0", "S+", x0, seq)

    def test_scenario_reads_numpy_integers_as_ints(self):
        sc = ConvergenceScenario("S0", "S+", np.int64(0),
                                 tuple(np.arange(3, dtype=np.int32)))
        assert sc == ConvergenceScenario("S0", "S+", 0, (0, 1, 2))
        assert type(sc.x0_index) is int
        assert all(type(i) is int for i in sc.sequence_indices)

    def test_scenario_needs_two_strata(self):
        with pytest.raises(ValueError, match=re.escape(
                "scenario needs two distinct strata, got 'S0' as both S "
                "and R")):
            ConvergenceScenario("S0", "S0", 0, (0, 0, 0))

    def test_declared_rank_compared_per_stratum(self):
        b = step_rank_bundle()
        report = validate_bundle(SampledStratifiedBundle(
            b.base, 3, {key: b.fiber(key) for key in b.point_keys()},
            {"S0": 1, "S+": 1}))
        assert report.problems == (
            "stratum 'S+' declares rank 1, its fibers have rank 2",
            "stratum 'S-' has no declared rank")

    def test_rank_for_unknown_stratum_reported(self):
        b = trivial_bundle(line_stratification(), 2)
        report = validate_bundle(SampledStratifiedBundle.from_stacks(
            b.base, 2, b.stacks, dict(b.stratum_rank, ghost=7),
            tol_ortho=None))
        assert not report.passed
        assert report.problems == (
            "rank declared for unknown stratum 'ghost'",)


class TestWhitneyACheck:
    def test_pass_fixture(self):
        verdict = whitney_a_check(cone_bundle("pass"), cone_scenario(),
                                  tol=1e-8, tail_len=5)
        assert verdict.status == "PASS"
        # Limit plane is span{(1, 0)} up to the dyadic tail resolution.
        assert gap_distance(verdict.limit, span([(1.0, 0.0)], 2)) < 1e-11

    def test_fail_fixture_residual_is_one(self):
        verdict = whitney_a_check(cone_bundle("fail"), cone_scenario(),
                                  tol=1e-8, tail_len=5)
        assert verdict.status == "FAIL"
        # Oracle: containment residual of orthogonal lines at angle
        # theta = arctan(2^-40) is cos(theta) ~ 1.
        assert verdict.residual == pytest.approx(1.0, abs=1e-6)

    def test_rank_zero_fiber_passes(self):
        verdict = whitney_a_check(cone_bundle("rank0"), cone_scenario(),
                                  tol=1e-8, tail_len=5)
        assert verdict.status == "PASS"

    def test_alternating_fibers_inconclusive(self):
        verdict = whitney_a_check(alternating_cone(), cone_scenario(),
                                  tol=1e-2, tail_len=4)
        assert verdict.status == "INCONCLUSIVE"

    def test_unknown_scenario_points_raise(self):
        with pytest.raises(KeyError):
            whitney_a_check(cone_bundle("pass"),
                            ConvergenceScenario("S0", "S+", 0, (3, 2, 99999)))
        with pytest.raises(KeyError):
            whitney_a_check(cone_bundle("pass"),
                            ConvergenceScenario("ghost", "S+", 0, (1, 2)))

    def test_non_monotone_tail_rejected(self):
        sc = ConvergenceScenario("S0", "S+", 0, (40, 39, 1, 38))
        with pytest.raises(ValueError, match="monotonically"):
            whitney_a_check(cone_bundle("pass"), sc, tail_len=4)


def alternating_cone():
    """The passing cone with the fibers over S+ alternating between the
    two axes, so that no fiber sequence toward the origin has a limit."""
    b = cone_bundle("pass")
    fibers = {key: b.fiber(key) for key in b.point_keys()}
    stratum = b.base.stratum("S+")
    for i in range(len(stratum)):
        fibers[("S+", i)] = span([(1.0, 0.0)], 2) if i % 2 else \
            span([(0.0, 1.0)], 2)
    return SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)


def _parent_whitney(b, sc, tol, tail_len):
    """whitney_a_check with the distance of every scenario point."""
    x0 = b.point((sc.target_stratum, sc.x0_index))
    keys = [(sc.source_stratum, i) for i in sc.sequence_indices]
    tail = [float(np.linalg.norm(b.point(k) - x0)) for k in keys][-tail_len:]
    assert all(a >= bb - 1e-12 for a, bb in zip(tail, tail[1:]))
    limit = sequence_limit([b.fiber(k) for k in keys[-tail_len:]],
                           tol=tol, tail_len=tail_len)
    if limit is None:
        return "INCONCLUSIVE", None, None
    ok, residual = containment_residual(
        b.fiber((sc.target_stratum, sc.x0_index)), limit, tol)
    return ("PASS" if ok else "FAIL"), residual, limit.basis


class TestWhitneyTail:
    """Only the tail points of a scenario are read."""

    @pytest.mark.parametrize("variant", ["pass", "fail", "rank0"])
    def test_cone_fixtures(self, variant, monkeypatch):
        b = bundle_from_json(read_json(
            os.path.join(FIXTURES, f"cone_{variant}.json")))
        sc = scenario_from_json(read_json(
            os.path.join(FIXTURES, "cone_scenario.json")))
        assert len(sc.sequence_indices) == 41
        status, residual, basis = _parent_whitney(b, sc, 1e-8, TAIL_LEN)
        read = []
        point = b.point
        monkeypatch.setattr(b, "point", lambda key: read.append(key) or
                            point(key))
        verdict = whitney_a_check(b, sc, tol=1e-8, tail_len=TAIL_LEN)
        assert (verdict.status, verdict.residual) == (status, residual)
        assert np.array_equal(verdict.limit.basis, basis)
        tail = {(sc.source_stratum, i)
                for i in sc.sequence_indices[-TAIL_LEN:]}
        assert set(read) == tail | {(sc.target_stratum, sc.x0_index)}
        assert len(set(read)) == TAIL_LEN + 1

    def test_indices_before_the_tail_are_range_checked(self):
        sc = ConvergenceScenario("S0", "S+", 0, (99999, 1, 2, 3, 4, 5, 6))
        with pytest.raises(KeyError, match="index 99999 out of range"):
            whitney_a_check(cone_bundle("pass"), sc, tail_len=4)
        sc = ConvergenceScenario("S0", "S+", 0, (-1,) + tuple(range(1, 41)))
        with pytest.raises(KeyError, match="index -1 out of range"):
            whitney_a_check(cone_bundle("pass"), sc)


class TestWhitneyFromSections:
    def test_pass_fixture(self):
        b = cone_bundle("pass")
        verdict = whitney_a_from_sections(b, cone_sections(b), cone_scenario(),
                                          tol=1e-8, tail_len=5)
        assert verdict.status == "PASS"
        assert max(verdict.section_residuals) <= 1e-8

    def test_zero_section_rank_zero_passes(self):
        b = cone_bundle("rank0")
        verdict = whitney_a_from_sections(b, cone_sections(b), cone_scenario(),
                                          tol=1e-8, tail_len=5)
        assert verdict.status == "PASS"

    def test_origin_value_outside_limit_fails(self):
        b = cone_bundle("fail")
        verdict = whitney_a_from_sections(b, cone_sections(b), cone_scenario(),
                                          tol=1e-8, tail_len=5)
        assert verdict.status == "FAIL"
        assert verdict.residual == pytest.approx(1.0, abs=1e-6)

    def test_no_limit_is_inconclusive(self):
        # Sections along the fibers themselves: in the fibers, spanning
        # the fiber over the origin, with no limit along the tail.
        b = alternating_cone()
        sections = [{name: stack[:, 0] for name, stack in b.stacks.items()}]
        verdict = whitney_a_from_sections(b, sections, cone_scenario(),
                                          tol=1e-2, tail_len=4)
        assert verdict.status == "INCONCLUSIVE"
        assert (verdict.residual, verdict.limit) == (None, None)
        assert verdict.section_residuals == ()
        sections[0]["S+"] = sections[0]["S+"] @ np.array([[0.0, 1.0],
                                                          [1.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape(
                "section 0 leaves the fiber at point ('S+', 0)")):
            whitney_a_from_sections(b, sections, cone_scenario(), tol=1e-2,
                                    tail_len=4)

    def test_section_outside_fiber_raises(self):
        b = cone_bundle("pass")
        for value in ([0.0, 1.0], [np.nan, 0.0]):
            section = cone_sections(b)[0]
            section["S+"][0] = value
            with pytest.raises(ValueError, match="leaves the fiber"):
                whitney_a_from_sections(b, [section], cone_scenario())

    @pytest.mark.parametrize("key", [("S0", 0), ("S+", 0), ("S+", 3),
                                     ("S+", 40), ("S-", 7)])
    def test_fiber_residual_threshold(self, key):
        # Every value pushed off its fiber along the fiber's normal by
        # half the tolerance passes; one pushed by twice the tolerance
        # is named.
        b, tol = cone_bundle("pass"), 1e-8
        section = cone_sections(b)[0]
        for name, stack in b.stacks.items():
            normal = stack[:, 0] @ np.array([[0.0, 1.0], [-1.0, 0.0]])
            section[name] = section[name] + 0.5 * tol * normal
        verdict = whitney_a_from_sections(b, [section], cone_scenario(),
                                          tol=tol, tail_len=5)
        assert verdict.status == "PASS"
        name, i = key
        section[name][i] += 1.5 * tol * (
            b.stacks[name][i, 0] @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match=re.escape(
                f"section 0 leaves the fiber at point {key}")):
            whitney_a_from_sections(b, [section], cone_scenario(),
                                    tol=tol, tail_len=5)

    def test_non_spanning_sections_raise(self):
        b = cone_bundle("pass")
        zero = {s.name: np.zeros((len(s), 2)) for s in b.base.strata}
        with pytest.raises(ValueError, match="span"):
            whitney_a_from_sections(b, [zero], cone_scenario())

    def test_partial_section_raises(self):
        # A short stack is undefined at its first absent point, a
        # missing one at the stratum's first point.
        b = cone_bundle("pass")
        for stratum, kept, undefined_at in [("S-", 2, ("S-", 2)),
                                            ("S-", None, ("S-", 0)),
                                            ("S0", 0, ("S0", 0))]:
            section = cone_sections(b)[0]
            if kept is None:
                del section[stratum]
            else:
                section[stratum] = section[stratum][:kept]
            with pytest.raises(ValueError, match=re.escape(
                    f"section 0 undefined at point {undefined_at}")):
                whitney_a_from_sections(b, [section], cone_scenario())

    @pytest.mark.parametrize("stratum, stack, shape", [
        ("S+", lambda v: np.vstack([v, [0.0, 5.0]]), "(42, 2)"),
        ("S-", lambda v: np.column_stack([v, np.zeros(len(v))]), "(41, 3)"),
        ("S0", lambda v: v[0], "(2,)"),
    ], ids=["extra-row", "wrong-width", "one-dimensional"])
    def test_misshapen_stack_rejected(self, stratum, stack, shape):
        # The extra row is named although the rows before it pass; the
        # wrong width is named before any matrix product sees it.
        b = cone_bundle("pass")
        section = cone_sections(b)[0]
        assert len(section[stratum]) == len(b.base.stratum(stratum))
        section[stratum] = stack(section[stratum])
        n = len(b.base.stratum(stratum))
        with pytest.raises(ValueError, match=re.escape(
                f"section 0 over stratum {stratum!r} has shape {shape}, "
                f"expected ({n}, 2)")):
            whitney_a_from_sections(b, [section], cone_scenario())

    @pytest.mark.parametrize("make", [
        lambda: cone_bundle("pass"), lambda: cone_bundle("fail"),
        lambda: cone_bundle("rank0"), alternating_cone])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sections_read_the_fiber_check(self, make, seed):
        # rank + 1 sections, each a random combination of its fiber's
        # basis vectors at every point, and scaled at random.
        b, rng = make(), np.random.default_rng(seed)
        rank = b.stratum_rank["S0"]
        sections = [{name: 10.0 ** rng.uniform(-3, 3) * (
            rng.standard_normal((len(stack), 1, stack.shape[1]))
            @ stack)[:, 0] for name, stack in b.stacks.items()}
            for _ in range(rank + 1)]
        for tol, tail_len in [(1e-8, 5), (1e-2, 4), (1e-8, TAIL_LEN)]:
            assert_sections_read_fiber_check(b, sections, cone_scenario(),
                                             tol, tail_len)


class TestApplyFunctorToBundle:
    def test_wedge_on_trivial_r3(self):
        b = trivial_bundle(line_stratification(), 3)
        out = apply_functor_to_bundle(WedgePower(2), b)
        assert out.fiber_ambient == 3
        assert out.stratum_rank == {"S0": 3, "S+": 3, "S-": 3}
        assert validate_bundle(out).passed

    def test_wedge_on_step_rank_fixture(self):
        out = apply_functor_to_bundle(WedgePower(2), step_rank_bundle())
        # Oracle: binomial(rank, 2) per stratum.
        assert out.stratum_rank == {"S0": 0, "S+": 1, "S-": 1}
        assert validate_bundle(out).passed

    def test_identity_functor_keeps_bundle(self):
        b = cone_bundle("pass", depth=10)
        out = apply_functor_to_bundle(TensorPower(1), b)
        assert out.stratum_rank == b.stratum_rank
        for key in b.point_keys():
            assert gap_distance(out.fiber(key), b.fiber(key)) <= 1e-12

    def test_ranks_transform_by_dim_map_exactly(self):
        for f in PRIMITIVES:
            out = apply_functor_to_bundle(f, step_rank_bundle())
            for name, r in step_rank_bundle().stratum_rank.items():
                assert out.stratum_rank[name] == dim_map(f, r)

    def test_invalid_bundle_rejected(self):
        b = trivial_bundle(line_stratification(), 2)
        broken = SampledStratifiedBundle(
            b.base, 2, {key: b.fiber(key) for key in b.point_keys()},
            dict(b.stratum_rank, **{"S+": 1}))
        with pytest.raises(ValueError, match="validation") as caught:
            apply_functor_to_bundle(WedgePower(2), broken)
        assert isinstance(caught.value, InvalidBundleError)
        assert caught.value.validation == validate_bundle(broken)


def _random_fiber_bundle(n=150, rank=2, ambient=5, seed=7):
    rng = np.random.default_rng(seed)
    base = Stratification([Stratum("bulk", 2,
                                   rng.uniform(-1.0, 1.0, size=(n, 2)))])
    fibers = {("bulk", i): span(rng.standard_normal((rank, ambient)), ambient)
              for i in range(n)}
    return SampledStratifiedBundle(base, ambient, fibers, {"bulk": rank})


BUNDLES = {"step-rank": step_rank_bundle, "cone-pass": cone_bundle,
           "ring-tangent": ring_tangent_bundle,
           "sign-flip": sign_flip_tangent_bundle,
           "random-150": _random_fiber_bundle}
FUNCTORS = [Identity(), ConstantSum(1), DirectSum(Identity(), ConstantSum(1)),
            Compose(WedgePower(2), DirectSum(Identity(), ConstantSum(1))),
            TensorPower(2), WedgePower(2), WedgePower(3), SymPower(2),
            SymPower(3)]


class TestStratumStacks:
    """One functor call per stratum stack gives, bit for bit, what one
    call per fiber gives."""

    @pytest.mark.parametrize("make", BUNDLES.values(), ids=BUNDLES.keys())
    def test_one_stack_per_stratum_in_point_order(self, make):
        b = make()
        assert list(b.stacks) == b.base.names
        for s in b.base.strata:
            stack = b.stacks[s.name]
            assert stack.shape == (len(s), b.stratum_rank[s.name],
                                   b.fiber_ambient)
            assert not stack.flags.writeable
            for i, basis in enumerate(stack):
                assert np.array_equal(basis, b.fiber((s.name, i)).basis)

    @pytest.mark.parametrize("make", BUNDLES.values(), ids=BUNDLES.keys())
    def test_fiber_view_equals_subspace(self, make):
        b = make()
        for key in b.point_keys():
            view = b.fiber(key)
            w = Subspace(b.fiber_ambient, view.basis)
            assert view.ambient_dim == w.ambient_dim
            assert np.array_equal(view.basis, w.basis)
            assert np.array_equal(view.projection, w.projection)

    @pytest.mark.parametrize("n, rank, ambient", [(100, 6, 15),
                                                  (50, 10, 35)])
    def test_projection_formed_per_fiber(self, n, rank, ambient):
        # A stacked product may round differently from k = 15 on; each
        # view forms its projection from its own basis, as Subspace does.
        rng = np.random.default_rng(ambient)
        stack = np.linalg.qr(rng.standard_normal((n, ambient, rank)))[0]
        base = Stratification([Stratum("bulk", 2, rng.uniform(size=(n, 2)))])
        b = SampledStratifiedBundle.from_stacks(
            base, ambient, {"bulk": stack.swapaxes(1, 2).copy()})
        assert b.stratum_rank == {"bulk": rank}
        for key in b.point_keys():
            w = Subspace(ambient, b.stacks["bulk"][key[1]])
            assert np.array_equal(b.fiber(key).projection, w.projection)

    def test_from_stacks_audits_each_stack(self):
        b = trivial_bundle(line_stratification(), 2)
        stacks = {name: stack.copy() for name, stack in b.stacks.items()}
        stacks["S-"][3] *= 1 + 5.5e-11
        with pytest.raises(ValueError, match="not orthonormal"):
            SampledStratifiedBundle.from_stacks(b.base, 2, stacks)
        assert failing_fibers(stacks) == [("S-", 3)]

    @pytest.mark.parametrize("make", BUNDLES.values(), ids=BUNDLES.keys())
    @pytest.mark.parametrize("f", FUNCTORS, ids=repr)
    def test_image_equals_per_fiber_image(self, make, f):
        b = make()
        out = apply_functor_to_bundle(f, b)
        for key in b.point_keys():
            expected = apply_to_subspace(f, b.fiber(key))
            assert out.fiber(key).ambient_dim == expected.ambient_dim
            assert np.array_equal(out.fiber(key).basis, expected.basis)
            assert np.array_equal(out.fiber(key).projection,
                                  expected.projection)

    @pytest.mark.parametrize("make", BUNDLES.values(), ids=BUNDLES.keys())
    @pytest.mark.parametrize("f", FUNCTORS, ids=repr)
    def test_residuals_equal_per_fiber_check(self, make, f):
        b = make()
        for s in b.base.strata:
            residuals = orthogonality_residuals(f, b.stacks[s.name])
            assert residuals.tolist() == [
                check_orthogonality(f, b.fiber((s.name, i)))[1]
                for i in range(len(s))]


class TestFunctorPreservesWhitney:
    @pytest.mark.parametrize("f", PRIMITIVES)
    def test_pass_fixture_stays_pass(self, f):
        b = cone_bundle("pass")
        tol = 1e-8
        assert whitney_a_check(b, cone_scenario(), tol=tol).status == "PASS"
        fb = apply_functor_to_bundle(f, b)
        verdict = whitney_a_check(fb, cone_scenario(), tol=10 * tol)
        assert verdict.status == "PASS", (f, verdict)

    @pytest.mark.parametrize("f", PRIMITIVES)
    def test_fiber_limit_survives(self, f):
        # The base is untouched (so any frontier verdict is unchanged)
        # and the transformed fiber sequence still has a Cauchy tail
        # wherever the original one did.
        b = cone_bundle("pass")
        fb = apply_functor_to_bundle(f, b)
        assert fb.base is b.base
        before = check_frontier(b.base, 0.6, 0.6)
        after = check_frontier(fb.base, 0.6, 0.6)
        assert before.passed == after.passed
        assert violation_rows(before) == violation_rows(after)
        verdict = whitney_a_check(fb, cone_scenario(), tol=1e-7)
        assert verdict.limit is not None


class TestReportTruth:
    """A report is true exactly when it passes: a frozen dataclass
    without ``__bool__`` is always true, so every FAIL would read as a
    pass."""

    def test_bundle_validation(self):
        b = trivial_bundle(line_stratification(), 2)
        good = validate_bundle(b)
        bad = validate_bundle(SampledStratifiedBundle.from_stacks(
            b.base, 2, b.stacks, dict(b.stratum_rank, ghost=7),
            tol_ortho=None))
        assert (good.passed, bad.passed) == (True, False)
        assert (bool(good), bool(bad)) == (True, False)

    def test_whitney_verdict(self):
        verdicts = [whitney_a_check(cone_bundle(variant), cone_scenario(),
                                    tol=1e-8, tail_len=5)
                    for variant in ("pass", "fail")]
        assert [v.status for v in verdicts] == ["PASS", "FAIL"]
        assert [bool(v) for v in verdicts] == [True, False]
