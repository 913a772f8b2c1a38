import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svb.monoid
from svb.bundle import trivial_bundle
from svb.config import CLUSTER_RADIUS, TOL_CHECK
from svb.fixtures import bundle_scalar_action, cone_bundle, step_rank_bundle
from svb.grassmann import Subspace, gap_distance, span
from svb.jsonio import action_from_json, read_json
from svb.monoid import (
    MonoidActionSample,
    _classify,
    _norms,
    audit_axioms,
    reconstruct_bundle,
    regularity_check,
    vertical_derivative,
)
from svb.strata import Stratification, Stratum

R2_SAMPLES = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-1.0, 0.5],
                       [0.0, 0.0]])
R1_SAMPLES = np.array([[1.0], [-0.5], [2.0], [0.0]])
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load_action(name):
    return action_from_json(read_json(os.path.join(FIXTURES, name)))


def action(name, samples):
    return MonoidActionSample.builtin(name, samples.shape[1], samples)


class TestConstruction:
    def test_t_grid_needs_zero_and_one(self):
        with pytest.raises(ValueError, match="0 and 1"):
            MonoidActionSample.builtin("scalar", 1, R1_SAMPLES,
                                       t_grid=(0.5, 1.0))

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="builtin"):
            MonoidActionSample.builtin("warp", 1, R1_SAMPLES)

    @pytest.mark.parametrize("build, message", [
        (lambda: MonoidActionSample.builtin("scalar", 0, [[]]),
         "ambient_dim must be positive"),
        (lambda: MonoidActionSample(1, {"kind": "warp"}, R1_SAMPLES, (0, 1)),
         "action kind must be 'builtin' or 'polynomial'"),
        (lambda: MonoidActionSample.polynomial(
            [[{"powers": [1, 1], "coef": 1.0}]], 2, R2_SAMPLES),
         "expected coefficient lists for 2 output coordinates"),
        (lambda: MonoidActionSample.builtin("scalar", 2, R1_SAMPLES),
         "sample points have the wrong ambient dimension"),
        (lambda: MonoidActionSample.builtin("scalar", 1, np.zeros((0, 1))),
         "need at least one sample point"),
        (lambda: MonoidActionSample.builtin("scalar", 1, R1_SAMPLES,
                                            t_grid=(0.0, 0.5)),
         "t_grid must contain both 0 and 1"),
        # The samples are checked before the descriptor.
        (lambda: MonoidActionSample(1, {"kind": "warp"}, np.zeros((0, 1)),
                                    (0, 1)),
         "need at least one sample point"),
    ], ids=["ambient-zero", "kind", "coefficient-lists", "sample-width",
            "no-samples", "no-one", "samples-before-kind"])
    def test_constructor_rejects(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_polynomial_matches_builtin(self):
        # t * e on R^1 as a coefficient table.
        coeffs = [[{"powers": [1, 1], "coef": 1.0}]]
        poly = MonoidActionSample.polynomial(coeffs, 1, R1_SAMPLES)
        ref = action("scalar", R1_SAMPLES)
        for t in (-1.0, 0.0, 0.7, 2.0):
            for e in R1_SAMPLES:
                np.testing.assert_allclose(poly.evaluate(t, e),
                                           ref.evaluate(t, e))


class TestAuditAxioms:
    def test_scalar_multiplication_passes(self):
        assert audit_axioms(action("scalar", R2_SAMPLES), 1e-12).passed

    def test_square_scaling_passes(self):
        # (ts)^2 = t^2 s^2, so the axioms hold even though the action is
        # not scalar multiplication.
        assert audit_axioms(action("square_scale", R1_SAMPLES), 1e-12).passed

    def test_translation_fails_at_composition(self):
        report = audit_axioms(action("translate", R1_SAMPLES), 1e-9)
        assert not report.passed
        assert any(t == 1.0 and s == 1.0
                   for t, s, _, _ in report.composition_violations)
        # Oracle: (x + 1) + 1 differs from x + 1 by exactly 1.
        residuals = {r for t, s, _, r in report.composition_violations
                     if (t, s) == (1.0, 1.0)}
        assert residuals == {1.0}


class TestVerticalDerivative:
    def test_scalar_multiplication_is_identity(self):
        a = action("scalar", R2_SAMPLES)
        phi, err = vertical_derivative(a, np.array([3.0, 4.0]))
        np.testing.assert_allclose(phi, [3.0, 4.0], atol=1e-10)
        assert err <= 1e-10

    def test_square_scaling_has_zero_derivative(self):
        a = action("square_scale", R1_SAMPLES)
        phi, _ = vertical_derivative(a, np.array([5.0]))
        np.testing.assert_allclose(phi, [0.0], atol=1e-10)

    def test_identity_action(self):
        a = action("identity", R2_SAMPLES)
        phi, err = vertical_derivative(a, np.array([1.0, 2.0]))
        np.testing.assert_allclose(phi, np.zeros(2), atol=1e-12)
        assert err <= 1e-12

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            vertical_derivative(action("scalar", R1_SAMPLES), [1.0], step=0.0)


class TestRegularity:
    def test_scalar_multiplication_regular(self):
        assert regularity_check(action("scalar", R2_SAMPLES)).overall == \
            "REGULAR"

    def test_square_scaling_not_regular(self):
        report = regularity_check(action("square_scale", R1_SAMPLES),
                                  tol=1e-6)
        assert report.overall == "NOT_REGULAR"
        # Every nonzero sample violates: phi = 0 but h_0(x) = 0 != x.
        assert set(report.violating_indices) == {0, 1, 2}

    def test_scale_last_regular_with_axis_image(self):
        a = action("scale_last", R2_SAMPLES)
        report = regularity_check(a, tol=1e-8)
        assert report.overall == "REGULAR"
        images = np.array([a.evaluate(0.0, e) for e in a.sample_points])
        np.testing.assert_allclose(images[:, 1], 0.0, atol=1e-12)


class TestBothSidesOfTol:
    """Axiom and regularity verdicts with one input moved from 0.5 tol to
    2 tol of the default tolerance."""

    @staticmethod
    def shifted(c, t_power):
        """h_t(e) = e + c t^t_power on the origin and one more sample."""
        return MonoidActionSample.polynomial(
            [[{"powers": [0, 1], "coef": 1.0},
              {"powers": [t_power, 0], "coef": c}]], 1, [[0.0], [0.5]])

    @pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
    def test_axiom_residual(self, factor, passed):
        # h_1(e) - e = c and h_t h_s(e) - h_ts(e) = c: exact at the origin.
        c = factor * TOL_CHECK
        report = audit_axioms(self.shifted(c, 0))
        assert report.passed is passed
        if not passed:
            assert report.identity_violations[0] == (0, c)
            assert {r for _, _, i, r in report.composition_violations
                    if i == 0} == {c}

    @pytest.mark.parametrize("factor, regular", [(0.5, True), (2.0, False)])
    def test_regularity(self, factor, regular):
        # h_0 fixes every point, and |phi| = c.
        c = factor * TOL_CHECK
        report = regularity_check(self.shifted(c, 1))
        assert len(report.phi_norms) == len(report.fixed_distances) == 2
        for phi_norm, fixed in zip(report.phi_norms, report.fixed_distances):
            assert phi_norm == pytest.approx(c, rel=1e-4)
            assert fixed == 0.0
        assert bool(report) is regular
        assert report.violating_indices == (() if regular else (0, 1))


class TestReconstructBundle:
    def test_scale_last_recovers_vertical_axis(self):
        # Samples must include points above each base point, otherwise the
        # recovered fiber over it is empty.
        samples = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0], [3.0, 4.0],
                            [0.0, 0.0]])
        a = action("scale_last", samples)
        frag = reconstruct_bundle(a, [[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]],
                                  cluster_radius=1e-9)
        assert frag.ranks == (1, 1, 1)
        for fiber in frag.fibers:
            assert gap_distance(fiber, span([(0.0, 1.0)], 2)) <= 1e-9

    def test_scalar_over_origin_recovers_everything(self):
        a = action("scalar", R2_SAMPLES)
        frag = reconstruct_bundle(a, [[0.0, 0.0]], cluster_radius=1e-9)
        assert frag.ranks == (2,)

    def test_identity_action_gives_rank_zero(self):
        a = action("identity", R2_SAMPLES)
        frag = reconstruct_bundle(a, R2_SAMPLES, cluster_radius=1e-9)
        assert frag.ranks == tuple([0] * len(R2_SAMPLES))

    def test_not_regular_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            reconstruct_bundle(action("square_scale", R1_SAMPLES),
                               [[0.0]], tol=1e-6)


def _scan_fibers(a, base, cluster_radius):
    """The fibers of ``reconstruct_bundle`` by one norm scan per base
    point, each cluster spanned on its own."""
    _, phis, images = _classify(a, 1e-8, 1e-3)
    fibers = []
    for b in base:
        near = np.linalg.norm(images - b, axis=1) <= cluster_radius
        fibers.append(span(phis[near], a.ambient_dim) if near.any()
                      else Subspace.zero(a.ambient_dim))
    return fibers


def _scalar_trivial(points, seed=0):
    rng = np.random.default_rng(seed)
    return bundle_scalar_action(trivial_bundle(Stratification(
        [Stratum("bulk", 2, rng.uniform(-1.0, 1.0, (points, 2)))]), 2))


class TestReconstructInput:
    def test_base_samples_of_the_wrong_width(self):
        a = MonoidActionSample.builtin("scale_last", 2, R2_SAMPLES)
        with pytest.raises(ValueError, match="^base samples have the wrong "
                           "ambient dimension$"):
            reconstruct_bundle(a, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("value", [
        np.nan, np.inf, -np.inf, np.nextafter(2.0 ** 500, np.inf),
        -np.nextafter(2.0 ** 500, np.inf)],
        ids=["nan", "inf", "-inf", "above", "-above"])
    def test_far_base_sample_named(self, row, value):
        # Unchecked, such a sample would meet no cluster: a rank-0 fiber.
        act, base, _ = bundle_scalar_action(cone_bundle("pass", 4))
        base = np.array(base)
        base[row, 0] = value
        with pytest.raises(ValueError, match=f"^base sample {row} has a "
                           "coordinate that is not finite or beyond"):
            reconstruct_bundle(act, base)

    def test_base_sample_at_the_bound(self):
        act, base, expected = bundle_scalar_action(cone_bundle("pass", 4))
        base = np.array(base)
        frag = reconstruct_bundle(act, base)
        assert frag.ranks[:3] == tuple(e.dim for e in expected[:3]) == (1, 1, 1)
        # Far from every cluster, yet within the bound: rank 0, no error.
        base[0, 0], base[1, 0] = 2.0 ** 500, -2.0 ** 500
        assert reconstruct_bundle(act, base).ranks == (0, 0) + frag.ranks[2:]


class TestClustersByNearPairs:
    """One ``near_pairs`` pass and one SVD stack per cluster size give the
    bases a per-point scan gives, bit for bit."""

    @pytest.mark.parametrize("points", [100, 400])
    @pytest.mark.parametrize("radius, shift", [
        (CLUSTER_RADIUS, 0.0), (0.05, 0.0), (0.3, 0.0), (0.05, 0.03)],
        ids=["default", "r0.05", "r0.3", "shifted"])
    def test_bases_equal_the_scan(self, points, radius, shift):
        a, base, _ = _scalar_trivial(points)
        base = np.concatenate([np.asarray(base) + shift,
                               [[5.0, 5.0, 0.0, 0.0]]])
        frag = reconstruct_bundle(a, base, tol=1e-8, step=1e-3,
                                  cluster_radius=radius)
        want = _scan_fibers(a, base, radius)
        assert frag.ranks == tuple(w.dim for w in want)
        assert frag.ranks[-1] == 0
        for got, w in zip(frag.fibers, want):
            assert got.basis.shape == w.basis.shape
            assert got.basis.tobytes() == w.basis.tobytes()

    def test_one_svd_stack_per_cluster_size(self, monkeypatch):
        a, base, _ = _scalar_trivial(100)
        radius = 0.3
        _, _, images = _classify(a, 1e-8, 1e-3)
        sizes = {int((np.linalg.norm(images - b, axis=1) <= radius).sum())
                 for b in np.asarray(base)} - {0}
        assert len(sizes) > 3
        calls = []
        stack = svb.monoid._span_rank
        monkeypatch.setattr(svb.monoid, "_span_rank",
                            lambda m, *args: calls.append(m.shape[1])
                            or stack(m, *args))
        reconstruct_bundle(a, base, tol=1e-8, step=1e-3, cluster_radius=radius)
        assert sorted(calls) == sorted(sizes)

    def test_base_without_clusters(self):
        a = action("scalar", R2_SAMPLES)
        frag = reconstruct_bundle(a, [[9.0, 9.0], [-9.0, 0.0]],
                                  cluster_radius=1e-9)
        assert frag.ranks == (0, 0)
        assert [f.basis.shape for f in frag.fibers] == [(0, 2), (0, 2)]


@pytest.mark.parametrize("make", [lambda: cone_bundle("pass", depth=12),
                                  step_rank_bundle],
                         ids=["cone", "step_rank"])
class TestBundleScalarAction:
    def test_regular_and_recovered(self, make):
        bundle = make()
        act, base_points, expected = bundle_scalar_action(bundle)
        assert audit_axioms(act, 1e-10).passed
        assert regularity_check(act, tol=1e-8).overall == "REGULAR"
        frag = reconstruct_bundle(act, base_points)
        for fiber, want in zip(frag.fibers, expected):
            assert gap_distance(fiber, want) <= 1e-6


def _random_polynomial_action(rng, ambient, top_degree=5):
    """Polynomial in t with vector coefficients that are monomials in e;
    the exact t-derivative at 0 is the degree-1 coefficient.  Degree 5
    guarantees genuine truncation error, so estimate and error are not
    both rounding noise."""
    coeffs = []
    derivative_terms = []
    for c in range(ambient):
        terms = []
        for t_deg in range(top_degree + 1):
            e_powers = [int(rng.integers(0, 2)) for _ in range(ambient)]
            coef = float(rng.normal())
            terms.append({"powers": [t_deg] + e_powers, "coef": coef})
            if t_deg == 1:
                derivative_terms.append((c, e_powers, coef))
        coeffs.append(terms)

    def exact_derivative(e):
        out = np.zeros(ambient)
        for c, e_powers, coef in derivative_terms:
            value = coef
            for x, p in zip(e, e_powers):
                value *= x ** p
            out[c] += value
        return out

    return coeffs, exact_derivative


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 3))
def test_error_estimate_bounds_true_error(seed, ambient):
    rng = np.random.default_rng(seed)
    coeffs, exact = _random_polynomial_action(rng, ambient)
    samples = rng.uniform(-1.0, 1.0, size=(6, ambient))
    a = MonoidActionSample.polynomial(coeffs, ambient, samples)
    hits = 0
    for e in samples:
        phi, estimate = vertical_derivative(a, e)
        actual = float(np.linalg.norm(phi - exact(e)))
        if estimate + 1e-13 >= actual:
            hits += 1
    assert hits / len(samples) >= 0.95


@pytest.mark.parametrize("seed", [112, 1021])
def test_error_estimate_covers_rounding(seed):
    """Cases whose truncation estimate alone (3.8e-13 at seed 112) fell
    below the rounding error of the refined quotient (7.5e-13)."""
    rng = np.random.default_rng(seed)
    coeffs, exact = _random_polynomial_action(rng, 2)
    samples = rng.uniform(-1.0, 1.0, size=(6, 2))
    a = MonoidActionSample.polynomial(coeffs, 2, samples)
    for e in samples:
        phi, estimate = vertical_derivative(a, e)
        assert estimate >= float(np.linalg.norm(phi - exact(e)))


def _reference_audit(a, tol):
    """audit_axioms point by point, as a loop over the samples."""
    identity, composition = [], []
    for i, e in enumerate(a.sample_points):
        residual = float(np.linalg.norm(a.evaluate(1.0, e) - e))
        if residual > tol:
            identity.append((i, residual))
    for t in a.t_grid:
        for s in a.t_grid:
            for i, e in enumerate(a.sample_points):
                lhs = a.evaluate(t, a.evaluate(s, e))
                residual = float(np.linalg.norm(lhs - a.evaluate(t * s, e)))
                if residual > tol:
                    composition.append((t, s, i, residual))
    return tuple(identity), tuple(composition)


def _reference_regularity(a, tol):
    """regularity_check point by point: (index, |phi|, distance to the
    h_0-image, consistent) per sample."""
    rows = []
    for i, e in enumerate(a.sample_points):
        phi, _ = vertical_derivative(a, e)
        phi_norm = float(np.linalg.norm(phi))
        fixed = float(np.linalg.norm(e - a.evaluate(0.0, e)))
        rows.append((i, phi_norm, fixed, (phi_norm <= tol) == (fixed <= tol)))
    return tuple(rows)


def _stack_matches_points(a, tol):
    rows = a.sample_points
    for t in a.t_grid + [0.3, -1.7]:
        assert np.array_equal(a.evaluate(t, rows),
                              np.array([a.evaluate(t, e) for e in rows]))
    phis, errors = vertical_derivative(a, rows)
    per_point = [vertical_derivative(a, e) for e in rows]
    assert np.array_equal(phis, np.array([phi for phi, _ in per_point]))
    assert np.array_equal(errors, np.array([err for _, err in per_point]))
    assert all(isinstance(err, float) for _, err in per_point)
    audit = audit_axioms(a, tol)
    assert (audit.identity_violations, audit.composition_violations) == \
        _reference_audit(a, tol)
    report = regularity_check(a, tol=tol)
    reference = _reference_regularity(a, tol)
    assert tuple(zip(range(len(a.sample_points)), report.phi_norms.tolist(),
                     report.fixed_distances.tolist())) == tuple(
        row[:3] for row in reference)
    assert report.violating_indices == tuple(
        i for i, _, _, consistent in reference if not consistent)


class TestStacksMatchPoints:
    """The stacked audits agree bit for bit with point-by-point loops."""

    @pytest.mark.parametrize("name", ["scalar", "square_scale", "translate",
                                      "scale_last", "identity"])
    @pytest.mark.parametrize("samples", [R1_SAMPLES, R2_SAMPLES],
                             ids=["R1", "R2"])
    def test_builtins(self, name, samples):
        _stack_matches_points(action(name, samples), 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 3))
    def test_random_polynomials(self, seed, ambient):
        rng = np.random.default_rng(seed)
        coeffs, _ = _random_polynomial_action(rng, ambient, top_degree=3)
        samples = rng.uniform(-1.0, 1.0, size=(7, ambient))
        samples[0] = 0.0
        a = MonoidActionSample.polynomial(coeffs, ambient, samples)
        _stack_matches_points(a, 1e-6)

    def test_reconstruction_reads_each_derivative_once(self, monkeypatch):
        import svb.monoid
        calls = []
        original = svb.monoid.vertical_derivative
        monkeypatch.setattr(svb.monoid, "vertical_derivative",
                            lambda *args: calls.append(1) or original(*args))
        reconstruct_bundle(action("scalar", R2_SAMPLES), [[0.0, 0.0]],
                           cluster_radius=1e-9)
        assert len(calls) == 1


def _row_times(t, e):
    """The time of each row of an evaluator call, in row order."""
    return np.broadcast_to(t, (*e.shape[:-1], 1)).ravel()


def test_one_stack_evaluation_per_map(monkeypatch):
    # 2 + 2g calls: h_1, h_s over the g stacked (s, point) blocks, then
    # per outer time t the maps h_t of those rows and h_ts.
    a = action("scalar", R2_SAMPLES)
    calls = []
    original = a._evaluator
    monkeypatch.setattr(a, "_evaluator", lambda t, e: calls.append(
        _row_times(t, e).copy()) or original(t, e))
    audit_axioms(a)
    grid, n = np.array(a.t_grid), len(R2_SAMPLES)
    assert len(calls) == 2 + 2 * len(grid)
    assert np.array_equal(calls[0], np.ones(n))
    assert np.array_equal(calls[1], np.repeat(grid, n))
    for j, t in enumerate(grid):
        assert np.array_equal(calls[2 + 2 * j], np.full(len(grid) * n, t))
        assert np.array_equal(calls[3 + 2 * j], np.repeat(t * grid, n))


def _parent_audit(a, tol):
    """audit_axioms as one evaluation of the sample stack per map, the
    identity first and then h_t(h_s(e)) - h_ts(e) per pair (t, s): the
    residual table and both violation tuples."""
    pts = a.sample_points
    pairs = [(t, s) for t in a.t_grid for s in a.t_grid]
    residuals = _norms(np.concatenate([a.evaluate(1.0, pts) - pts] + [
        a.evaluate(t, a.evaluate(s, pts)) - a.evaluate(t * s, pts)
        for t, s in pairs])).reshape(1 + len(pairs), len(pts))
    found = [(k, int(i), float(residuals[k, i]))
             for k, i in zip(*np.nonzero(residuals > tol))]
    return residuals, (tuple((i, r) for k, i, r in found if k == 0),
                       tuple((*pairs[k - 1], i, r) for k, i, r in found if k))


_TINY = float(np.nextafter(0.0, 1.0))  # every nonzero residual violates


def _matches_parent(a):
    for tol in (_TINY, 1e-9):
        residuals, reference = _parent_audit(a, tol)
        audit = audit_axioms(a, tol)
        found = (audit.identity_violations, audit.composition_violations)
        assert found == reference
        # Violations list residuals in the table's row-major order.
        assert np.array_equal([v[-1] for v in found[0] + found[1]],
                              residuals[residuals > tol])


GRIDS = [(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
         (1.0, -3.0, 0.25, 0.0, -3.0, 1.0, 0.75, -0.125),
         (0.0, 1.0), (2.0, -1.0, 1.0, 0.0, 2.0)]


class TestBatchedAuditMatchesParent:
    """The 2 + 2g call audit reproduces, bit for bit, one evaluation of
    the sample stack per map, on grids with negative and repeated times."""

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", ["scalar", "square_scale", "translate",
                                      "scale_last", "identity"])
    def test_builtins(self, name, grid):
        for samples in (R1_SAMPLES, R2_SAMPLES):
            _matches_parent(MonoidActionSample.builtin(
                name, samples.shape[1], samples, t_grid=grid))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_bundle_scalar_action(self, grid):
        for make in (lambda: cone_bundle("pass", depth=12), step_rank_bundle):
            act, _, _ = bundle_scalar_action(make())
            _matches_parent(MonoidActionSample(
                act.ambient_dim, act.descriptor, act.sample_points, grid))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ambient=st.integers(1, 3),
           grid=st.sampled_from(GRIDS))
    def test_random_polynomials(self, seed, ambient, grid):
        rng = np.random.default_rng(seed)
        coeffs, _ = _random_polynomial_action(rng, ambient, top_degree=3)
        samples = rng.uniform(-1.0, 1.0, size=(5, ambient))
        _matches_parent(MonoidActionSample.polynomial(
            coeffs, ambient, samples, t_grid=grid))


def _poisoned(poison, grid=(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)):
    """Scalar multiplication of the point 3 on the line, except that the
    evaluator returns NaN at each (time, input) pair of ``poison``.  The
    input 3 s is h_s(3), so (t, 3 s) poisons h_t h_s, and (tau, 3)
    poisons h_tau wherever it is read: as h_s if tau is in the grid, or
    else as h_ts."""
    a = MonoidActionSample.builtin("scalar", 1, [[3.0]], t_grid=grid)
    original = a._evaluator
    calls = []

    def evaluator(t, e):
        times = _row_times(t, e).reshape(e.shape[:-1])
        calls.append(times)
        out = original(t, e)
        for time, value in poison:
            out[(times == time) & (e[..., 0] == value)] = np.nan
        return out

    a._evaluator = evaluator
    return a, calls


class TestNonFiniteBlocks:
    """A non-finite value names the time that one evaluation per map, in
    the order identity, then per (t, s): h_s, h_t h_s, h_ts, reaches
    first; no later outer time is evaluated."""

    @pytest.mark.parametrize("poison, named, outer, grid", [
        ([(1.0, 3.0)], 1.0, None, GRIDS[0]),        # the identity
        ([(-0.5, 3.0)], -0.5, -1.0, GRIDS[0]),      # h_s at (-1, -0.5)
        ([(2.0, 1.5)], 2.0, 2.0, GRIDS[0]),         # h_t h_s at (2, 0.5)
        ([(-0.25, 3.0)], -0.25, -0.5, GRIDS[0]),    # h_ts at (-0.5, 0.5)
        # A later h_s and an earlier composition: the composition first.
        ([(2.0, 3.0), (-1.0, 1.5)], -1.0, -1.0, GRIDS[0]),
        # An earlier h_s and a later composition: the h_s first.
        ([(0.5, 3.0), (-1.0, 6.0)], 0.5, -1.0, GRIDS[0]),
        # Within the outer time 3: h_9 at (3, 3) before h_3 h_5 at (3, 5),
        # and the other way round.
        ([(9.0, 3.0), (3.0, 15.0)], 9.0, 3.0, (0.0, 1.0, 3.0, 5.0)),
        ([(15.0, 3.0), (3.0, 9.0)], 3.0, 3.0, (0.0, 1.0, 3.0, 5.0)),
    ])
    def test_names_the_first_map_reached(self, poison, named, outer, grid):
        a, calls = _poisoned(poison, grid)
        with pytest.raises(ValueError) as parent:
            _parent_audit(a, 1e-9)
        calls.clear()
        with pytest.raises(ValueError, match="non-finite value") as batched:
            audit_axioms(a, 1e-9)
        assert str(batched.value) == str(parent.value) == \
            f"evaluator returned a non-finite value at t={named}"
        # h_1, the stacked h_s, then two calls per outer time reached.
        reached = 0 if outer is None else a.t_grid.index(outer) + 1
        assert len(calls) == (1 if outer is None else 2 + 2 * reached)

    def test_overflowing_evaluator(self):
        # h_t(e) = t e^2 on e = 1e100: h_1 and every h_s are finite, and
        # h_0(h_1(e)) = 0 * inf is the first NaN.
        a = MonoidActionSample.polynomial(
            [[{"powers": [1, 2], "coef": 1.0}]], 1, [[1e100]],
            t_grid=(2.0, 0.0, 1.0))
        with pytest.raises(ValueError) as parent:
            _parent_audit(a, 1e-9)
        with pytest.raises(ValueError) as batched:
            audit_axioms(a, 1e-9)
        assert str(batched.value) == str(parent.value)

    @pytest.mark.parametrize("poisoned_offset", [0, 1, 2, 3])
    def test_vertical_derivative_names_the_first_offset(self,
                                                        poisoned_offset):
        offsets = (1e-4, -1e-4, 5e-5, -5e-5)
        a, _ = _poisoned([(offsets[poisoned_offset], 3.0),
                          (offsets[3], 3.0)])
        with pytest.raises(ValueError, match=re.escape(
                f"at t={offsets[poisoned_offset]}")):
            vertical_derivative(a, [3.0], step=1e-4)


class TestToleranceValidation:
    """tol and step must be positive finite numbers: a NaN passes every
    threshold and an infinite step reads zeros."""

    BAD = [float("nan"), float("inf"), 0.0, -1e-8]

    @pytest.mark.parametrize("bad", BAD)
    def test_audit_axioms(self, bad):
        a = load_action("action_translate.json")
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            audit_axioms(a, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_regularity_check(self, bad):
        a = load_action("action_square_scale.json")
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            regularity_check(a, tol=bad)
        with pytest.raises(ValueError,
                           match="step must be a positive finite"):
            regularity_check(a, step=bad)
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            reconstruct_bundle(a, [[0.0]], tol=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_cluster_radius(self, bad):
        # A NaN or negative radius clustered nothing: rank-0 fibers.
        with pytest.raises(ValueError,
                           match="cluster_radius must be a positive finite"):
            reconstruct_bundle(action("scalar", R2_SAMPLES), [[0.0, 0.0]],
                               cluster_radius=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_vertical_derivative(self, bad):
        a = action("identity", R2_SAMPLES)
        with pytest.raises(ValueError,
                           match="step must be a positive finite"):
            vertical_derivative(a, R2_SAMPLES, step=bad)

    def test_smallest_positive_values_work(self):
        assert not audit_axioms(load_action("action_translate.json"), _TINY)
        assert audit_axioms(load_action("action_scalar.json"), _TINY)
        report = regularity_check(load_action("action_square_scale.json"),
                                  tol=_TINY)
        assert report.overall == "NOT_REGULAR"
        phi, err = vertical_derivative(action("identity", R2_SAMPLES),
                                       R2_SAMPLES, step=_TINY)
        assert not phi.any() and not err.any()
        phi, _ = vertical_derivative(action("scalar", R1_SAMPLES),
                                     R1_SAMPLES, step=1e-300)
        np.testing.assert_allclose(phi, R1_SAMPLES, rtol=1e-12)
        frag = reconstruct_bundle(action("scalar", R2_SAMPLES), [[0.0, 0.0]],
                                  cluster_radius=_TINY)
        assert frag.ranks == (2,)


def test_audit_memory_at_scale():
    """20,000 samples in R^3 on the default grid of g = 6 times: the
    peak stays within 1.25 x 2 (1 + g^2) n m 8 bytes (about 42 MiB),
    the peak of concatenating one residual stack per map."""
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1.0, 1.0, size=(20_000, 3))
    scalar = [[{"powers": [1] + [int(c == j) for c in range(3)],
                "coef": 1.0}] for j in range(3)]
    for a in (action("scalar", samples),
              MonoidActionSample.polynomial(scalar, 3, samples)):
        bound = 1.25 * 2 * (1 + len(a.t_grid) ** 2) * samples.size * 8
        tracemalloc.start()
        try:
            assert audit_axioms(a, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestNonFiniteResiduals:
    def test_overflowing_residual_is_an_error(self):
        # Every value is finite, but |h_t h_s(e) - h_ts(e)| ~ 1e200
        # overflows when squared.
        a = MonoidActionSample.polynomial(
            [[{"powers": [1, 0], "coef": 1e200}]], 1, [[1.0]],
            t_grid=(-1.0, 0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="non-finite residual"):
            audit_axioms(a)

    def test_overflow_names_its_sample(self):
        # h_t(e) = 1e150 t e: the composition residuals, 1e300 t s e at
        # most, square to infinity at e = 1 and to 0 at the origin, so
        # the column of sample 1 overflows.
        a = MonoidActionSample.polynomial(
            [[{"powers": [1, 1], "coef": 1e150}]], 1, [[0.0], [1.0]],
            t_grid=(-1.0, 0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match=re.escape(
                "non-finite residual at sample 1: a norm overflows")):
            audit_axioms(a)
        big = action("scalar", np.array([[0.0, 1.0], [1e300, 1e300]]))
        with pytest.raises(ValueError, match=re.escape(
                "non-finite residual at sample 1: a norm overflows")):
            vertical_derivative(big, big.sample_points)

    def test_stack_shape_is_checked(self):
        a = action("scalar", R2_SAMPLES)
        for bad in ([1.0, 2.0, 3.0], np.zeros((2, 3)), np.zeros((1, 2, 2)),
                    1.0):
            with pytest.raises(ValueError, match="stack of points"):
                a.evaluate(0.5, bad)
