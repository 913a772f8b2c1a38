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

from helpers import central_difference

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
         "ambient_dim must be at least 1, got 0"),
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


# Each built-in's h_t(e) and phi(e) in closed form, on an (n, m) stack.
CLOSED_FORMS = {
    "scalar": (lambda t, e: t * e, lambda e: e),
    "square_scale": (lambda t, e: (t * t) * e, lambda e: np.zeros_like(e)),
    "translate": (lambda t, e: e + t, lambda e: np.ones_like(e)),
    "scale_last": (lambda t, e: np.column_stack([e[:, :-1], t * e[:, -1]]),
                   lambda e: np.column_stack([np.zeros_like(e[:, :-1]),
                                              e[:, -1]])),
    "identity": (lambda t, e: e.copy(), lambda e: np.zeros_like(e)),
}


class TestVerticalDerivative:
    def test_scalar_multiplication_is_identity(self):
        a = action("scalar", R2_SAMPLES)
        phi = vertical_derivative(a, np.array([3.0, 4.0]))
        assert phi.tolist() == [3.0, 4.0]

    def test_square_scaling_has_zero_derivative(self):
        a = action("square_scale", R1_SAMPLES)
        assert vertical_derivative(a, np.array([5.0])).tolist() == [0.0]

    def test_identity_action(self):
        a = action("identity", R2_SAMPLES)
        assert vertical_derivative(a, np.array([1.0, 2.0])).tolist() == \
            [0.0, 0.0]

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_builtins_bit_for_bit(self, name, m):
        # e, 0, (1, ..., 1), (0, ..., 0, e_m) and 0, at random points,
        # the origin and points with zero and negative coordinates.
        rng = np.random.default_rng(m)
        pts = np.concatenate([rng.normal(size=(20, m)), np.zeros((1, m)),
                              -np.eye(m), rng.integers(-2, 3, size=(5, m))])
        phi = vertical_derivative(action(name, pts), pts)
        want = CLOSED_FORMS[name][1](pts)
        assert phi.shape == want.shape
        assert phi.tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_builtin_tables_equal_closed_forms(self, name, m):
        # Equal as numbers: a zero of the table may differ in sign only.
        rng = np.random.default_rng(10 + m)
        pts = np.concatenate([rng.normal(size=(30, m)), np.zeros((1, m))])
        a = action(name, pts)
        for t in np.concatenate([rng.normal(size=10) * 3.0,
                                 [0.0, -0.0, 1.0, -1.0]]):
            assert np.array_equal(a.evaluate(t, pts),
                                  CLOSED_FORMS[name][0](t, pts))

    def test_reads_the_terms_linear_in_t(self):
        # h_t(e) = 3 + 2 t e_1 e_2 + 5 t^2 + t e_2^3 on R^2, per coordinate.
        a = MonoidActionSample.polynomial(
            [[{"powers": [0, 0, 0], "coef": 3.0},
              {"powers": [1, 1, 1], "coef": 2.0}],
             [{"powers": [2, 0, 0], "coef": 5.0},
              {"powers": [1, 0, 3], "coef": 1.0}]], 2, R2_SAMPLES)
        phi = vertical_derivative(a, R2_SAMPLES)
        x, y = R2_SAMPLES.T
        assert np.array_equal(phi, np.column_stack([2.0 * x * y, y ** 3]))


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
            assert phi_norm == c
            assert fixed == 0.0
        assert bool(report) is regular
        assert report.violating_indices == (() if regular else (0, 1))


def _points(rows, name="S", dim=0):
    """One stratum over ``rows``."""
    return Stratification([Stratum(name, dim, np.asarray(rows, float))])


def _point_strata(rows):
    """One stratum per row, so that every point may carry its own rank."""
    return Stratification([Stratum(f"p{i}", 0, [row])
                           for i, row in enumerate(np.asarray(rows, float))])


def _fibers(bundle):
    """The fibers of ``bundle`` in point order."""
    return [bundle.fiber(key) for key in bundle.point_keys()]


class TestReconstructBundle:
    def test_scale_last_recovers_vertical_axis(self):
        # Samples must include points above each base point, otherwise the
        # recovered fiber over it is empty.
        samples = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0], [3.0, 4.0],
                            [0.0, 0.0]])
        a = action("scale_last", samples)
        got = reconstruct_bundle(
            a, _points([[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]]),
            cluster_radius=1e-9)
        assert got.stratum_rank == {"S": 1}
        assert got.stacks["S"].shape == (3, 1, 2)
        for fiber in _fibers(got):
            assert gap_distance(fiber, span([(0.0, 1.0)], 2)) <= 1e-9

    def test_scalar_over_origin_recovers_everything(self):
        a = action("scalar", R2_SAMPLES)
        got = reconstruct_bundle(a, _points([[0.0, 0.0]]),
                                 cluster_radius=1e-9)
        assert got.stratum_rank == {"S": 2}

    def test_identity_action_gives_rank_zero(self):
        a = action("identity", R2_SAMPLES)
        got = reconstruct_bundle(a, _points(R2_SAMPLES), cluster_radius=1e-9)
        assert got.stratum_rank == {"S": 0}
        assert got.stacks["S"].shape == (len(R2_SAMPLES), 0, 2)

    def test_not_regular_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            reconstruct_bundle(action("square_scale", R1_SAMPLES),
                               _points([[0.0]]), tol=1e-6)

    def test_bundle_over_the_declared_base(self):
        act, base, expected = bundle_scalar_action(cone_bundle("pass", 4))
        got = reconstruct_bundle(act, base)
        assert got.base is base
        assert got.fiber_ambient == expected.fiber_ambient == 3
        assert got.stratum_rank == expected.stratum_rank

    @pytest.mark.parametrize("rows, ranks", [
        ([[0.0, 0.0], [2.0, 0.0]], {"p0": 1, "p1": 0}),
        ([[2.0, 0.0], [0.0, 0.0]], {"p0": 1, "p1": 0})],
        ids=["origin-first", "origin-second"])
    def test_an_equidistant_image_goes_to_the_lower_row(self, rows, ranks):
        # The image (1, 0) of the one sample (1, 1) lies at 1 from both
        # base points.
        a = action("scale_last", np.array([[1.0, 1.0]]))
        got = reconstruct_bundle(a, _point_strata(rows), cluster_radius=1.5)
        assert got.stratum_rank == ranks

    def test_close_base_points_keep_their_own_samples(self):
        # Base points 2^-40 apart, far inside the cluster radius: each
        # sample goes to the base point its image is nearest to.
        act, base, expected = bundle_scalar_action(cone_bundle("pass", 40))
        got = reconstruct_bundle(act, base)
        assert got.stratum_rank == expected.stratum_rank == {
            "S0": 1, "S+": 1, "S-": 1}
        for key in got.point_keys():
            assert gap_distance(got.fiber(key), expected.fiber(key)) <= 1e-12


def _nearest_fibers(a, base, cluster_radius):
    """The samples of each base point by brute force: each h_0-image goes
    to the argmin of its distances to the base points within the radius,
    the lower row on a tie."""
    _, _, images = _classify(a, 1e-8)
    pts = base._cloud
    clusters = [[] for _ in pts]
    for i, image in enumerate(images):
        d = np.linalg.norm(pts - image, axis=1)
        if (d <= cluster_radius).any():
            clusters[int(np.argmin(np.where(d <= cluster_radius, d,
                                            np.inf)))].append(i)
    return clusters


def _scan_fibers(a, base, cluster_radius):
    """The fibers of ``reconstruct_bundle`` by brute force: one
    ``span`` of the vertical derivatives of each base point's samples
    (``_nearest_fibers``), each cluster spanned on its own."""
    _, phis, _ = _classify(a, 1e-8)
    return [span(phis[c], a.ambient_dim) if c else
            Subspace.zero(a.ambient_dim)
            for c in _nearest_fibers(a, base, cluster_radius)]


def _scalar_trivial(points, seed=0):
    rng = np.random.default_rng(seed)
    return bundle_scalar_action(trivial_bundle(Stratification(
        [Stratum("bulk", 2, rng.uniform(-1.0, 1.0, (points, 2)))]), 2))


class TestReconstructInput:
    def test_base_samples_of_the_wrong_width(self):
        a = MonoidActionSample.builtin("scale_last", 2, R2_SAMPLES)
        with pytest.raises(ValueError, match="^base samples have the wrong "
                           "ambient dimension$"):
            reconstruct_bundle(a, _points([[0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("name, row", [("S0", 0), ("S+", 1)],
                             ids=["0", "2"])
    @pytest.mark.parametrize("value", [
        np.nan, np.inf, -np.inf, np.nextafter(2.0 ** 500, np.inf),
        -np.nextafter(2.0 ** 500, np.inf)],
        ids=["nan", "inf", "-inf", "above", "-above"])
    def test_far_base_sample_named(self, name, row, value):
        # Unchecked, such a sample would meet no cluster: a rank-0 fiber.
        # The base is a stratification, which refuses it by stratum.
        _, base, _ = bundle_scalar_action(cone_bundle("pass", 4))
        points = np.array(base.stratum(name).points)
        points[row, 0] = value
        with pytest.raises(ValueError, match="^stratum " + re.escape(
                repr(name)) + " has a (non-finite sample point|sample "
                "coordinate beyond)"):
            Stratification([Stratum(name, 1, points)])

    def test_base_sample_at_the_bound(self):
        act, base, expected = bundle_scalar_action(cone_bundle("pass", 4))
        got = reconstruct_bundle(act, base)
        assert got.stratum_rank == expected.stratum_rank == {
            "S0": 1, "S+": 1, "S-": 1}
        # Far from every cluster, yet within the bound: rank 0, no error.
        minus = base.stratum("S-").points
        far = Stratification([
            Stratum("S0", 0, [[2.0 ** 500, 0.0, 0.0]]), base.stratum("S+"),
            Stratum("S-", 1, np.column_stack([
                np.full(len(minus), -2.0 ** 500), minus[:, 0],
                np.zeros(len(minus))]))])
        moved = reconstruct_bundle(act, far)
        assert moved.stratum_rank == {"S0": 0, "S+": 1, "S-": 0}
        assert moved.stacks["S+"].tobytes() == got.stacks["S+"].tobytes()

    def test_an_unreached_point_names_its_stratum_rank(self):
        # (0.75, 0, 0) lies on S+ but no sample's image reaches it.
        act, base, _ = bundle_scalar_action(cone_bundle("pass", 4))
        plus = np.concatenate([base.stratum("S+").points, [[0.75, 0.0, 0.0]]])
        mixed = Stratification([base.stratum("S0"), Stratum("S+", 1, plus),
                                base.stratum("S-")])
        with pytest.raises(ValueError, match=re.escape(
                "fiber over ('S+', 5) has rank 0, the fiber over ('S+', 0) "
                "has rank 1")):
            reconstruct_bundle(act, mixed)


class TestClustersByNearPairs:
    """One nearest-base-point pass and one SVD stack per cluster size give
    the bases that a brute-force nearest match and one ``span`` per base
    point give, bit for bit."""

    @pytest.mark.parametrize("points", [100, 400])
    @pytest.mark.parametrize("radius, shift", [
        (CLUSTER_RADIUS, 0.0), (0.05, 0.0), (0.3, 0.0), (0.05, 0.03)],
        ids=["default", "r0.05", "r0.3", "shifted"])
    def test_bases_equal_the_scan(self, points, radius, shift):
        a, base, _ = _scalar_trivial(points)
        # Every third base point, and two points 2^-24 apart whose
        # midpoint is the h_0-image of one more sample: a tie within
        # every radius, which the lower row wins.
        tied = 5.0 + 2.0 ** -25
        a = MonoidActionSample(a.ambient_dim, a.descriptor, np.concatenate(
            [a.sample_points, [[tied, 5.0, 1.0, 0.0]]]), a.t_grid)
        base = _point_strata(np.concatenate([
            base._cloud[::3] + shift,
            [[5.0, 5.0, 0.0, 0.0], [5.0 + 2.0 ** -24, 5.0, 0.0, 0.0]]]))
        got = reconstruct_bundle(a, base, tol=1e-8, cluster_radius=radius)
        want = _scan_fibers(a, base, radius)
        assert [got.stratum_rank[s.name] for s in base.strata] == [
            w.dim for w in want]
        assert [w.dim for w in want[-2:]] == [1, 0]
        for got_fiber, w in zip(_fibers(got), want):
            assert got_fiber.basis.shape == w.basis.shape
            assert got_fiber.basis.tobytes() == w.basis.tobytes()

    def test_one_svd_stack_per_cluster_size(self, monkeypatch):
        a, base, _ = _scalar_trivial(100)
        radius = 0.3
        base = _point_strata(base._cloud[::5])
        sizes = {len(c) for c in _nearest_fibers(a, base, radius)} - {0}
        assert len(sizes) > 3
        calls = []
        stack = svb.monoid._span_rank
        monkeypatch.setattr(svb.monoid, "_span_rank",
                            lambda m, *args: calls.append(m.shape[1])
                            or stack(m, *args))
        reconstruct_bundle(a, base, tol=1e-8, cluster_radius=radius)
        assert sorted(calls) == sorted(sizes)

    def test_base_without_clusters(self):
        a = action("scalar", R2_SAMPLES)
        got = reconstruct_bundle(a, _points([[9.0, 9.0], [-9.0, 0.0]]),
                                 cluster_radius=1e-9)
        assert got.stratum_rank == {"S": 0}
        assert got.stacks["S"].shape == (2, 0, 2)


@pytest.mark.parametrize("make", [lambda: cone_bundle("pass", depth=12),
                                  step_rank_bundle],
                         ids=["cone", "step_rank"])
class TestBundleScalarAction:
    def test_regular_and_recovered(self, make):
        bundle = make()
        act, base, expected = bundle_scalar_action(bundle)
        assert audit_axioms(act, 1e-10).passed
        assert regularity_check(act, tol=1e-8).overall == "REGULAR"
        got = reconstruct_bundle(act, base)
        assert got.stratum_rank == expected.stratum_rank == bundle.stratum_rank
        for fiber, want in zip(_fibers(got), _fibers(expected)):
            assert gap_distance(fiber, want) <= 1e-6

    def test_zero_section_base(self, make):
        bundle = make()
        _, base, expected = bundle_scalar_action(bundle)
        k = bundle.fiber_ambient
        assert [(s.name, s.dim) for s in base.strata] == [
            (s.name, s.dim) for s in bundle.base.strata]
        assert base.closure_order == bundle.base.closure_order
        assert np.array_equal(base._cloud[:, :-k], bundle.base._cloud)
        assert not base._cloud[:, -k:].any()
        for name, stack in expected.stacks.items():
            assert not stack[..., :-k].any()
            assert np.array_equal(stack[..., -k:], bundle.stacks[name])


def _random_polynomial_action(rng, ambient, top_degree=5):
    """Polynomial in t with vector coefficients that are monomials in e;
    the exact t-derivative at 0 is the degree-1 coefficient.  Degree 5
    gives a finite difference genuine truncation error."""
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


def test_exact_derivative_near_central_differences():
    """On 300 seeded random tables of degree 5 in t, 9 points each: the
    exact phi is the closed form of its degree-1 coefficient, within
    1e-9 of the refined central difference (whose rounding error is
    about 6 eps max|h| / step, below 1e-10 here), and the regularity
    verdicts of both are equal."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        ambient = 1 + seed % 3
        coeffs, exact = _random_polynomial_action(rng, ambient)
        samples = rng.uniform(-1.0, 1.0, size=(9, ambient))
        samples[0] = 0.0
        a = MonoidActionSample.polynomial(coeffs, ambient, samples)
        phis = vertical_derivative(a, samples)
        np.testing.assert_allclose(
            phis, [exact(e) for e in samples], rtol=1e-14, atol=1e-15)
        reference = central_difference(a, samples)
        assert np.abs(phis - reference).max() <= 1e-9
        fixed = np.linalg.norm(samples - a.evaluate(0.0, samples), axis=1)
        consistent = (np.linalg.norm(reference, axis=1) <= TOL_CHECK) == \
            (fixed <= TOL_CHECK)
        assert regularity_check(a).violating_indices == tuple(
            np.flatnonzero(~consistent).tolist())


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
        phi = vertical_derivative(a, e)
        phi_norm = float(np.linalg.norm(phi))
        fixed = float(np.linalg.norm(e - a.evaluate(0.0, e)))
        rows.append((i, phi_norm, fixed, (phi_norm <= tol) == (fixed <= tol)))
    return tuple(rows)


def _stack_matches_points(a, tol):
    rows = a.sample_points
    for t in a.t_grid + [0.3, -1.7]:
        assert np.array_equal(a.evaluate(t, rows),
                              np.array([a.evaluate(t, e) for e in rows]))
    assert np.array_equal(vertical_derivative(a, rows),
                          np.array([vertical_derivative(a, e) for e in rows]))
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
        reconstruct_bundle(action("scalar", R2_SAMPLES),
                           _points([[0.0, 0.0]]), cluster_radius=1e-9)
        assert len(calls) == 1


def _row_times(times, rows):
    """The time of each row of a ``_blocks`` call, as a (b, n) array."""
    return np.broadcast_to(np.asarray(times, dtype=float)[:, None],
                           rows.shape[:-1])


def test_one_stack_evaluation_per_map(monkeypatch):
    # 2 + 2g calls: h_1, h_s over the g stacked (s, point) blocks, then
    # per outer time t the maps h_t of those rows and h_ts.
    a = action("scalar", R2_SAMPLES)
    calls = []
    original = a._blocks
    monkeypatch.setattr(a, "_blocks", lambda times, rows: calls.append(
        _row_times(times, rows).ravel()) or original(times, rows))
    audit_axioms(a)
    grid, n = np.array(a.t_grid), len(R2_SAMPLES)
    assert len(calls) == 2 + 2 * len(grid)
    assert np.array_equal(calls[0], np.ones(n))
    assert np.array_equal(calls[1], np.repeat(grid, n))
    for j, t in enumerate(grid):
        assert np.array_equal(calls[2 + 2 * j], np.full(len(grid) * n, t))
        assert np.array_equal(calls[3 + 2 * j], np.repeat(t * grid, n))


def _outer(a, t, values):
    """h_t of the values of another map, by one evaluation, raising as
    ``evaluate`` raises at a non-finite value.  The values are images,
    not samples, so the sample rule, which refuses one beyond ±2^500,
    does not read them."""
    out = a._blocks([t], values[None])[0]
    if not np.isfinite(out).all():
        raise ValueError(f"evaluator returned a non-finite value at t={t}")
    return out


def _parent_audit(a, tol):
    """audit_axioms as one evaluation of the sample stack per map, the
    identity first and then h_t(h_s(e)) - h_ts(e) per pair (t, s): the
    residual table and both violation tuples."""
    pts = a.sample_points
    pairs = [(t, s) for t in a.t_grid for s in a.t_grid]
    residuals = _norms(np.concatenate([a.evaluate(1.0, pts) - pts] + [
        _outer(a, t, a.evaluate(s, pts)) - a.evaluate(t * s, pts)
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
    ``_blocks`` returns NaN at each (time, input) pair of ``poison``.  The
    input 3 s is h_s(3), so (t, 3 s) poisons h_t h_s, and (tau, 3)
    poisons h_tau wherever it is read: as h_s if tau is in the grid, or
    else as h_ts."""
    a = MonoidActionSample.builtin("scalar", 1, [[3.0]], t_grid=grid)
    original = a._blocks
    calls = []

    def blocks(times, rows):
        row_times = _row_times(times, rows)
        calls.append(row_times)
        out = original(times, rows)
        for time, value in poison:
            out[(row_times == time) & (rows[..., 0] == value)] = np.nan
        return out

    a._blocks = blocks
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

    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    def test_vertical_derivative_names_the_first_sample(self, first):
        # phi(e) = 1e300 e^2 overflows at e = 1e10, here at sample
        # ``first`` and at the last sample.
        samples = np.ones((4, 1))
        samples[[first, 3]] = 1e10
        a = MonoidActionSample.polynomial(
            [[{"powers": [1, 2], "coef": 1e300}]], 1, np.ones((1, 1)))
        with pytest.raises(ValueError, match=re.escape(
                f"non-finite vertical derivative at sample {first}")):
            vertical_derivative(a, samples)
        with pytest.raises(ValueError, match=re.escape(
                "non-finite vertical derivative at sample 0")):
            vertical_derivative(a, samples[first])
        b = MonoidActionSample.polynomial(
            [[{"powers": [1, 2], "coef": 1e300}]], 1, samples)
        with pytest.raises(ValueError, match=re.escape(
                f"non-finite vertical derivative at sample {first}")):
            regularity_check(b)


class TestToleranceValidation:
    """tol and cluster_radius must be positive finite numbers: a NaN
    passes every threshold and an infinite one passes all."""

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
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            reconstruct_bundle(a, _points([[0.0]]), tol=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_cluster_radius(self, bad):
        # A NaN or negative radius clustered nothing: rank-0 fibers.
        with pytest.raises(ValueError,
                           match="cluster_radius must be a positive finite"):
            reconstruct_bundle(action("scalar", R2_SAMPLES),
                               _points([[0.0, 0.0]]), cluster_radius=bad)

    def test_smallest_positive_values_work(self):
        assert not audit_axioms(load_action("action_translate.json"), _TINY)
        assert audit_axioms(load_action("action_scalar.json"), _TINY)
        report = regularity_check(load_action("action_square_scale.json"),
                                  tol=_TINY)
        assert report.overall == "NOT_REGULAR"
        got = reconstruct_bundle(action("scalar", R2_SAMPLES),
                                 _points([[0.0, 0.0]]), cluster_radius=_TINY)
        assert got.stratum_rank == {"S": 2}


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
        # A sample of 1e300 is refused; within the bound, phi = 1e10 e is
        # finite, and |phi| overflows at sample 1.
        with pytest.raises(ValueError, match=re.escape(
                "sample point 1 has a coordinate that is not finite or "
                "beyond ±2^500")):
            action("scalar", np.array([[0.0, 1.0], [1e300, 1e300]]))
        big = MonoidActionSample.polynomial(
            [[{"powers": [1, 1, 0], "coef": 1e10}],
             [{"powers": [1, 0, 1], "coef": 1e10}]], 2,
            [[0.0, 1.0], [1e150, 1e150]])
        assert np.array_equal(vertical_derivative(big, big.sample_points),
                              1e10 * big.sample_points)
        with pytest.raises(ValueError, match=re.escape(
                "non-finite residual at sample 1: a norm overflows")):
            regularity_check(big)

    def test_stack_shape_is_checked(self):
        a = action("scalar", R2_SAMPLES)
        wrong = "sample points have the wrong ambient dimension"
        for bad, message in (
                ([1.0, 2.0, 3.0], wrong), (np.zeros((2, 3)), wrong),
                (np.zeros((1, 2, 2)),
                 "expected rows of numbers, got shape (1, 2, 2)"),
                (1.0, wrong)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                a.evaluate(0.5, bad)
