import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svb.fixtures import bundle_scalar_action, cone_bundle, step_rank_bundle
from svb.grassmann import gap_distance, span
from svb.monoid import (
    MonoidActionSample,
    audit_axioms,
    reconstruct_bundle,
    regularity_check,
    vertical_derivative,
)

R2_SAMPLES = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-1.0, 0.5],
                       [0.0, 0.0]])
R1_SAMPLES = np.array([[1.0], [-0.5], [2.0], [0.0]])


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
    assert tuple((p.index, p.phi_norm, p.fixed_distance, p.consistent)
                 for p in report.points) == reference
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


def test_one_stack_evaluation_per_map(monkeypatch):
    a = action("scalar", R2_SAMPLES)
    shapes = []
    original = a._evaluator
    monkeypatch.setattr(a, "_evaluator",
                        lambda t, e: shapes.append(e.shape) or original(t, e))
    audit_axioms(a)
    assert shapes == [R2_SAMPLES.shape] * (1 + 3 * len(a.t_grid) ** 2)


class TestNonFiniteResiduals:
    def test_overflowing_residual_is_an_error(self):
        # Every value is finite, but |h_t h_s(e) - h_ts(e)| ~ 1e200
        # overflows when squared.
        a = MonoidActionSample.polynomial(
            [[{"powers": [1, 0], "coef": 1e200}]], 1, [[1.0]],
            t_grid=(-1.0, 0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="non-finite residual"):
            audit_axioms(a)

    def test_stack_shape_is_checked(self):
        a = action("scalar", R2_SAMPLES)
        for bad in ([1.0, 2.0, 3.0], np.zeros((2, 3)), np.zeros((1, 2, 2)),
                    1.0):
            with pytest.raises(ValueError, match="stack of points"):
                a.evaluate(0.5, bad)
