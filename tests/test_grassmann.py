import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svb import grassmann
from svb.config import TOL_CHECK
from svb.grassmann import (
    Subspace,
    _distinct,
    _runs,
    apply_linear_map,
    containment_residual,
    gap_distance,
    intersection,
    opnorms,
    orthonormal_rows,
    sequence_limit,
    span,
)


def line(*coords):
    return span([coords], len(coords))


def random_subspace(rng, ambient, dim):
    if dim == 0:
        return Subspace.zero(ambient)
    return span(rng.standard_normal((dim, ambient)), ambient)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestOpnorms:
    """The Gram eigenvalue route against numpy's SVD norm."""

    @staticmethod
    def reference(mats):
        return np.linalg.norm(mats, 2, axis=(-2, -1))

    @pytest.mark.parametrize("shape", [(1, 210, 210), (150, 15, 15),
                                       (20, 30, 5), (20, 5, 30), (6, 1, 1)],
                             ids=["210", "150x15", "tall", "wide", "1x1"])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150, 1e160])
    def test_random_stacks(self, shape, scale):
        mats = scale * np.random.default_rng(sum(shape)).standard_normal(shape)
        np.testing.assert_allclose(opnorms(mats), self.reference(mats),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150, 1e160])
    def test_no_symmetry_assumed(self, scale):
        # Strictly upper triangular and skew matrices: the lower triangle
        # alone would read 0 and a wrong norm.
        rng = np.random.default_rng(4)
        mats = scale * rng.standard_normal((40, 6, 6))
        for stack in (np.triu(mats, 1), mats - mats.swapaxes(-1, -2)):
            np.testing.assert_allclose(opnorms(stack), self.reference(stack),
                                       rtol=1e-14, atol=0)

    def test_empty_and_zero(self):
        assert opnorms(np.zeros((0, 0))) == 0.0
        assert opnorms(np.zeros((3, 0, 0))).tolist() == [0.0] * 3
        assert opnorms(np.zeros((2, 4, 0))).tolist() == [0.0] * 2
        assert opnorms(np.zeros((0, 3, 3))).shape == (0,)
        zeros = opnorms(np.zeros((2, 3, 5)))
        assert zeros.tolist() == [0.0, 0.0]
        assert not np.signbit(zeros).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_nan(self, bad):
        mats = np.ones((3, 2, 4))
        mats[1, 1, 2] = bad
        out = opnorms(mats)
        assert np.isnan(out[1])
        np.testing.assert_allclose(out[[0, 2]], self.reference(mats[[0, 2]]),
                                   rtol=1e-14)

    def test_symmetric_stacks(self):
        # The equivariance defects and the orthogonality defects of a
        # group are symmetric; a NaN on the diagonal reads NaN, not 0.
        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 7):
            a = rng.normal(size=(40, size, size))
            sym = a + a.swapaxes(1, 2)
            np.testing.assert_allclose(opnorms(sym), self.reference(sym),
                                       rtol=1e-12, atol=0)
        out = opnorms(np.array([[[np.nan, 0.0], [0.0, 1.0]],
                                [[np.inf, 0.0], [0.0, 1.0]],
                                [[2.0, 0.0], [0.0, -3.0]]]))
        assert np.isnan(out[:2]).all() and out[2] == 3.0


class TestOpnorm:
    """``opnorms`` on one matrix and on stacks, and the floats that
    ``gap_distance`` and ``containment_residual`` read off it."""

    def test_matrix_is_a_float(self):
        a = np.random.default_rng(1).standard_normal((4, 6))
        got = opnorms(a)
        assert got.shape == ()
        assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-14, abs=0)
        assert opnorms(a.tolist()) == got
        w, v = line(1.0, 2.0, 0.0), span(np.eye(3)[:2], 3)
        assert type(gap_distance(w, v)) is float
        ok, residual = containment_residual(w, v)
        assert type(residual) is float and ok

    @pytest.mark.parametrize("shape", [(7, 3, 5), (2, 5, 6, 2), (4, 1, 1),
                                       (3, 8, 8)])
    def test_stack_is_per_matrix_bit_for_bit(self, shape):
        mats = np.random.default_rng(2).standard_normal(shape)
        got = opnorms(mats)
        assert got.shape == shape[:-2]
        flat = mats.reshape(-1, *shape[-2:])
        assert got.ravel().tolist() == [float(opnorms(m)) for m in flat]
        np.testing.assert_allclose(
            got.ravel(), [np.linalg.norm(m, 2) for m in flat],
            rtol=1e-14, atol=0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_zero_size_matrix_is_zero(self, shape):
        got = opnorms(np.zeros(shape))
        assert got.shape == () and got == 0.0

    def test_zero_size_stacks(self):
        assert opnorms(np.zeros((4, 0, 0))).tolist() == [0.0] * 4
        assert opnorms(np.zeros((2, 3, 0))).tolist() == [0.0] * 2
        assert opnorms(np.zeros((0, 3, 3))).shape == (0,)

    def test_ambient_zero_subspaces(self):
        zero = Subspace.zero(0)
        assert type(gap_distance(zero, zero)) is float
        assert gap_distance(zero, zero) == 0.0
        ok, residual = containment_residual(zero, zero, 1e-9)
        assert type(residual) is float and (ok, residual) == (True, 0.0)
        assert sequence_limit([zero] * 3, tail_len=3) is zero
        assert sequence_limit([line(1, 0)], tail_len=1) is not None


class TestRuns:
    @pytest.mark.parametrize("keys, starts", [
        ([], []), ([4], [0]), ([1, 1, 1], [0]), ([-2, 0, 0, 3, 3, 3, 9],
                                                  [0, 1, 3, 6])],
        ids=["empty", "one", "one-run", "several"])
    def test_run_starts(self, keys, starts):
        assert _runs(np.array(keys, dtype=np.int64)).tolist() == starts


class TestDistinct:
    """One sort and a run test against numpy's unique."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3),
                              st.integers(-2 ** 63, 2 ** 63 - 1)),
                    max_size=40))
    def test_equals_np_unique(self, values):
        a = np.array(values, dtype=np.int64)
        got = _distinct(a)
        assert got.dtype == a.dtype
        assert np.array_equal(got, np.unique(a))

    @pytest.mark.parametrize("values", [[], [7], [-5], [2, 2, 2], [-1, 0, -1],
                                        [[3, -2], [3, 9]]],
                             ids=["empty", "one", "negative", "repeated",
                                  "mixed-sign", "two-d"])
    def test_edge_cases(self, values):
        a = np.array(values, dtype=np.intp)
        got = _distinct(a)
        assert got.dtype == a.dtype and got.ndim == 1
        assert np.array_equal(got, np.unique(a))


class TestSubspace:
    def test_rejects_basis_off_unit_length(self):
        # 1.000005 passes a relative 1e-5 test; the bound is absolute.
        with pytest.raises(ValueError):
            Subspace(1, [[1.000005]])
        with pytest.raises(ValueError):
            Subspace(2, [[1.0, 0.0], [0.0, 1.0 + 1e-9]])
        assert Subspace(2, [[1.0, 0.0], [0.0, 1.0 + 1e-12]]).dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_basis(self, bad):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, [[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, [[bad, 0.0]])

    @pytest.mark.parametrize("basis", [
        [[1e200, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1e200, 0.0]],
        [[1e155, 0.0], [0.0, 1.0]], [[1e200, 1e200], [1e200, -1e200]]],
        ids=["over", "negative", "square-over", "inf-minus-inf"])
    def test_overflowing_basis_fails_quietly(self, basis):
        # The Gram product overflows, or subtracts infinities; the
        # suite turns a numpy RuntimeWarning into an error.
        assert orthonormal_rows(np.stack([np.eye(2), basis])).tolist() == [
            True, False]
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, basis)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_gram_bound_on_both_sides(self, tol):
        # The Gram entry of a 1-vector basis [x] is x^2.
        assert Subspace(1, [[np.sqrt(1 + 0.9 * tol)]], tol_ortho=tol).dim == 1
        with pytest.raises(ValueError):
            Subspace(1, [[np.sqrt(1 + 1.1 * tol)]], tol_ortho=tol)
        tilted = [[1.0, 0.0], [0.9 * tol, 1.0]]
        assert Subspace(2, tilted, tol_ortho=tol).dim == 2
        with pytest.raises(ValueError):
            Subspace(2, [[1.0, 0.0], [1.1 * tol, 1.0]], tol_ortho=tol)

    def test_empty_basis_passes(self):
        assert Subspace(3, np.zeros((0, 3))).dim == 0
        assert Subspace(0, []).dim == 0


class TestSpan:
    def test_full_space(self):
        w = span([(1, 0), (0, 1)], 2)
        np.testing.assert_allclose(w.projection, np.eye(2), atol=1e-14)

    def test_normalization(self):
        w = span([(2, 0)], 2)
        assert w.dim == 1
        np.testing.assert_allclose(w.projection, np.diag([1.0, 0.0]), atol=1e-14)

    def test_dependent_vectors_drop_rank(self):
        # Oracle: the Gram matrix of {(1,1),(2,2)} is [[2,4],[4,8]] with
        # eigenvalues {10, 0}, so the span has rank 1 along (1,1)/sqrt(2).
        gram = np.array([[2.0, 4.0], [4.0, 8.0]])
        eigvals = np.linalg.eigvalsh(gram)
        assert np.sum(eigvals > 1e-12) == 1
        w = span([(1, 1), (2, 2)], 2)
        assert w.dim == 1
        np.testing.assert_allclose(w.projection, np.full((2, 2), 0.5), atol=1e-14)

    def test_empty_input_is_zero_subspace(self):
        w = span([], 3)
        assert w.dim == 0
        np.testing.assert_allclose(w.projection, np.zeros((3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span([(1, 0, 0)], 2)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_vectors_refused(self, value):
        # inf read the zero subspace and NaN an SVD that did not converge.
        with pytest.raises(ValueError, match=re.escape(
                "vector 1 has a non-finite entry")):
            span([[1.0, 0.0], [value, 1.0], [0.0, value]], 2)


class TestGapDistance:
    def test_identical(self):
        assert gap_distance(line(1, 0), line(1, 0)) == 0.0

    def test_orthogonal_lines(self):
        # Oracle: P_{e1} - P_{e2} = diag(1, -1) with spectrum {1, -1}.
        diff = np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])
        assert max(abs(np.linalg.eigvalsh(diff))) == 1.0
        assert gap_distance(line(1, 0), line(0, 1)) == pytest.approx(1.0)

    def test_tilted_line(self):
        theta = np.pi / 6
        w = line(np.cos(theta), np.sin(theta))
        # Oracle: direct SVD of the explicit 2x2 projection difference.
        direct = np.linalg.svd(line(1, 0).projection - w.projection,
                               compute_uv=False)[0]
        assert direct == pytest.approx(abs(np.sin(theta)), abs=1e-12)
        assert gap_distance(line(1, 0), w) == pytest.approx(0.5, abs=1e-12)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            gap_distance(line(1, 0), line(1, 0, 0))


class TestIsContained:
    def test_everything_in_full_space(self):
        assert containment_residual(line(1, 0), Subspace(2, np.eye(2)),
                                    1e-10)[0]

    def test_orthogonal_complement(self):
        assert not containment_residual(line(0, 1), line(1, 0), 1e-10)[0]

    def test_line_in_plane(self):
        w = line(1, 1, 0)
        v = span([(1, 0, 0), (0, 1, 0)], 3)
        # Oracle: P_v P_w = P_w exactly because (1,1,0) lies in the xy-plane.
        assert np.allclose(v.projection @ w.projection, w.projection)
        assert containment_residual(w, v, 1e-10)[0]

    def test_residual_of_orthogonal_line_is_one(self):
        ok, residual = containment_residual(line(0, 1), line(1, 0), 1e-10)
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-12)


class TestSequenceLimit:
    def test_constant_sequence(self):
        seq = [line(1, 0)] * 10
        limit = sequence_limit(seq, tol=1e-12, tail_len=5)
        assert limit is not None
        assert gap_distance(limit, line(1, 0)) == 0.0

    def test_converging_lines(self):
        seq = [line(1.0, 1.0 / k) for k in range(1, 51)]
        limit = sequence_limit(seq, tol=1e-2, tail_len=5)
        assert limit is not None
        # Oracle: the recovered subspace is the final line of the sequence;
        # closed form for the line at angle arctan(1/50).
        final = np.array([1.0, 1.0 / 50])
        final /= np.linalg.norm(final)
        assert gap_distance(limit, span([final], 2)) <= 1e-12
        # Closed-form gap to the e1-axis is sin(arctan(1/50)) ~ 0.02.
        expected_gap = abs(np.sin(np.arctan(1.0 / 50)))
        assert gap_distance(limit, line(1, 0)) == pytest.approx(expected_gap,
                                                                abs=1e-12)
        assert gap_distance(limit, line(1, 0)) < 2.5e-2

    def test_alternating_has_no_limit(self):
        seq = [line(1, 0), line(0, 1)] * 5
        assert sequence_limit(seq, tol=0.5, tail_len=4) is None

    def test_tail_longer_than_sequence(self):
        seq = [line(1, 0)] * 3
        with pytest.raises(ValueError):
            sequence_limit(seq, tol=1e-6, tail_len=4)

    def test_rank_is_forced(self):
        seq = [line(1.0, 1e-9)] * 6
        limit = sequence_limit(seq, tol=1e-6, tail_len=6)
        assert limit.dim == 1

    def test_threshold_is_the_largest_pairwise_gap(self):
        seq = [line(1.0, t) for t in (0.9, 0.3, 0.1, 0.2, 0.15)]
        tail = seq[-4:]
        worst = max(gap_distance(a, b) for a in tail for b in tail)
        assert sequence_limit(seq, tol=worst, tail_len=4) is seq[-1]
        assert sequence_limit(seq, tol=worst * (1 - 1e-9), tail_len=4) is None

    def test_non_finite_tail_has_no_limit(self):
        # A NaN gap is not within tol, so neither the screen nor its
        # fallback accepts it; nor does a containment test.
        bad = Subspace.view(np.array([[np.nan, 0.0]]))
        assert sequence_limit([line(1, 0)] * 3 + [bad], tail_len=2) is None
        ok, residual = containment_residual(bad, line(1, 0))
        assert not ok and np.isnan(residual)

    def test_mixed_ambient_rejected(self):
        with pytest.raises(ValueError, match="mixed ambient"):
            sequence_limit([line(1, 0), line(1, 0, 0)], tail_len=2)


class TestBothSidesOfTol:
    """Verdicts with an input moved from 0.5 tol (or 0.9) to 2 tol (or
    1.1) of the default tolerance."""

    tol = TOL_CHECK

    @staticmethod
    def tilted(sine):
        return line(np.sqrt(1.0 - sine * sine), sine)

    @pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)])
    def test_tilted_line_containment(self, factor, inside):
        sine = factor * self.tol
        ok, residual = containment_residual(self.tilted(sine), line(1, 0))
        assert residual == pytest.approx(sine, rel=1e-6)
        assert ok is inside

    @pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)])
    def test_five_line_tail(self, factor, inside):
        angle = np.arcsin(factor * self.tol)
        seq = [line(np.cos(t), np.sin(t))
               for t in np.linspace(0.0, angle, 5)]
        worst = max(gap_distance(a, b) for a in seq for b in seq)
        assert worst == pytest.approx(factor * self.tol, rel=1e-6)
        assert (sequence_limit(seq, tail_len=5) is seq[-1]) is inside

    @pytest.mark.parametrize("factor, inside", [(0.9, True), (1.1, False)])
    def test_plane_tail_through_the_fallback(self, factor, inside,
                                             monkeypatch):
        # Two principal angles of factor * tol each: the projection
        # difference has singular values sin(angle) twice over, so its
        # Frobenius norm (2 factor tol) exceeds tol on both sides, and
        # only the spectral norm decides.
        sine = factor * self.tol
        cosine = np.sqrt(1.0 - sine * sine)
        turned = Subspace(4, [[cosine, 0.0, sine, 0.0],
                              [0.0, cosine, 0.0, sine]])
        seq = [Subspace(4, np.eye(4)[:2])] * 3 + [turned] * 2
        diff = seq[0].projection - turned.projection
        assert np.linalg.norm(diff) == pytest.approx(2 * sine, rel=1e-6)
        assert gap_distance(seq[0], turned) == pytest.approx(sine, rel=1e-6)
        solved = []

        def spy(stack):
            solved.append(len(stack))
            return opnorms(stack)
        monkeypatch.setattr(grassmann, "opnorms", spy)
        assert (sequence_limit(seq, tail_len=5) is turned) is inside
        # The six (plane, turned plane) pairs of the ten, and no others.
        assert solved == [6]


class TestApplyLinearMap:
    def test_identity(self):
        w = line(1, 1)
        out = apply_linear_map(np.eye(2), w)
        assert gap_distance(out, w) <= 1e-12

    def test_zero_map(self):
        out = apply_linear_map(np.zeros((2, 2)), line(1, 0))
        assert out.dim == 0

    def test_shear_image(self):
        m = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = apply_linear_map(m, line(1, 0))
        # Oracle: m @ e1 = (1, 1).
        np.testing.assert_allclose(m @ np.array([1.0, 0.0]), [1.0, 1.0])
        assert gap_distance(out, line(1, 1)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_linear_map(np.eye(3), line(1, 0))


class TestIntersection:
    def test_planes_in_r3(self):
        xy = span([(1, 0, 0), (0, 1, 0)], 3)
        xz = span([(1, 0, 0), (0, 0, 1)], 3)
        meet = intersection(xy, xz)
        assert gap_distance(meet, line(1, 0, 0)) <= 1e-10

    def test_orthogonal_lines(self):
        assert intersection(line(1, 0), line(0, 1)).dim == 0

    def test_nested(self):
        w = line(1, 1, 0)
        v = span([(1, 0, 0), (0, 1, 0)], 3)
        assert gap_distance(intersection(w, v), w) <= 1e-10


def reference_intersection(a: Subspace, b: Subspace, tol=1e-8,
                           orthonormalize=False) -> np.ndarray:
    """One basis at a time: U_k^T A for the left singular vectors U_k of
    A (I - P_b) with singular values at most tol, or, orthonormalized
    again by span, the subspace they span."""
    if a.dim == 0 or b.dim == 0:
        return np.zeros((0, a.ambient_dim))
    defect = a.basis @ (np.eye(a.ambient_dim) - b.projection)
    u, sigma, _ = np.linalg.svd(defect, full_matrices=True)
    sigma = np.concatenate([sigma, np.zeros(a.dim - sigma.size)])
    coeffs = u[:, sigma <= tol].T
    if coeffs.size == 0:
        return np.zeros((0, a.ambient_dim))
    if orthonormalize:
        return span(coeffs @ a.basis, a.ambient_dim).basis
    return coeffs @ a.basis


class TestIntersectionStack:
    @pytest.mark.parametrize("ambient, rank, other", [
        (3, 2, 2), (4, 2, 3), (5, 3, 2), (4, 1, 1), (3, 3, 2), (4, 2, 0)])
    def test_matches_one_basis_at_a_time(self, ambient, rank, other):
        # Each basis is built to share 0..min(rank, other) directions
        # with B (at least rank + other - ambient are forced), so the
        # bases mix intersection dimensions.
        rng = np.random.default_rng(ambient * 100 + rank * 10 + other)
        b = random_subspace(rng, ambient, other)
        stack = []
        for i in range(24):
            shared = i % (min(rank, other) + 1)
            inside = rng.standard_normal((shared, other)) @ b.basis
            rest = rng.standard_normal((rank - shared, ambient))
            stack.append(span(np.vstack([inside, rest]), ambient).basis)
        out = [intersection(Subspace.view(row), b).basis for row in stack]
        for basis, row in zip(out, stack):
            reference = reference_intersection(Subspace.view(row), b)
            assert np.array_equal(basis, reference)
            assert not basis.flags.writeable
            # The same subspace as the span of the kept combinations.
            spanned = reference_intersection(Subspace.view(row), b,
                                             orthonormalize=True)
            assert len(spanned) == len(basis)
            assert np.abs(basis.T @ basis - spanned.T @ spanned).max() \
                <= 1e-12
        dims = {len(basis) for basis in out}
        assert dims == set(range(max(rank + other - ambient, 0),
                                 min(rank, other) + 1))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal ambient"):
            intersection(Subspace.view(np.eye(3)[:2]), line(1, 0))


dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=dims, extra=st.integers(min_value=0, max_value=3))
def test_projection_invariants(seed, ambient, extra):
    rng = np.random.default_rng(seed)
    nvec = min(ambient + extra, ambient + 2)
    w = span(rng.standard_normal((nvec, ambient)), ambient)
    p = w.projection
    assert np.linalg.norm(p - p.T, 2) <= 1e-10
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert abs(np.trace(p) - w.dim) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=st.integers(min_value=2, max_value=8))
def test_gap_symmetry_and_triangle(seed, ambient):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, ambient + 1))
    a, b, c = (random_subspace(rng, ambient, dim) for _ in range(3))
    assert gap_distance(a, b) == pytest.approx(gap_distance(b, a), abs=1e-12)
    assert gap_distance(a, c) <= gap_distance(a, b) + gap_distance(b, c) + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=st.integers(min_value=1, max_value=6))
def test_mutual_containment_is_equality(seed, ambient):
    tol = 1e-8
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(0, ambient + 1))
    w = random_subspace(rng, ambient, dim)
    v = random_subspace(rng, ambient, dim)
    mutual = (containment_residual(w, v, tol)[0]
              and containment_residual(v, w, tol)[0])
    assert mutual == (gap_distance(w, v) <= tol)
    # An orthogonal re-spanning of w is the same subspace.
    if w.dim:
        q = random_orthogonal(rng, w.dim)
        w2 = span(q @ w.basis, ambient)
        assert containment_residual(w, w2, tol)[0]
        assert containment_residual(w2, w, tol)[0]
        assert gap_distance(w, w2) <= tol


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=st.integers(min_value=2, max_value=7))
def test_intersection_dimension_formula(seed, ambient):
    # Oracle: dim(A meet B) = dim A + dim B - dim(A + B), with the sum's
    # dimension read off a stacked-basis SVD.
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, ambient, int(rng.integers(1, ambient + 1)))
    b = random_subspace(rng, ambient, int(rng.integers(1, ambient + 1)))
    stacked = np.vstack([a.basis, b.basis])
    sum_dim = span(stacked, ambient, tol_rank=1e-7).dim
    meet = intersection(a, b, tol=1e-7)
    assert meet.dim == a.dim + b.dim - sum_dim
    if meet.dim:
        assert containment_residual(meet, a, 1e-8)[0]
        assert containment_residual(meet, b, 1e-8)[0]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=st.integers(min_value=2, max_value=8))
def test_gap_is_sine_of_largest_principal_angle(seed, ambient):
    # Oracle for equal-dimension subspaces: the singular values of
    # B_a B_b^T are the cosines of the principal angles and the gap is
    # the sine of the largest one.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, ambient))
    a = random_subspace(rng, ambient, dim)
    b = random_subspace(rng, ambient, dim)
    cosines = np.clip(np.linalg.svd(a.basis @ b.basis.T, compute_uv=False),
                      -1.0, 1.0)
    expected = float(np.sin(np.max(np.arccos(cosines))))
    assert gap_distance(a, b) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ambient=st.integers(min_value=1, max_value=8))
def test_orthogonal_conjugation(seed, ambient):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, ambient + 1))
    w = random_subspace(rng, ambient, dim)
    t = random_orthogonal(rng, ambient)
    moved = span(w.basis @ t.T, ambient)
    np.testing.assert_allclose(moved.projection, t @ w.projection @ t.T,
                               atol=1e-10)


class TestInputRaises:
    def test_containment_across_ambient_dimensions(self):
        with pytest.raises(ValueError, match="^containment requires equal "
                           "ambient dimensions$"):
            containment_residual(Subspace.zero(2), Subspace.zero(3))

    def test_empty_tail(self):
        with pytest.raises(ValueError,
                           match="^tail_len must be at least 1, got 0$"):
            sequence_limit([Subspace(2, np.eye(2))], tail_len=0)


def _more_than_two_axes():
    """Each entry point that reads points, bases or a matrix as rows,
    called with an array of three axes."""
    from svb.equivariant import orbit_type_partition, stabilizer
    from svb.fixtures import rotation_group
    from svb.foliation import (PolynomialVectorField, VectorFieldSet,
                               distribution_at)
    from svb.monoid import MonoidActionSample
    from svb.strata import (Stratum, estimate_cloud_dim, partition_by_label,
                            single_linkage_components)

    cube = np.ones((2, 2, 2))
    fields = [PolynomialVectorField(2, [{"powers": [0, 0],
                                         "vector": [1.0, 0.0]}])]
    plane = VectorFieldSet(2, fields, [[0.0, 0.0]])
    return {
        "Stratum": (lambda: Stratum("a", 0, cube), cube.shape),
        "single_linkage_components": (
            lambda: single_linkage_components(cube, 0.1), cube.shape),
        "partition_by_label": (lambda: partition_by_label(
            cube, [0, 0], [("a", 0)], dim=lambda label, cloud: 0,
            below=lambda low, high: False, r_cc=0.1), cube.shape),
        "estimate_cloud_dim": (lambda: estimate_cloud_dim(cube), cube.shape),
        "span": (lambda: span(cube, 2), cube.shape),
        "apply_linear_map": (
            lambda: apply_linear_map(cube, Subspace(2, np.eye(2))),
            cube.shape),
        "Subspace": (lambda: Subspace(2, np.eye(2)[None]), (1, 2, 2)),
        "orbit_type_partition": (
            lambda: orbit_type_partition(rotation_group(4), cube), cube.shape),
        "stabilizer": (
            lambda: stabilizer(rotation_group(4), [[1.0, 0.0]]), (1, 1, 2)),
        "VectorFieldSet": (lambda: VectorFieldSet(2, fields, np.ones((3, 2, 2))),
                           (3, 2, 2)),
        "distribution_at": (lambda: distribution_at(plane, [[0.0, 0.0]]),
                            (1, 1, 2)),
        "MonoidActionSample": (lambda: MonoidActionSample.builtin(
            "scalar", 2, np.ones((3, 2, 2))), (3, 2, 2)),
    }


@pytest.mark.parametrize("site", [
    "Stratum", "single_linkage_components", "partition_by_label",
    "estimate_cloud_dim", "span", "apply_linear_map", "Subspace",
    "orbit_type_partition", "stabilizer", "VectorFieldSet", "distribution_at",
    "MonoidActionSample"])
def test_more_than_two_axes_name_the_shape(site):
    call, shape = _more_than_two_axes()[site]
    with pytest.raises(ValueError, match=re.escape(
            f"expected rows of numbers, got shape {shape}") + "$"):
        call()


def _integer_sites():
    """Each integer argument read by ``operator.index``, as a call on
    the value, and the name its ValueError gives it."""
    from svb.equivariant import FiniteGroupAction
    from svb.foliation import PolynomialVectorField, VectorFieldSet
    from svb.grassmann import as_basis
    from svb.monoid import MonoidActionSample
    from svb.strata import Stratum

    field = PolynomialVectorField(1, [{"powers": [0], "vector": [1.0]}])
    return {
        "Stratum.dim": (lambda k: Stratum("a", k, [[0.0]]).dim,
                        "stratum 'a' dim"),
        "as_basis": (lambda k: as_basis(k, [[1.0]]).shape[1], "ambient_dim"),
        "Subspace": (lambda k: Subspace(k, [[1.0]]).ambient_dim,
                     "ambient_dim"),
        "FiniteGroupAction": (lambda k: FiniteGroupAction(k, [[[1.0]]]).n,
                              "n"),
        "MonoidActionSample": (lambda k: MonoidActionSample.builtin(
            "scalar", k, [[1.0]]).ambient_dim, "ambient_dim"),
        "PolynomialVectorField": (lambda k: PolynomialVectorField(
            k, [{"powers": [0], "vector": [1.0]}]).ambient_dim,
            "ambient_dim"),
        "VectorFieldSet": (lambda k: VectorFieldSet(
            k, [field], [[0.0]]).ambient_dim, "ambient_dim"),
    }


@pytest.mark.parametrize("site", [
    "Stratum.dim", "as_basis", "Subspace", "FiniteGroupAction",
    "MonoidActionSample", "PolynomialVectorField", "VectorFieldSet"])
def test_integer_arguments_are_not_truncated(site):
    """1.5, 2.7 and a bool are refused, not truncated, and "1" names the
    argument too; a numpy integer is read as the int it holds."""
    call, name = _integer_sites()[site]
    for bad in (1.5, 2.7, True, np.bool_(True), "1", None):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {bad!r}") + "$"):
            call(bad)
    got = call(np.int64(1))
    assert got == 1 and type(got) is int


def test_group_dimension_must_be_positive():
    from svb.equivariant import FiniteGroupAction
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        FiniteGroupAction(0, [np.zeros((0, 0))])
