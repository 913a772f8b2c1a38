import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svb.grassmann import (
    Subspace,
    SubspaceSequence,
    apply_linear_map,
    containment_residual,
    gap_distance,
    intersection,
    is_contained,
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


class TestSubspace:
    def test_rejects_basis_off_unit_length(self):
        # 1.000005 passes a relative 1e-5 test; the bound is absolute.
        with pytest.raises(ValueError):
            Subspace(1, [[1.000005]])
        with pytest.raises(ValueError):
            Subspace(2, [[1.0, 0.0], [0.0, 1.0 + 1e-9]])
        assert Subspace(2, [[1.0, 0.0], [0.0, 1.0 + 1e-12]]).dim == 2

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_basis(self, bad):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, [[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, [[bad, 0.0]])

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
        assert is_contained(line(1, 0), Subspace.full(2), 1e-10)

    def test_orthogonal_complement(self):
        assert not is_contained(line(0, 1), line(1, 0), 1e-10)

    def test_line_in_plane(self):
        w = line(1, 1, 0)
        v = span([(1, 0, 0), (0, 1, 0)], 3)
        # Oracle: P_v P_w = P_w exactly because (1,1,0) lies in the xy-plane.
        assert np.allclose(v.projection @ w.projection, w.projection)
        assert is_contained(w, v, 1e-10)

    def test_residual_of_orthogonal_line_is_one(self):
        ok, residual = containment_residual(line(0, 1), line(1, 0), 1e-10)
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-12)


class TestSequenceLimit:
    def test_constant_sequence(self):
        seq = SubspaceSequence([line(1, 0)] * 10)
        limit = sequence_limit(seq, tol=1e-12, tail_len=5)
        assert limit is not None
        assert gap_distance(limit, line(1, 0)) == 0.0

    def test_converging_lines(self):
        seq = SubspaceSequence([line(1.0, 1.0 / k) for k in range(1, 51)])
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
        seq = SubspaceSequence([line(1, 0), line(0, 1)] * 5)
        assert sequence_limit(seq, tol=0.5, tail_len=4) is None

    def test_tail_longer_than_sequence(self):
        seq = SubspaceSequence([line(1, 0)] * 3)
        with pytest.raises(ValueError):
            sequence_limit(seq, tol=1e-6, tail_len=4)

    def test_rank_is_forced(self):
        seq = SubspaceSequence([line(1.0, 1e-9)] * 6)
        limit = sequence_limit(seq, tol=1e-6, tail_len=6)
        assert limit.dim == 1


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
    mutual = is_contained(w, v, tol) and is_contained(v, w, tol)
    assert mutual == (gap_distance(w, v) <= tol)
    # An orthogonal re-spanning of w is the same subspace.
    if w.dim:
        q = random_orthogonal(rng, w.dim)
        w2 = span(q @ w.basis, ambient)
        assert is_contained(w, w2, tol) and is_contained(w2, w, tol)
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
        assert is_contained(meet, a, 1e-8)
        assert is_contained(meet, b, 1e-8)


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
