import itertools
import json
import math
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svb.functors
from svb.bundle import SampledStratifiedBundle, apply_functor_to_bundle
from svb.cli import main
from svb.functors import (
    Compose,
    ConstantSum,
    DirectSum,
    Identity,
    SymPower,
    TensorPower,
    WedgePower,
    apply_to_map,
    apply_to_subspace,
    check_orthogonality,
    MAX_DIM,
    dim_map,
    orthogonality_residuals,
    sized_dim,
    format_functor,
    parse_functor,
)
from svb.grassmann import Subspace, gap_distance, opnorms, span
from svb.jsonio import bundle_to_json, write_json
from svb.strata import Stratification, Stratum

PRIMITIVES = [WedgePower(1), WedgePower(2), WedgePower(3),
              SymPower(1), SymPower(2), SymPower(3),
              TensorPower(1), TensorPower(2), TensorPower(3)]

COMPOSITES = [
    DirectSum(Identity(), ConstantSum(1)),
    Compose(WedgePower(2), DirectSum(Identity(), ConstantSum(1))),
    DirectSum(WedgePower(2), SymPower(2)),
    Compose(SymPower(2), WedgePower(2)),
    Compose(WedgePower(2), TensorPower(2)),
]


def random_subspace(rng, ambient, dim):
    if dim == 0:
        return Subspace.zero(ambient)
    return span(rng.standard_normal((dim, ambient)), ambient)


class TestDimMap:
    def test_wedge(self):
        assert dim_map(WedgePower(2), 3) == 3

    def test_tensor(self):
        assert dim_map(TensorPower(2), 3) == 9

    def test_composite(self):
        f = Compose(WedgePower(2), DirectSum(Identity(), ConstantSum(1)))
        # Oracle: enumerate the wedge basis of R^(2+1).
        inner_dim = 2 + 1
        basis = list(itertools.combinations(range(inner_dim), 2))
        assert dim_map(f, 2) == len(basis) == 3

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            WedgePower(0)

    @pytest.mark.parametrize("f", PRIMITIVES + COMPOSITES)
    def test_k_zero_is_defined(self, f):
        assert dim_map(f, 0) >= 0


class TestSizeGuard:
    """Spaces above MAX_DIM are refused before anything is allocated."""

    @pytest.mark.parametrize("spec, k, peak", [
        ("tensor:11", 2, 2048),
        ("tensor:7", 3, 2187),
        ("compose(const:1,tensor:7)", 3, 2187),  # small image, big inner
        ("sum(id,compose(const:1,sym:7))", 8, 3432),
        ("compose(tensor:3,tensor:3)", 3, 19683),
    ])
    def test_peak_dimension_against_the_bound(self, spec, k, peak):
        f = parse_functor(spec)
        if peak <= MAX_DIM:
            assert sized_dim(f, k) == dim_map(f, k)
        else:
            with pytest.raises(ValueError, match=f"dimension {peak}, above "
                                                 f"the limit {MAX_DIM}"):
                sized_dim(f, k)

    def test_entry_points_refuse_before_allocating(self):
        f = parse_functor("compose(tensor:3,tensor:3)")
        w = Subspace(3, np.eye(3)[:2])
        tracemalloc.start()
        try:
            for call in (lambda: orthogonality_residuals(f, w.basis[None]),
                         lambda: check_orthogonality(f, w),
                         lambda: apply_to_subspace(f, w)):
                with pytest.raises(ValueError, match="above the limit"):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bundle_refused_before_validation(self):
        from svb.bundle import apply_functor_to_bundle, trivial_bundle
        from svb.fixtures import line_stratification
        bundle = trivial_bundle(line_stratification(), 3)
        with pytest.raises(ValueError, match="dimension 2187"):
            apply_functor_to_bundle(TensorPower(7), bundle)

    def test_largest_corpus_image_is_far_inside(self):
        assert sized_dim(SymPower(4), 7) == 210


class TestApplyToMap:
    def test_wedge_of_identity(self):
        np.testing.assert_allclose(apply_to_map(WedgePower(2), np.eye(3)),
                                   np.eye(3), atol=1e-14)

    def test_tensor_square_of_diagonal(self):
        m = np.diag([2.0, 3.0])
        # Oracle: Kronecker product.
        np.testing.assert_allclose(apply_to_map(TensorPower(2), m),
                                   np.kron(m, m), atol=1e-14)
        np.testing.assert_allclose(np.diag(apply_to_map(TensorPower(2), m)),
                                   [4.0, 6.0, 6.0, 9.0])

    def test_wedge_of_rank_two_diagonal(self):
        m = np.diag([1.0, 1.0, 0.0])
        out = apply_to_map(WedgePower(2), m)
        # Oracle: the (I, J) entry is the 2x2 minor det(m[I, J]).
        idx = list(itertools.combinations(range(3), 2))
        expected = np.array([[np.linalg.det(m[np.ix_(i, j)]) for j in idx]
                             for i in idx])
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_sym_of_diagonal(self):
        m = np.diag([2.0, 3.0])
        # Weakly increasing pairs (0,0), (0,1), (1,1) -> 4, 6, 9.
        np.testing.assert_allclose(apply_to_map(SymPower(2), m),
                                   np.diag([4.0, 6.0, 9.0]), atol=1e-14)

    def test_constant_ignores_map(self):
        out = apply_to_map(ConstantSum(2), np.array([[5.0, 1.0, 2.0]]))
        np.testing.assert_allclose(out, np.eye(2))

    def test_rectangular_shapes(self):
        # The zero matrix, square and rectangular, maps to zero under
        # every primitive: F(0) = 0.
        for m in (np.arange(12, dtype=float).reshape(3, 4),
                  np.zeros((3, 3)), np.zeros((3, 4))):
            for f in PRIMITIVES + COMPOSITES:
                out = apply_to_map(f, m)
                assert out.shape == (dim_map(f, 3), dim_map(f, m.shape[1]))
                if f in PRIMITIVES and not m.any():
                    assert not out.any(), format_functor(f)


STACKED = [Identity(), ConstantSum(2), DirectSum(Identity(), ConstantSum(1)),
           Compose(WedgePower(2), DirectSum(Identity(), ConstantSum(1))),
           Compose(SymPower(2), WedgePower(2))] + [
    power(n) for n in (1, 2, 3, 4)
    for power in (TensorPower, WedgePower, SymPower)]


class TestStackedMaps:
    """A stack (..., k, j) maps matrix by matrix, bit for bit the same as
    one call per matrix."""

    @staticmethod
    def _per_matrix(f, stack):
        flat = stack.reshape(math.prod(stack.shape[:-2]), *stack.shape[-2:])
        out = [apply_to_map(f, m) for m in flat]
        return np.stack(out).reshape(*stack.shape[:-2], *out[0].shape)

    @pytest.mark.parametrize("f", STACKED, ids=format_functor)
    @pytest.mark.parametrize("shape", [(6, 3, 3), (5, 2, 4), (2, 3, 4, 2),
                                       (4, 0, 3), (3, 2, 2)],
                             ids=["square", "rectangular", "two-lead",
                                  "rank-0", "small"])
    def test_stack_equals_per_matrix(self, f, shape):
        if isinstance(f, TensorPower) and f.n == 4 and shape[-1] > 3:
            shape = shape[:-1] + (3,)
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape)
        out = apply_to_map(f, stack)
        assert out.shape == (*shape[:-2], dim_map(f, shape[-2]),
                             dim_map(f, shape[-1]))
        assert np.array_equal(out, self._per_matrix(f, stack))

    @pytest.mark.parametrize("f", [WedgePower(2), SymPower(3),
                                   Compose(SymPower(2), WedgePower(2))],
                             ids=format_functor)
    def test_small_chunks_match_one_chunk(self, f, monkeypatch):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((7, 4, 4))
        bases = np.stack([random_subspace(rng, 4, 2).basis
                          for _ in range(7)])
        whole = apply_to_map(f, stack)
        residuals = orthogonality_residuals(f, bases)
        images = apply_to_map(f, bases)
        bundle = SampledStratifiedBundle.from_stacks(
            Stratification([Stratum("S", 1, np.arange(7.0)[:, None])]), 4,
            {"S": bases})
        for chunk in (1, 200):  # one matrix, or a few, per chunk
            monkeypatch.setattr(svb.functors, "_CHUNK", chunk)
            assert np.array_equal(apply_to_map(f, stack), whole)
            assert np.array_equal(orthogonality_residuals(f, bases),
                                  residuals)
            assert np.array_equal(
                apply_functor_to_bundle(f, bundle).stacks["S"], images)

    def test_memory_bounded_as_the_stack_grows(self):
        # 1,000 planes in R^7 under sym:3: all n^2 gathered factors of
        # the whole stack would take 508 MB, F(P) alone 56 MB.
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((1000, 7, 2)))
        bases = q.swapaxes(-1, -2)
        tracemalloc.start()
        try:
            residuals = orthogonality_residuals(SymPower(3), bases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (residuals <= 1e-12).all()
        assert peak < 48 * 2 ** 20, peak

    def test_transposed_stack_peaks_as_a_contiguous_one(self):
        # The transposed QR factors of planes, as bases are often made:
        # tensor:5 of such a stack must not copy at every degree.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((134, 3, 2)))
        swapped = q.swapaxes(-1, -2)
        images, peaks = [], []
        for stack in (swapped, np.ascontiguousarray(swapped)):
            tracemalloc.start()
            try:
                images.append(apply_to_map(TensorPower(5), stack))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(*images)
        assert peaks[0] < 1.1 * peaks[1], peaks

    def test_memory_bounded_by_composite_intermediates(self):
        # compose(const:1,tensor:5) maps each plane in R^3 to a 1 x 1
        # image through a 32 x 243 tensor image; sized by the image
        # alone, one chunk would hold that for all 400 planes (190 MiB).
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((400, 3, 2)))
        tracemalloc.start()
        try:
            residuals = orthogonality_residuals(
                parse_functor("compose(const:1,tensor:5)"),
                q.swapaxes(-1, -2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(residuals, np.zeros(400))
        assert peak < 32 * 2 ** 20, peak

    def test_bundle_memory_bounded_by_composite_intermediates(self):
        # The same functor on a bundle of 1,000 planes in R^3: mapped in
        # one apply_to_map call, the tensor images alone take 59 MiB.
        f = parse_functor("compose(const:1,tensor:5)")
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((1000, 3, 2)))
        bundle = SampledStratifiedBundle.from_stacks(
            Stratification([Stratum("S", 1, np.arange(1000.0)[:, None])]),
            3, {"S": q.swapaxes(-1, -2)})
        tracemalloc.start()
        try:
            image = apply_functor_to_bundle(f, bundle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(image.stacks["S"], np.ones((1000, 1, 1)))
        assert peak < 32 * 2 ** 20, peak

    def test_zero_size_image(self):
        # wedge:3 of R^2 is R^0: every image is a 0 x 0 matrix.
        out = apply_to_map(WedgePower(3), np.ones((5, 2, 2)))
        assert out.shape == (5, 0, 0)
        residuals = orthogonality_residuals(WedgePower(3),
                                            np.eye(2)[None].repeat(5, 0))
        assert np.array_equal(residuals, np.zeros(5))

    @pytest.mark.parametrize("f", STACKED, ids=format_functor)
    def test_residuals_equal_per_subspace_check(self, f):
        rng = np.random.default_rng(5)
        fibers = [random_subspace(rng, 4, 2) for _ in range(7)]
        residuals = orthogonality_residuals(
            f, np.stack([w.basis for w in fibers]))
        assert residuals.tolist() == [check_orthogonality(f, w)[1]
                                      for w in fibers]
        # The true-projector formula: F(P_W) against F(B)^+ F(B), the
        # projection onto F(W), in the spectral norm.  On orthonormal bases
        # both sides are rounding, so they agree in absolute terms.
        np.testing.assert_allclose(residuals, [
            opnorms(apply_to_map(f, w.projection)
                    - np.linalg.pinv(fb := apply_to_map(f, w.basis)) @ fb)
            for w in fibers], rtol=0, atol=1e-14)


class TestTrueProjector:
    """The residual ||F(B) F(B)^T - I|| is the defect of F(P_W) against
    the projection F(B)^+ F(B) onto F(W), for any basis B whose image
    has full row rank."""

    @staticmethod
    def _pinv_residual(f, basis):
        image = apply_to_map(f, basis)
        return opnorms(apply_to_map(f, basis.T @ basis)
                       - np.linalg.pinv(image) @ image)

    @pytest.mark.parametrize("f", PRIMITIVES + COMPOSITES + [SymPower(4)],
                             ids=format_functor)
    def test_matches_pinv_on_perturbed_bases(self, f):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((20, 5, 3)))
        bases = q.swapaxes(1, 2) + 1e-4 * rng.standard_normal((20, 3, 5))
        residuals = orthogonality_residuals(f, bases)
        reference = [self._pinv_residual(f, b) for b in bases]
        assert residuals.min() > 1e-6  # the perturbation, not rounding
        np.testing.assert_allclose(residuals, reference, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("f", [WedgePower(2), SymPower(3), TensorPower(2)],
                             ids=format_functor)
    def test_rank_deficient_image_reads_at_least_one(self, f):
        # Two equal rows: F(B) loses rank, so G has a zero eigenvalue.
        basis = np.array([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
        assert orthogonality_residuals(f, basis)[0] >= 1.0


class TestOrthogonalityThreshold:
    """A verdict is ``residual <= tol``, in the stacked route of
    ``check orthogonality --bundle`` and in the per-subspace route of
    ``check_orthogonality`` and ``check orthogonality --subspace``.
    Scaling the first row of a coordinate plane by 1 + eps, inside the
    orthonormality audit, scales the rows of F(B) by (1 + eps)^a, a up
    to the degree n, so the residual is (1 + eps)^(2n) - 1, about 2n eps;
    the tolerance is put on each side of it, and FAIL exits 2."""

    EPS = 4e-11

    @pytest.mark.parametrize("f, degree", [(WedgePower(2), 1),
                                           (SymPower(3), 3)],
                             ids=["wedge:2", "sym:3"])
    def test_verdict_flips_at_the_residual(self, f, degree, tmp_path,
                                           capsys):
        flat = np.eye(4)[:2]
        perturbed = flat * [[1.0 + self.EPS], [1.0]]
        bases = np.stack([flat, flat, perturbed, flat])
        residuals = orthogonality_residuals(f, bases)
        r = residuals[2]
        assert np.delete(residuals, 2).max() <= 1e-15
        np.testing.assert_allclose(r, 2 * degree * self.EPS, rtol=1e-4)
        bundle = SampledStratifiedBundle(
            Stratification([Stratum("S", 1, np.arange(4.0)[:, None])]), 4,
            {("S", i): Subspace(4, b) for i, b in enumerate(bases)},
            {"S": 2})
        path = str(tmp_path / "bundle.json")
        write_json(bundle_to_json(bundle), path)
        subspace = str(tmp_path / "subspace.json")
        write_json({"ambient": 4, "basis": perturbed.tolist(),
                    "schema": "svb/1"}, subspace)
        for tol, ok in ((r, True), (np.nextafter(r, 0.0), False)):
            assert check_orthogonality(f, Subspace(4, perturbed), tol) == (
                ok, r)
            code = main(["check", "orthogonality", "--functor",
                         format_functor(f), "--bundle", path,
                         "--tol-check", repr(float(tol))])
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [c["residual"] for c in checks] == residuals.tolist()
            assert [c["verdict"] for c in checks] == [
                "PASS", "PASS", "PASS" if ok else "FAIL", "PASS"]
            assert code == (0 if ok else 2)
            code = main(["check", "orthogonality", "--functor",
                         format_functor(f), "--subspace", subspace,
                         "--tol-check", repr(float(tol))])
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [(c["verdict"], c["residual"]) for c in checks] == [
                ("PASS" if ok else "FAIL", r)]
            assert code == (0 if ok else 2)


class TestApplyToSubspace:
    def test_wedge_of_coordinate_plane(self):
        w = span([(1, 0, 0), (0, 1, 0)], 3)
        out = apply_to_subspace(WedgePower(2), w)
        assert out.dim == 1
        # e1^e2 is the first basis vector of wedge^2 R^3.
        np.testing.assert_allclose(out.projection, np.diag([1.0, 0.0, 0.0]),
                                   atol=1e-12)

    def test_zero_subspace(self):
        out = apply_to_subspace(WedgePower(2), Subspace.zero(3))
        assert out.dim == 0
        assert out.ambient_dim == 3

    def test_tensor_power_one_is_identity(self):
        rng = np.random.default_rng(7)
        w = random_subspace(rng, 4, 2)
        out = apply_to_subspace(TensorPower(1), w)
        assert gap_distance(out, w) <= 1e-12

    @pytest.mark.parametrize("f", [SymPower(3), TensorPower(3)])
    def test_basis_at_the_orthonormality_tolerance(self, f):
        # Gram defect 9e-11 passes the Subspace check; F(B) triples it.
        w = Subspace(3, [[1.0 + 4.5e-11, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = apply_to_subspace(f, w)
        assert out.dim == dim_map(f, 2)
        reference = span(apply_to_map(f, w.projection).T, dim_map(f, 3))
        assert gap_distance(out, reference) <= 1e-9


class TestCheckOrthogonality:
    def test_wedge_on_plane(self):
        w = span([(1, 0, 0), (0, 1, 0)], 3)
        ok, residual = check_orthogonality(WedgePower(2), w, 1e-12)
        assert ok and residual < 1e-12

    def test_identity_functor(self):
        w = span([(1, 2, 2)], 3)
        ok, residual = check_orthogonality(Identity(), w, 1e-12)
        assert ok and residual <= 1e-12

    def test_sym_on_random_plane(self):
        rng = np.random.default_rng(3)
        w = random_subspace(rng, 4, 2)
        ok, residual = check_orthogonality(SymPower(2), w, 1e-10)
        assert ok, residual
        # Oracle: brute-force P_{F(W)} by pushing an orthonormal basis of W
        # through the functor and orthonormalizing the images.
        images = [apply_to_map(SymPower(2), np.outer(b, b))
                  for b in w.basis]
        mixed = apply_to_map(SymPower(2),
                             np.outer(w.basis[0] + w.basis[1],
                                      w.basis[0] + w.basis[1]) / 2)
        cols = np.concatenate([m.T for m in images + [mixed]], axis=0)
        brute = span(cols, dim_map(SymPower(2), 4))
        assert gap_distance(brute, apply_to_subspace(SymPower(2), w)) <= 1e-9


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("id", Identity()),
        ("wedge:2", WedgePower(2)),
        ("tensor:3", TensorPower(3)),
        ("sym:2", SymPower(2)),
        ("const:1", ConstantSum(1)),
        ("sum(id,const:1)", DirectSum(Identity(), ConstantSum(1))),
        ("compose(wedge:2,sum(id,const:1))",
         Compose(WedgePower(2), DirectSum(Identity(), ConstantSum(1)))),
    ])
    def test_parse(self, text, expected):
        assert parse_functor(text) == expected

    @pytest.mark.parametrize("f", PRIMITIVES + COMPOSITES + [Identity(),
                                                             ConstantSum(3)])
    def test_round_trips(self, f):
        assert parse_functor(format_functor(f)) == f

    @pytest.mark.parametrize("text", ["", "wedge", "wedge:0", "sum(id)",
                                      "frobenius:2", "sum(id,id,id)",
                                      "compose(id", "wedge:2)"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_functor(text)


DEGREE_BEYOND_BOUND = [
    ("sym:12", "symmetric power degree 12 is outside 1..11"),
    ("tensor:12", "tensor power degree 12 is outside 1..11"),
    ("tensor:1000000", "tensor power degree 1000000 is outside 1..11"),
    # Longer than int() converts: refused before the conversion.
    ("tensor:" + "9" * 5000, "tensor power degree of 5000 digits is "
     "outside 1..11"),
    ("wedge:" + "9" * 5000, "wedge power degree of 5000 digits is "
     "outside 1..11"),
    ("sym:" + "9" * 5000, "symmetric power degree of 5000 digits is "
     "outside 1..11"),
    ("const:" + "9" * 5000, "constant summand dimension of 5000 digits is "
     "outside 0..2048"),
    ("tensor:" + "0" * 5000 + "12", "tensor power degree 12 is outside "
     "1..11"),
]
DEGREE_IDS = [spec if len(spec) < 20 else
              f"{spec.split(':')[0]}:{len(spec.split(':')[1])}-digits"
              for spec, _ in DEGREE_BEYOND_BOUND]


class TestDegreeBound:
    """Degrees are bounded when the functor is built, before any
    dimension is computed."""

    @pytest.mark.parametrize("spec, message", DEGREE_BEYOND_BOUND,
                             ids=DEGREE_IDS)
    def test_parse_functor_refuses(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_functor(spec)

    @pytest.mark.parametrize("spec, message", DEGREE_BEYOND_BOUND,
                             ids=DEGREE_IDS)
    def test_cli_exits_one(self, capsys, spec, message):
        from svb.cli import main
        fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                               "plane_in_r3.json")
        code = main(["check", "orthogonality", "--functor", spec,
                     "--subspace", fixture])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"svb: error: {message}\n"

    @pytest.mark.parametrize("cls, largest", [
        (SymPower, svb.functors.MAX_POWER_DEGREE),
        (TensorPower, svb.functors.MAX_POWER_DEGREE),
        (WedgePower, svb.functors.MAX_POWER_DEGREE)])
    def test_largest_degree_accepted(self, cls, largest):
        assert cls(largest).n == largest
        with pytest.raises(ValueError, match="outside"):
            cls(largest + 1)
        assert parse_functor(f"{cls.op}:{largest}") == cls(largest)


def _tensor_power(m, n):
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def _flat(idx, k):
    out = 0
    for i in idx:
        out = out * k + i
    return out


def _parity_sign(sigma):
    parity = 0
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                parity += 1
    return (-1.0) ** parity


def _sym_isometry(k, n):
    rows = list(itertools.combinations_with_replacement(range(k), n))
    mat = np.zeros((k ** n, len(rows)))
    for c, index in enumerate(rows):
        mu, run = 1, 1
        for a, b in zip(index, index[1:]):
            run = run + 1 if a == b else 1
            mu *= run
        coef = np.sqrt(mu / math.factorial(n))
        for arrangement in set(itertools.permutations(index)):
            mat[_flat(arrangement, k), c] = coef
    return mat


def _wedge_isometry(k, n):
    rows = list(itertools.combinations(range(k), n))
    mat = np.zeros((k ** n, len(rows)))
    for c, index in enumerate(rows):
        for sigma in itertools.permutations(range(n)):
            arrangement = tuple(index[t] for t in sigma)
            mat[_flat(arrangement, k), c] += \
                _parity_sign(sigma) / np.sqrt(math.factorial(n))
    return mat


class TestPowerMatricesAgainstTensorCompression:
    """Independent oracle: the sym/wedge matrices must equal the tensor
    power compressed by the explicit symmetrizer/alternator isometries.
    This route never computes a permanent or a minor."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sym_power(self, seed):
        rng = np.random.default_rng(seed)
        k, j = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        m = rng.standard_normal((k, j))
        direct = apply_to_map(SymPower(n), m)
        oracle = _sym_isometry(k, n).T @ _tensor_power(m, n) @ \
            _sym_isometry(j, n)
        np.testing.assert_allclose(direct, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_wedge_power(self, seed):
        rng = np.random.default_rng(seed + 100)
        k, j = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        m = rng.standard_normal((k, j))
        direct = apply_to_map(WedgePower(n), m)
        oracle = _wedge_isometry(k, n).T @ _tensor_power(m, n) @ \
            _wedge_isometry(j, n)
        np.testing.assert_allclose(direct, oracle, atol=1e-12)

    def test_isometries_are_isometries(self):
        for k, n in [(3, 2), (4, 2), (4, 3), (2, 2)]:
            s = _sym_isometry(k, n)
            np.testing.assert_allclose(s.T @ s, np.eye(s.shape[1]),
                                       atol=1e-12)
            a = _wedge_isometry(k, n)
            np.testing.assert_allclose(a.T @ a, np.eye(a.shape[1]),
                                       atol=1e-12)


def _ryser_permanent(m, rows, cols):
    """Exact permanent of the integer matrix ``m[rows][:, cols]`` by
    Ryser's formula, in Python ints; column subsets are grouped by how
    many copies of each repeated column they take, and the row sums of a
    repeated row are raised to its multiplicity."""
    row_mult, col_mult = Counter(rows), Counter(cols)
    distinct = sorted(col_mult)
    total = 0
    for take in itertools.product(*(range(col_mult[c] + 1)
                                    for c in distinct)):
        ways = math.prod(math.comb(col_mult[c], t)
                         for c, t in zip(distinct, take))
        sums = math.prod(sum(t * int(m[a, c]) for c, t in zip(distinct, take))
                         ** mu for a, mu in row_mult.items())
        total += (-1) ** sum(take) * ways * sums
    return (-1) ** len(rows) * total


def _multiplicity_factorial(index):
    return math.prod(math.factorial(mu) for mu in Counter(index).values())


def _sym_power_by_permutations(m, n):
    """Sym^n of a stack by the definition: every entry sums all n!
    products of a permanent, from a zero accumulator, then divides by the
    square roots of the multiplicity factorials."""
    ri, ci = (np.array(list(itertools.combinations_with_replacement(
        range(size), n))) for size in m.shape[-2:])
    weights = np.outer(
        np.sqrt([float(_multiplicity_factorial(t)) for t in ri.tolist()]),
        np.sqrt([float(_multiplicity_factorial(t)) for t in ci.tolist()]))
    perm = np.zeros((len(m), len(ri), len(ci)))
    for sigma in itertools.permutations(range(n)):
        term = m[:, ri[:, None, 0], ci[None, :, sigma[0]]]
        for a in range(1, n):
            term = term * m[:, ri[:, None, a], ci[None, :, sigma[a]]]
        perm += term
    return perm / weights


class TestSymPowerReferences:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("n", range(1, svb.functors.MAX_POWER_DEGREE + 1))
    def test_exact_integer_permanents(self, shape, n):
        m = np.random.default_rng(n * 10 + shape[1]).integers(-2, 3, shape)
        rows, cols = (list(itertools.combinations_with_replacement(
            range(size), n)) for size in shape)
        exact = np.array([[_ryser_permanent(m, r, c) / math.sqrt(
            _multiplicity_factorial(r) * _multiplicity_factorial(c))
            for c in cols] for r in rows])
        np.testing.assert_allclose(apply_to_map(SymPower(n), m), exact,
                                   rtol=1e-12, atol=0)

    def test_ryser_against_permutation_sum(self):
        m = np.random.default_rng(3).integers(-2, 3, (3, 4))
        for rows, cols in [((0, 1, 2), (0, 1, 3)), ((1, 1, 2), (0, 3, 3)),
                           ((0, 0, 0, 2), (1, 1, 2, 2))]:
            brute = sum(math.prod(int(m[r, cols[b]])
                                  for r, b in zip(rows, sigma))
                        for sigma in itertools.permutations(range(len(rows))))
            assert _ryser_permanent(m, rows, cols) == brute

    @pytest.mark.parametrize("shape", [(40, 2, 2), (40, 3, 4), (40, 4, 3)])
    def test_sym2_bitwise_equal_to_permutation_sum(self, shape):
        # Exact zeros of both signs make products of either sign of zero;
        # the sign of every zero in the result must agree as well.
        rng = np.random.default_rng(shape[1] * 7 + shape[2])
        m = rng.standard_normal(shape)
        m[rng.random(shape) < 0.3] = 0.0
        m[rng.random(shape) < 0.3] = -0.0
        expected = _sym_power_by_permutations(m, 2)
        assert (expected == 0).any()
        assert np.array_equal(apply_to_map(SymPower(2), m).view(np.int64),
                              expected.view(np.int64))


seeds = st.integers(min_value=0, max_value=2**32 - 1)
functor_indices = st.integers(min_value=0, max_value=len(PRIMITIVES) - 1)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, fi=functor_indices,
       k=st.integers(1, 5), j=st.integers(1, 5), i=st.integers(1, 5))
def test_functoriality(seed, fi, k, j, i):
    f = PRIMITIVES[fi]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, j))
    b = rng.standard_normal((j, i))
    fa, fb, fab = (apply_to_map(f, x) for x in (a, b, a @ b))
    assert opnorms(fab - fa @ fb) <= 1e-9
    fid = apply_to_map(f, np.eye(j))
    assert opnorms(fid - np.eye(dim_map(f, j))) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(seed=seeds, fi=st.integers(0, len(PRIMITIVES) + len(COMPOSITES) - 1),
       ambient=st.integers(1, 6))
def test_orthogonality_property(seed, fi, ambient):
    f = (PRIMITIVES + COMPOSITES)[fi]
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(0, ambient + 1))
    w = random_subspace(rng, ambient, dim)
    fp = apply_to_map(f, w.projection)
    assert opnorms(fp - fp.T) <= 1e-9
    assert opnorms(fp @ fp - fp) <= 1e-9
    ok, residual = check_orthogonality(f, w, 1e-9)
    assert ok, (f, residual)
    fw = apply_to_subspace(f, w)
    assert fw.dim == dim_map(f, w.dim)
    # Reference: the image of F(P_W), orthonormalized by SVD.
    reference = span(fp.T, dim_map(f, ambient), tol_abs=1e-10)
    assert gap_distance(fw, reference) <= 1e-12
    fb = apply_to_map(f, w.basis)
    assert np.abs(fb @ fb.T - np.eye(fw.dim)).max(initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, fi=functor_indices, n=st.integers(2, 5))
def test_orthogonal_maps_to_orthogonal(seed, fi, n):
    f = PRIMITIVES[fi]
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    fq = apply_to_map(f, q)
    d = dim_map(f, n)
    assert opnorms(fq @ fq.T - np.eye(d)) <= 1e-9


@pytest.mark.parametrize("f", PRIMITIVES)
def test_grassmannian_continuity_surrogate(f):
    # A line rotating onto e1 in R^3: image subspaces must converge too.
    target = span([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], 3)
    f_target = apply_to_subspace(f, target)
    gaps = []
    for step in range(1, 11):
        theta = (np.pi / 4) * 2.0 ** (-step)
        w = span([(np.cos(theta), 0.0, np.sin(theta)), (0.0, 1.0, 0.0)], 3)
        gaps.append(gap_distance(apply_to_subspace(f, w), f_target))
    tail = gaps[-6:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    assert tail[-1] <= 1e-2


class TestInputRaises:
    def test_negative_constant_summand(self):
        with pytest.raises(ValueError, match="^constant summand dimension "
                           "must be at least 0, got -1$"):
            ConstantSum(-1)

    def test_negative_source_dimension(self):
        with pytest.raises(ValueError, match="^k must be at least 0, got -1$"):
            dim_map(Identity(), -1)

    @pytest.mark.parametrize("call", [
        lambda f: dim_map(f, 2),
        lambda f: apply_to_map(f, np.eye(2)),
        format_functor,
    ], ids=["dim_map", "apply_to_map", "format_functor"])
    def test_not_a_functor(self, call):
        with pytest.raises(TypeError,
                           match=r"^not a functor spec: 'wedge:2'$"):
            call("wedge:2")

    @pytest.mark.parametrize("text", ["sum(id),const:1)", "sum((id,const:1)"],
                             ids=["closes-early", "never-closes"])
    def test_unbalanced_parentheses(self, text):
        with pytest.raises(ValueError, match="^unbalanced parentheses in "
                           "functor string$"):
            parse_functor(text)
