"""Subspace arithmetic through orthogonal projections.

A linear subspace W of R^n is stored as an orthonormal basis (rows of a
matrix) together with the derived projection matrix P_W = B^T B.  All
comparisons between subspaces go through their projections: the gap
metric is the operator norm of the projection difference, containment
is a one-multiply residual test, and limits of subspace sequences are
detected by a Cauchy criterion on the tail of the projection sequence.
Every spectral norm of the package is ``opnorms``; one that is only
compared with a tolerance, as in the Cauchy test, is screened first by
its Frobenius bound in ``_spectral_norms``.

The rule for every number a caller hands svb lives here, in two
helpers that every module calls: ``_check_positive`` for a tolerance,
radius or other real threshold (positive and finite), and ``_integer``
for a count, dimension, index or exponent (an integer that is not a
bool, with an optional least value).
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Optional, Sequence

import numpy as np

from .config import TAIL_LEN, TOL_CHECK, TOL_ORTHO, TOL_RANK

__all__ = [
    "Subspace",
    "as_basis",
    "span",
    "gap_distance",
    "containment_residual",
    "sequence_limit",
    "apply_linear_map",
    "intersection",
    "opnorms",
    "orthonormal_rows",
]


def opnorms(mats) -> np.ndarray:
    """Operator (spectral) norm of each matrix of a stack ``(..., m, n)``.

    Each matrix is scaled by its largest |entry|, so that its Gram
    matrix can neither underflow nor overflow; the norm is the square
    root of the top eigenvalue of the smaller of its two Gram matrices,
    from one batched ``eigvalsh``.  Every entry enters the lower triangle
    that ``eigvalsh`` reads, so no symmetry is assumed.  0 for an empty
    or all-zero matrix, NaN where an entry is not finite.
    """
    mats = np.asarray(mats, dtype=float)
    if 0 in mats.shape[-2:]:
        return np.zeros(mats.shape[:-2])
    scale = np.abs(mats).max(axis=(-2, -1))
    finite = np.isfinite(scale)
    safe = np.where(finite & (scale > 0), scale, 1.0)
    unit = mats / safe[..., None, None]
    # A matrix with a non-finite entry is replaced by zeros, which
    # eigvalsh accepts; its norm is set to NaN below.
    unit[~finite] = 0.0
    adjoint = unit.swapaxes(-1, -2)
    wide = mats.shape[-2] <= mats.shape[-1]
    gram = unit @ adjoint if wide else adjoint @ unit
    top = np.linalg.eigvalsh(gram)[..., -1]
    return np.where(finite, np.where(scale > 0, np.sqrt(top) * safe, 0.0),
                    np.nan)


def _spectral_norms(stack: np.ndarray, tol: float) -> np.ndarray:
    """For a stack ``(..., m, m)`` whose spectral norms are only compared
    with ``tol``: each matrix's Frobenius norm, which bounds its spectral
    norm, and its ``opnorms`` where that bound is not within ``tol`` (NaN
    included).  A test ``<= tol`` or ``> tol`` reads the same verdict as
    on the spectral norms themselves."""
    bounds = np.sqrt((stack * stack).sum(axis=(-2, -1)))
    loose = ~(bounds <= tol)
    if loose.any():
        bounds[loose] = opnorms(stack[loose])
    return bounds


def _check_positive(name: str, value) -> None:
    """A tolerance or radius must be a positive finite number; a NaN
    would pass every threshold and an infinite one would pass all.  A
    bool is no number here, nor is anything that is not real."""
    real = isinstance(value, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and 0 < value < math.inf):
        raise ValueError(f"{name} must be a positive finite number, "
                         f"got {value!r}")


def _integer(name: str, value, least: Optional[int] = None) -> int:
    """``value`` read through ``operator.index``, never truncated: an int
    or a numpy integer, but not a bool, and at least ``least`` when that
    is given.  ValueError naming ``name`` otherwise."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or value >= least:
                return value
            raise ValueError(f"{name} must be at least {least}, got {value}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``keys`` starts."""
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new.nonzero()[0]


def _distinct(a) -> np.ndarray:
    """The distinct values of an integer array, ascending and flat, as
    ``np.unique`` gives them: one sort and the first of each run, without
    the hash path and the ``numpy.ma`` import of ``np.unique``."""
    a = np.sort(a, axis=None)
    return a[_runs(a)]


def _float_rows(a) -> np.ndarray:
    """``a`` as a float array of rows: ValueError for more axes than two."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim > 2:
        raise ValueError(f"expected rows of numbers, got shape {a.shape}")
    return a


def orthonormal_rows(bases, tol_ortho: float = TOL_ORTHO) -> np.ndarray:
    """Whether the rows of each basis in a stack ``(..., r, k)`` are
    orthonormal: every Gram entry within ``max(tol_ortho, 1e-12)`` of the
    identity.  NaN, infinity and overflow fail, quietly; an empty Gram
    matrix passes."""
    _check_positive("tol_ortho", tol_ortho)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = bases @ bases.swapaxes(-1, -2)
    return (np.abs(gram - np.eye(bases.shape[-2]))
            <= max(tol_ortho, 1e-12)).all(axis=(-2, -1))


def as_basis(ambient_dim: int, basis) -> np.ndarray:
    """``basis`` as a ``(dim, ambient_dim)`` float array, with the shape
    checks of :class:`Subspace`; an empty basis is the zero subspace's."""
    ambient_dim = _integer("ambient_dim", ambient_dim, 0)
    basis = _float_rows(basis)
    if basis.size == 0:
        basis = basis.reshape(0, ambient_dim)
    if basis.shape[1] != ambient_dim:
        raise ValueError(
            f"basis vectors have length {basis.shape[1]}, expected {ambient_dim}")
    if basis.shape[0] > ambient_dim:
        raise ValueError("more basis vectors than ambient dimensions")
    return basis


class Subspace:
    """A subspace of R^n held as an orthonormal basis.

    The basis is a (dim, ambient) array whose rows are orthonormal; the
    zero subspace has a (0, ambient) basis.  Instances are immutable and
    safe to share between threads.

    Ambient dimension 0 (the space {0}) is allowed: rank-collapsing
    functors such as wedge powers legitimately map R^k to R^0.
    """

    __slots__ = ("ambient_dim", "basis", "projection")

    def __init__(self, ambient_dim: int, basis, *, tol_ortho: float = TOL_ORTHO):
        basis = as_basis(ambient_dim, basis)
        if not orthonormal_rows(basis, tol_ortho):
            raise ValueError("basis is not orthonormal within tolerance")
        basis = basis.copy()
        basis.flags.writeable = False
        self._hold(basis)

    @classmethod
    def view(cls, basis: np.ndarray) -> "Subspace":
        """The subspace on ``basis`` as it is: a read-only, audited
        ``(dim, ambient)`` array such as one fiber of a bundle's stack."""
        w = object.__new__(cls)
        w._hold(basis)
        return w

    def _hold(self, basis: np.ndarray) -> None:
        projection = basis.T @ basis
        projection.flags.writeable = False
        object.__setattr__(self, "ambient_dim", basis.shape[1])
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "projection", projection)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    def to_json(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": self.basis.tolist()}

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def span(vectors, ambient_dim: int, tol_rank: float = TOL_RANK,
         tol_abs: float = 0.0) -> Subspace:
    """Orthonormalize ``vectors`` into a Subspace of R^ambient_dim.

    The rank is decided by the relative singular-value threshold: sigma
    counts iff sigma > tol_rank * sigma_max.  An empty or all-zero input
    yields the zero subspace; a non-finite entry is a ValueError.
    ``tol_abs`` adds an absolute cutoff for callers whose inputs have a
    known scale.
    """
    ambient_dim = _integer("ambient_dim", ambient_dim, 0)
    _check_positive("tol_rank", tol_rank)  # also where there is no SVD
    if not isinstance(vectors, np.ndarray):  # an iterable of rows
        vectors = list(vectors)
    mat = np.asarray(vectors, dtype=float)
    if mat.size == 0:
        return Subspace.zero(ambient_dim)
    mat = _float_rows(mat)
    if mat.shape[1] != ambient_dim:
        raise ValueError(
            f"vectors have length {mat.shape[1]}, expected {ambient_dim}")
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        raise ValueError(f"vector {int(finite.argmin())} has a non-finite "
                         "entry")
    vh, rank = _span_rank(mat, tol_rank, tol_abs)
    return Subspace(ambient_dim, vh[:rank])


def _span_rank(mats: np.ndarray, tol_rank: float, tol_abs: float):
    """Right singular vectors of each row set in a stack ``(..., m, k)``
    and its rank by the rule of :func:`span`: sigma counts iff
    ``sigma > max(tol_rank * sigma_max, tol_abs)``, so an all-zero set
    has rank 0."""
    _check_positive("tol_rank", tol_rank)
    _, sigma, vh = np.linalg.svd(mats, full_matrices=False)
    cutoff = np.maximum(tol_rank * sigma[..., :1], tol_abs)
    return vh, (sigma > cutoff).sum(axis=-1)


def gap_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between projections, ``||P_a - P_b||_2``."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("gap_distance requires equal ambient dimensions")
    return float(opnorms(a.projection - b.projection))


def containment_residual(w: Subspace, v: Subspace,
                         tol: float = TOL_CHECK) -> tuple[bool, float]:
    """Containment test plus the residual it was decided on."""
    _check_positive("tol", tol)
    if w.ambient_dim != v.ambient_dim:
        raise ValueError("containment requires equal ambient dimensions")
    residual = float(opnorms(v.projection @ w.projection - w.projection))
    return residual <= tol, residual


def sequence_limit(seq: Sequence[Subspace], tol: float = TOL_CHECK,
                   tail_len: int = TAIL_LEN) -> Optional[Subspace]:
    """Cauchy-tail limit of a subspace sequence, or None if there is none.

    The last ``tail_len`` projections must be pairwise within ``tol`` in
    the gap metric, all pairs screened at once by ``_spectral_norms``;
    the limit is then the final tail item, which already has the sequence
    rank.  Returns None when the tail is not Cauchy.
    """
    _check_positive("tol", tol)
    tail_len = _integer("tail_len", tail_len, 1)
    if tail_len > len(seq):
        raise ValueError(
            f"tail_len {tail_len} exceeds sequence length {len(seq)}")
    tail = seq[-tail_len:]
    if len({w.ambient_dim for w in tail}) > 1:
        raise ValueError("mixed ambient dimensions in sequence")
    proj = np.stack([w.projection for w in tail])
    i, j = np.triu_indices(len(tail), 1)
    gaps = _spectral_norms(proj[i] - proj[j], tol)
    return tail[-1] if (gaps <= tol).all() else None


def apply_linear_map(m, w: Subspace, tol_rank: float = TOL_RANK) -> Subspace:
    """Image of W under the linear map with matrix ``m``."""
    m = _float_rows(m)
    if m.shape[1] != w.ambient_dim:
        raise ValueError(
            f"map expects vectors of length {m.shape[1]}, "
            f"subspace is ambient {w.ambient_dim}")
    images = w.basis @ m.T
    return span(images, m.shape[0], tol_rank=tol_rank)


def intersection(a: Subspace, b: Subspace, tol: float = TOL_CHECK) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    A vector of A lies in the intersection iff projecting it to B leaves
    it unchanged, so the intersection is spanned by the null directions
    of (I - P_b) restricted to A's basis: the left singular vectors U_k of
    ``A (I - P_b)`` whose singular values are at most ``tol``.  A basis
    has no more rows than columns, so there is one singular value per
    row.  U_k has orthonormal columns and A orthonormal rows, so U_k^T A
    is already an orthonormal basis of the intersection, with one row per
    kept singular value, audited once by :class:`Subspace`.
    """
    _check_positive("tol", tol)
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("intersection requires equal ambient dimensions")
    r, k = a.basis.shape
    if r == 0 or b.dim == 0:
        return Subspace.zero(k)
    # Rows of `defect` are the components of A's basis vectors outside B;
    # combinations of A-basis vectors killed on the left lie inside B.
    defect = a.basis @ (np.eye(k) - b.projection)
    u, sigma, _ = np.linalg.svd(defect)
    # Singular values come in decreasing order, so the kept ones trail.
    kept = int((sigma <= tol).sum())
    return Subspace(k, np.ascontiguousarray(u[:, r - kept:]).T @ a.basis)
