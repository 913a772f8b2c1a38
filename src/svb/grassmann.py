"""Subspace arithmetic through orthogonal projections.

A linear subspace W of R^n is stored as an orthonormal basis (rows of a
matrix) together with the derived projection matrix P_W = B^T B.  All
comparisons between subspaces go through their projections: the gap
metric is the operator norm of the projection difference, containment
is a one-multiply residual test, and limits of subspace sequences are
detected by a Cauchy criterion on the tail of the projection sequence.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .config import TOL_CHECK, TOL_ORTHO, TOL_RANK

__all__ = [
    "Subspace",
    "SubspaceSequence",
    "span",
    "gap_distance",
    "is_contained",
    "sequence_limit",
    "apply_linear_map",
    "intersection",
    "opnorm",
]


def opnorm(a) -> float:
    """Operator (spectral) norm, defined as 0 for zero-size matrices."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
        ambient_dim = int(ambient_dim)
        if ambient_dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if basis.size == 0:
            basis = basis.reshape(0, ambient_dim)
        if basis.shape[1] != ambient_dim:
            raise ValueError(
                f"basis vectors have length {basis.shape[1]}, expected {ambient_dim}")
        if basis.shape[0] > ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        gram = basis @ basis.T
        # Fails on NaN and infinity too; an empty Gram matrix passes.
        if not (np.abs(gram - np.eye(basis.shape[0]))
                <= max(tol_ortho, 1e-12)).all():
            raise ValueError("basis is not orthonormal within tolerance")
        basis = basis.copy()
        basis.flags.writeable = False
        projection = basis.T @ basis
        projection.flags.writeable = False
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "projection", projection)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    def project(self, vector) -> np.ndarray:
        return self.projection @ np.asarray(vector, dtype=float)

    def contains_vector(self, vector, tol: float = TOL_CHECK) -> bool:
        v = np.asarray(vector, dtype=float)
        return float(np.linalg.norm(v - self.project(v))) <= tol

    def to_json(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": self.basis.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Subspace":
        return cls(obj["ambient"], obj["basis"])

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class SubspaceSequence:
    """A nonempty list of equal-rank subspaces of one ambient space."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Subspace]):
        items = tuple(items)
        if not items:
            raise ValueError("sequence must be nonempty")
        ambient = items[0].ambient_dim
        rank = items[0].dim
        for w in items[1:]:
            if w.ambient_dim != ambient:
                raise ValueError("mixed ambient dimensions in sequence")
            if w.dim != rank:
                raise ValueError("sequence does not have constant rank")
        object.__setattr__(self, "items", items)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceSequence is immutable")

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


def span(vectors, ambient_dim: int, tol_rank: float = TOL_RANK,
         tol_abs: float = 0.0) -> Subspace:
    """Orthonormalize ``vectors`` into a Subspace of R^ambient_dim.

    The rank is decided by the relative singular-value threshold: sigma
    counts iff sigma > tol_rank * sigma_max.  An empty or all-zero input
    yields the zero subspace.  ``tol_abs`` adds an absolute cutoff for
    callers whose inputs have a known scale (e.g. images of orthogonal
    projections, where real singular values are 1 and anything tiny is
    rounding noise).
    """
    mat = np.asarray(list(vectors), dtype=float)
    if mat.size == 0:
        return Subspace.zero(ambient_dim)
    mat = np.atleast_2d(mat)
    if mat.shape[1] != ambient_dim:
        raise ValueError(
            f"vectors have length {mat.shape[1]}, expected {ambient_dim}")
    _, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return Subspace.zero(ambient_dim)
    cutoff = max(tol_rank * sigma[0], tol_abs)
    rank = int(np.sum(sigma > cutoff))
    return Subspace(ambient_dim, vh[:rank])


def gap_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between projections, ``||P_a - P_b||_2``."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("gap_distance requires equal ambient dimensions")
    if a.ambient_dim == 0:
        return 0.0
    return float(np.linalg.norm(a.projection - b.projection, 2))


def is_contained(w: Subspace, v: Subspace, tol: float = TOL_CHECK) -> bool:
    """True iff W sits inside V: ``||P_v P_w - P_w||_2 <= tol``."""
    ok, _ = containment_residual(w, v, tol)
    return ok


def containment_residual(w: Subspace, v: Subspace,
                         tol: float = TOL_CHECK) -> tuple[bool, float]:
    """Containment test plus the residual it was decided on."""
    if w.ambient_dim != v.ambient_dim:
        raise ValueError("containment requires equal ambient dimensions")
    if w.ambient_dim == 0:
        return True, 0.0
    residual = float(np.linalg.norm(v.projection @ w.projection - w.projection, 2))
    return residual <= tol, residual


def sequence_limit(seq: SubspaceSequence, tol: float = TOL_CHECK,
                   tail_len: int = 5) -> Optional[Subspace]:
    """Cauchy-tail limit of a subspace sequence, or None if there is none.

    The last ``tail_len`` projections must be pairwise within ``tol`` in
    the gap metric; the limit is then the final tail item, which already
    has the sequence rank.  Returns None when the tail is not Cauchy.
    """
    if tail_len < 1:
        raise ValueError("tail_len must be at least 1")
    if tail_len > len(seq):
        raise ValueError(
            f"tail_len {tail_len} exceeds sequence length {len(seq)}")
    tail = seq.items[-tail_len:]
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            if gap_distance(tail[i], tail[j]) > tol:
                return None
    return tail[-1]


def apply_linear_map(m, w: Subspace, tol_rank: float = TOL_RANK) -> Subspace:
    """Image of W under the linear map with matrix ``m``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
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
    of (I - P_b) restricted to A's basis.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("intersection requires equal ambient dimensions")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # Rows of `defect` are the components of A's basis vectors outside B;
    # combinations of A-basis vectors killed on the left lie inside B.
    defect = a.basis @ (np.eye(a.ambient_dim) - b.projection)
    u, sigma, _ = np.linalg.svd(defect, full_matrices=True)
    sigma = np.concatenate([sigma, np.zeros(a.dim - sigma.size)])
    coeffs = u[:, sigma <= tol].T
    if coeffs.size == 0:
        return Subspace.zero(a.ambient_dim)
    return span(coeffs @ a.basis, a.ambient_dim)
