"""Covariant linear functors on finite-dimensional real vector spaces.

A functor is described symbolically as a tree over seven primitives
(identity, constant summand, direct sum, tensor/wedge/symmetric power,
composition) and realized concretely on matrices: ``apply_to_map``
produces the matrix of F(m) in canonical orthonormal bases, and
``apply_to_subspace`` produces the image subspace F(W).

Canonical bases are chosen orthonormal for the induced inner products so
that applying a functor to an orthogonal projection again yields an
orthogonal projection, onto the image subspace:

    F(P_W) = P_{F(W)}.

``check_orthogonality`` measures the defect of that identity against the
true projector onto F(W), through the Gram matrix of F(B).

* tensor power: lexicographic multi-indices, ``F(m) = m ⊗ ... ⊗ m``;
* wedge power: strictly increasing index tuples, entries of F(m) are the
  n x n minors of m (orthonormal under the determinant inner product);
* symmetric power: weakly increasing index tuples normalized by the
  square roots of multiplicity factorials, entries are scaled permanents,
  each expanded along its last row into permanents of one degree less.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import TOL_CHECK
from .grassmann import Subspace, opnorms

__all__ = [
    "Identity",
    "ConstantSum",
    "DirectSum",
    "TensorPower",
    "WedgePower",
    "SymPower",
    "Compose",
    "LinearFunctor",
    "dim_map",
    "sized_dim",
    "MAX_DIM",
    "apply_to_map",
    "apply_to_subspace",
    "check_orthogonality",
    "orthogonality_residuals",
    "parse_functor",
    "format_functor",
]


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ConstantSum:
    """The constant functor V -> R^dim, sending every map to the identity."""

    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("constant summand dimension must be nonnegative")


@dataclass(frozen=True)
class DirectSum:
    left: "LinearFunctor"
    right: "LinearFunctor"


# Largest degree of every power: tensor:n above log2(MAX_DIM) exceeds
# MAX_DIM on every R^k, k >= 2, and wedge:n and sym:n share that bound.
MAX_POWER_DEGREE = 11


@dataclass(frozen=True)
class _Power:
    """A degree-n power, 1 <= n <= ``MAX_POWER_DEGREE``, written ``op:n``."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POWER_DEGREE:
            raise ValueError(f"{self.kind} power degree {self.n} is outside "
                             f"1..{MAX_POWER_DEGREE}")


@dataclass(frozen=True)
class TensorPower(_Power):
    op, kind = "tensor", "tensor"


@dataclass(frozen=True)
class WedgePower(_Power):
    op, kind = "wedge", "wedge"


@dataclass(frozen=True)
class SymPower(_Power):
    op, kind = "sym", "symmetric"


@dataclass(frozen=True)
class Compose:
    outer: "LinearFunctor"
    inner: "LinearFunctor"


LinearFunctor = Union[Identity, ConstantSum, DirectSum, TensorPower,
                      WedgePower, SymPower, Compose]


def dim_map(f: LinearFunctor, k: int) -> int:
    """Dimension of F(R^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if isinstance(f, Identity):
        return k
    if isinstance(f, ConstantSum):
        return f.dim
    if isinstance(f, DirectSum):
        return dim_map(f.left, k) + dim_map(f.right, k)
    if isinstance(f, TensorPower):
        return k ** f.n
    if isinstance(f, WedgePower):
        return math.comb(k, f.n)
    if isinstance(f, SymPower):
        return math.comb(k + f.n - 1, f.n)
    if isinstance(f, Compose):
        return dim_map(f.outer, dim_map(f.inner, k))
    raise TypeError(f"not a functor spec: {f!r}")


# Largest space F may build from R^k, intermediates of compose included:
# one F(P) at this size takes 32 MiB.
MAX_DIM = 2048


def _peak_dim(f: LinearFunctor, k: int) -> int:
    """Largest dimension among F(R^k) and the spaces built on the way."""
    if isinstance(f, DirectSum):
        return max(dim_map(f, k), _peak_dim(f.left, k), _peak_dim(f.right, k))
    if isinstance(f, Compose):
        inner = _peak_dim(f.inner, k)
        return max(inner, _peak_dim(f.outer, dim_map(f.inner, k)))
    return dim_map(f, k)


def sized_dim(f: LinearFunctor, k: int) -> int:
    """``dim_map(f, k)``, or ValueError when F would build a space above
    ``MAX_DIM`` from R^k; called before anything is allocated."""
    peak = _peak_dim(f, k)
    if peak > MAX_DIM:
        raise ValueError(
            f"functor {format_functor(f)} on R^{k} builds a space of "
            f"dimension {peak}, above the limit {MAX_DIM}")
    return dim_map(f, k)


def _tensor_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    # Iterated Kronecker product of each matrix of the stack, entries
    # multiplied in kron's (a*b)*c order.  Products keep the memory order
    # of their operands, so a stack in C order lets every reshape be a
    # view.
    *lead, k, j = m.shape
    out = m = np.ascontiguousarray(m)
    for p in range(1, n):
        out = (out[..., :, None, :, None] * m[..., None, :, None, :]
               ).reshape(*lead, k ** (p + 1), j ** (p + 1))
    return out


@functools.cache
def _index_tuples(combos, k: int, n: int):
    """Read-only: the tuples ``combos(range(k), n)`` as a (count, n) array,
    and one whose entry (t, b) is the row of ``combos(range(k), n - 1)``
    holding tuple t with position b removed."""
    tuples = list(combos(range(k), n))
    index = {t: i for i, t in enumerate(combos(range(k), n - 1))}
    drop = [[index[t[:b] + t[b + 1:]] for b in range(n)] for t in tuples]
    out = np.array([tuples, drop], dtype=np.intp).reshape(2, -1, n)
    out.flags.writeable = False
    return out


@functools.cache
def _sym_weights(k: int, n: int) -> np.ndarray:
    """Read-only: the square roots of the multiplicity factorials of each
    tuple of ``combinations_with_replacement(range(k), n)``."""
    tuples = _index_tuples(itertools.combinations_with_replacement, k, n)[0]
    out = np.sqrt([math.prod(map(math.factorial, Counter(t).values()))
                   for t in tuples.tolist()])
    out.flags.writeable = False
    return out


# Working memory, in matrix entries, above which a stack is processed in
# chunks; one matrix at a time needs no more than the per-matrix route.
_CHUNK = 1 << 20


def _chunks(count: int, work: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` matrices that each need
    ``work`` entries of working memory, at most ``_CHUNK`` entries (and
    at least one matrix) per slice."""
    step = max(1, _CHUNK // max(work, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def _by_chunks(kernel, m: np.ndarray, ri, ci, per_entry: int) -> np.ndarray:
    """The (..., R, C) stack of ``kernel`` applied chunk by chunk to the
    stack ``m`` (..., k, j); a kernel needs ``per_entry`` entries of
    working memory per entry of its result."""
    *lead, k, j = m.shape
    out = np.zeros((math.prod(lead), len(ri), len(ci)))
    if out.size:
        stack = m.reshape(len(out), k, j)
        for part in _chunks(len(out), per_entry * out[0].size):
            out[part] = kernel(stack[part])
    return out.reshape(*lead, len(ri), len(ci))


def _wedge_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    ri, ci = (_index_tuples(itertools.combinations, size, n)[0]
              for size in m.shape[-2:])
    # Entry (r, c) is the n x n minor of m on rows ri[r], columns ci[c].
    return _by_chunks(lambda s: np.linalg.det(
        s[:, ri[:, None, :, None], ci[None, :, None, :]]), m, ri, ci, n * n)


def _sym_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    levels = [[_index_tuples(itertools.combinations_with_replacement,
                             size, p) for size in m.shape[-2:]]
              for p in range(1, n + 1)]
    (ri, _), (ci, _) = levels[-1]
    weights = np.outer(*(_sym_weights(size, n) for size in m.shape[-2:]))

    def permanents(s):
        # Degree p: perm[:, R, C] is the sum over positions b of
        # s[R_p, C_b] times the permanent of degree p - 1 on R∖R_p, C∖C_b.
        perm = np.ones((len(s), 1, 1))
        for (rows, rdrop), (cols, cdrop) in levels:
            last = np.take(s, rows[:, -1], axis=1)
            below = np.take(perm, rdrop[:, -1], axis=1)
            perm = np.zeros((len(s), len(rows), len(cols)))
            for b in range(rows.shape[1]):
                perm += (np.take(last, cols[:, b], axis=2)
                         * np.take(below, cdrop[:, b], axis=2))
        return perm / weights

    # The accumulator, two gathered factors and their product.
    return _by_chunks(permanents, m, ri, ci, 4)


def apply_to_map(f: LinearFunctor, m) -> np.ndarray:
    """Matrix of F(m) in the canonical bases; m may be rectangular k x j,
    or a stack (..., k, j) of such matrices, mapped matrix by matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if isinstance(f, Identity):
        return m.copy()
    if isinstance(f, ConstantSum):
        return np.broadcast_to(np.eye(f.dim),
                               (*m.shape[:-2], f.dim, f.dim)).copy()
    if isinstance(f, DirectSum):
        top = apply_to_map(f.left, m)
        bottom = apply_to_map(f.right, m)
        (r1, c1), (r2, c2) = top.shape[-2:], bottom.shape[-2:]
        out = np.zeros((*m.shape[:-2], r1 + r2, c1 + c2))
        out[..., :r1, :c1] = top
        out[..., r1:, c1:] = bottom
        return out
    if isinstance(f, TensorPower):
        return _tensor_power_matrix(m, f.n)
    if isinstance(f, WedgePower):
        return _wedge_power_matrix(m, f.n)
    if isinstance(f, SymPower):
        return _sym_power_matrix(m, f.n)
    if isinstance(f, Compose):
        return apply_to_map(f.outer, apply_to_map(f.inner, m))
    raise TypeError(f"not a functor spec: {f!r}")


def _map_in_chunks(f: LinearFunctor, stack: np.ndarray) -> np.ndarray:
    """``apply_to_map(f, stack)`` on a basis stack ``(n, r, k)``, in the
    chunks of ``orthogonality_residuals`` when one does not cover it, so
    that a composite's intermediates do not grow with ``n``."""
    _, r, k = stack.shape
    parts = _chunks(len(stack), _peak_dim(f, r) * _peak_dim(f, k))
    if len(parts) <= 1:
        return apply_to_map(f, stack)
    out = np.empty((len(stack), dim_map(f, r), dim_map(f, k)))
    for part in parts:
        out[part] = apply_to_map(f, stack[part])
    return out


def apply_to_subspace(f: LinearFunctor, w: Subspace) -> Subspace:
    """F(W) inside F(R^N), spanned by the rows of F(B).

    For an orthonormal basis B of W, F(B) F(B)^T = F(B B^T) = F(I) = I,
    so the rows of F(B) are already an orthonormal basis of F(W) with
    exactly ``dim_map(f, dim W)`` vectors: no rank decision is needed.
    F(B) inherits the orthonormality defect of B, amplified by the degree
    of F, so its audit uses the verdict tolerance.  ValueError when F
    builds a space above ``MAX_DIM`` from the ambient space.
    """
    return Subspace(sized_dim(f, w.ambient_dim), apply_to_map(f, w.basis),
                    tol_ortho=TOL_CHECK)


def orthogonality_residuals(f: LinearFunctor, bases) -> np.ndarray:
    """Residuals of F(P_W) = P_{F(W)} in the operator norm, taken by
    ``grassmann.opnorms``, one per subspace W of a stack ``(count, r, k)``
    of orthonormal bases.

    Every primitive is a *-functor, so F(P_W) = F(B^T B) = F(B)^T F(B).
    The true projector onto F(W) is F(B)^+ F(B), and with the r' x r'
    Gram matrix G = F(B) F(B)^T the difference has the nonzero spectrum
    of G^(1/2) (I - G^-1) G^(1/2) = G - I: the residual is ||G - I||,
    exact for F(B) of full row rank and at least 1 otherwise.  No image
    audit is made, so a basis off orthonormality shows here, amplified
    by the degree of F.  ValueError when F(R^k) exceeds ``MAX_DIM``.
    The stack goes through in chunks, so memory does not grow with
    ``count``.
    """
    bases = np.asarray(bases, dtype=float)
    r, k = bases.shape[-2:]
    sized_dim(f, k)  # ValueError above MAX_DIM, before any allocation
    rank = dim_map(f, r)
    residuals = np.zeros(len(bases))
    # Per basis: the largest image built on the way to F(B), r' x dim
    # unless a composite builds a larger one first, and G and the copies
    # opnorms makes of it, r' x r' each.
    for part in _chunks(len(bases), _peak_dim(f, r) * _peak_dim(f, k)
                        + 3 * rank * rank):
        images = apply_to_map(f, bases[part])
        residuals[part] = opnorms(images @ images.swapaxes(-1, -2)
                                  - np.eye(rank))
    return residuals


def check_orthogonality(f: LinearFunctor, w: Subspace,
                        tol: float = TOL_CHECK) -> tuple[bool, float]:
    """Residual of F(P_W) = P_{F(W)} in the operator norm."""
    residual = float(orthogonality_residuals(f, w.basis[None])[0])
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# Serialization: the CLI shorthand grammar, e.g.
#   "wedge:2", "sym:3", "id", "const:1",
#   "compose(wedge:2,sum(id,const:1))".

_POWER_OPS = {cls.op: cls for cls in (WedgePower, TensorPower, SymPower)}


def format_functor(f: LinearFunctor) -> str:
    """Inverse of parse_functor."""
    if isinstance(f, Identity):
        return "id"
    if isinstance(f, ConstantSum):
        return f"const:{f.dim}"
    if isinstance(f, _Power):
        return f"{f.op}:{f.n}"
    if isinstance(f, DirectSum):
        return f"sum({format_functor(f.left)},{format_functor(f.right)})"
    if isinstance(f, Compose):
        return f"compose({format_functor(f.outer)},{format_functor(f.inner)})"
    raise TypeError(f"not a functor spec: {f!r}")


def _split_top_level(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in functor string")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses in functor string")
    parts.append("".join(current))
    return parts


def parse_functor(text: str) -> LinearFunctor:
    """Parse the CLI shorthand for functor specs."""
    text = text.strip()
    if not text:
        raise ValueError("empty functor string")
    if text == "id":
        return Identity()
    simple = re.fullmatch(r"(wedge|tensor|sym|const)\s*:\s*(\d+)", text)
    if simple:
        name, digits = simple.group(1), simple.group(2).lstrip("0") or "0"
        power = _POWER_OPS.get(name)
        if len(digits) > 9:  # beyond every bound, and perhaps beyond int()
            what = (f"{power.kind} power degree" if power
                    else "constant summand dimension")
            bound = f"1..{MAX_POWER_DEGREE}" if power else f"0..{MAX_DIM}"
            raise ValueError(f"{what} of {len(digits)} digits is outside {bound}")
        return power(int(digits)) if power else ConstantSum(int(digits))
    call = re.fullmatch(r"(sum|compose)\s*\((.*)\)", text, flags=re.DOTALL)
    if call:
        name, body = call.group(1), call.group(2)
        args = _split_top_level(body)
        if len(args) != 2:
            raise ValueError(f"{name}(...) takes exactly two arguments")
        try:
            first, second = (parse_functor(a) for a in args)
        except RecursionError:  # nesting beyond Python's recursion limit
            raise ValueError("functor string is nested too deeply") from None
        return DirectSum(first, second) if name == "sum" else Compose(first, second)
    raise ValueError(f"cannot parse functor string: {text!r}")
