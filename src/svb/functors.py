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

``check_orthogonality`` measures the defect of that identity.

* tensor power: lexicographic multi-indices, ``F(m) = m ⊗ ... ⊗ m``;
* wedge power: strictly increasing index tuples, entries of F(m) are the
  n x n minors of m (orthonormal under the determinant inner product);
* symmetric power: weakly increasing index tuples normalized by the
  square roots of multiplicity factorials, entries are scaled permanents.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import TOL_CHECK
from .grassmann import Subspace, opnorm

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
    "apply_to_map",
    "apply_to_subspace",
    "check_orthogonality",
    "parse_functor",
    "functor_to_json",
    "functor_from_json",
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


@dataclass(frozen=True)
class TensorPower:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tensor power requires n >= 1")


@dataclass(frozen=True)
class WedgePower:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("wedge power requires n >= 1")


@dataclass(frozen=True)
class SymPower:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("symmetric power requires n >= 1")


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


def _tensor_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def _wedge_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    k, j = m.shape
    rows = list(itertools.combinations(range(k), n))
    cols = list(itertools.combinations(range(j), n))
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    ri = np.array(rows)  # (R, n)
    ci = np.array(cols)  # (C, n)
    blocks = m[ri[:, None, :, None], ci[None, :, None, :]]  # (R, C, n, n)
    return np.linalg.det(blocks)


def _multiplicity_factorial(index_tuple) -> float:
    out = 1.0
    run = 1
    for a, b in zip(index_tuple, index_tuple[1:]):
        run = run + 1 if a == b else 1
        out *= run
    return out


def _sym_power_matrix(m: np.ndarray, n: int) -> np.ndarray:
    k, j = m.shape
    rows = list(itertools.combinations_with_replacement(range(k), n))
    cols = list(itertools.combinations_with_replacement(range(j), n))
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    ri = np.array(rows)
    ci = np.array(cols)
    blocks = m[ri[:, None, :, None], ci[None, :, None, :]]  # (R, C, n, n)
    perm = np.zeros(blocks.shape[:2])
    positions = np.arange(n)
    for sigma in itertools.permutations(range(n)):
        perm += np.prod(blocks[:, :, positions, list(sigma)], axis=-1)
    weights_r = np.sqrt([_multiplicity_factorial(t) for t in rows])
    weights_c = np.sqrt([_multiplicity_factorial(t) for t in cols])
    return perm / np.outer(weights_r, weights_c)


def apply_to_map(f: LinearFunctor, m) -> np.ndarray:
    """Matrix of F(m) in the canonical bases; m may be rectangular k x j."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if isinstance(f, Identity):
        return m.copy()
    if isinstance(f, ConstantSum):
        return np.eye(f.dim)
    if isinstance(f, DirectSum):
        top = apply_to_map(f.left, m)
        bottom = apply_to_map(f.right, m)
        out = np.zeros((top.shape[0] + bottom.shape[0],
                        top.shape[1] + bottom.shape[1]))
        out[:top.shape[0], :top.shape[1]] = top
        out[top.shape[0]:, top.shape[1]:] = bottom
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


def apply_to_subspace(f: LinearFunctor, w: Subspace) -> Subspace:
    """F(W) inside F(R^N), spanned by the rows of F(B).

    For an orthonormal basis B of W, F(B) F(B)^T = F(B B^T) = F(I) = I,
    so the rows of F(B) are already an orthonormal basis of F(W) with
    exactly ``dim_map(f, dim W)`` vectors: no rank decision is needed.
    F(B) inherits the orthonormality defect of B, amplified by the degree
    of F, so its audit uses the verdict tolerance.
    """
    return Subspace(dim_map(f, w.ambient_dim), apply_to_map(f, w.basis),
                    tol_ortho=TOL_CHECK)


def check_orthogonality(f: LinearFunctor, w: Subspace,
                        tol: float = TOL_CHECK) -> tuple[bool, float]:
    """Residual of F(P_W) = P_{F(W)} in the operator norm."""
    fp = apply_to_map(f, w.projection)
    fw = apply_to_subspace(f, w)
    residual = opnorm(fp - fw.projection)
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# Serialization: JSON tree and the CLI shorthand grammar, e.g.
#   "wedge:2", "sym:3", "id", "const:1",
#   "compose(wedge:2,sum(id,const:1))".

_POWER_OPS = {"wedge": WedgePower, "tensor": TensorPower, "sym": SymPower}


def functor_to_json(f: LinearFunctor) -> dict:
    if isinstance(f, Identity):
        return {"op": "id"}
    if isinstance(f, ConstantSum):
        return {"op": "const", "n": f.dim}
    if isinstance(f, TensorPower):
        return {"op": "tensor", "n": f.n}
    if isinstance(f, WedgePower):
        return {"op": "wedge", "n": f.n}
    if isinstance(f, SymPower):
        return {"op": "sym", "n": f.n}
    if isinstance(f, DirectSum):
        return {"op": "sum",
                "args": [functor_to_json(f.left), functor_to_json(f.right)]}
    if isinstance(f, Compose):
        return {"op": "compose",
                "args": [functor_to_json(f.outer), functor_to_json(f.inner)]}
    raise TypeError(f"not a functor spec: {f!r}")


def functor_from_json(obj: dict) -> LinearFunctor:
    op = obj.get("op")
    if op == "id":
        return Identity()
    if op == "const":
        return ConstantSum(int(obj["n"]))
    if op in _POWER_OPS:
        return _POWER_OPS[op](int(obj["n"]))
    if op == "sum":
        left, right = obj["args"]
        return DirectSum(functor_from_json(left), functor_from_json(right))
    if op == "compose":
        outer, inner = obj["args"]
        return Compose(functor_from_json(outer), functor_from_json(inner))
    raise ValueError(f"unknown functor op: {op!r}")


def format_functor(f: LinearFunctor) -> str:
    """Inverse of parse_functor."""
    if isinstance(f, Identity):
        return "id"
    if isinstance(f, ConstantSum):
        return f"const:{f.dim}"
    if isinstance(f, TensorPower):
        return f"tensor:{f.n}"
    if isinstance(f, WedgePower):
        return f"wedge:{f.n}"
    if isinstance(f, SymPower):
        return f"sym:{f.n}"
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
        name, number = simple.group(1), int(simple.group(2))
        if name == "const":
            return ConstantSum(number)
        return _POWER_OPS[name](number)
    call = re.fullmatch(r"(sum|compose)\s*\((.*)\)", text, flags=re.DOTALL)
    if call:
        name, body = call.group(1), call.group(2)
        args = _split_top_level(body)
        if len(args) != 2:
            raise ValueError(f"{name}(...) takes exactly two arguments")
        first, second = (parse_functor(a) for a in args)
        return DirectSum(first, second) if name == "sum" else Compose(first, second)
    raise ValueError(f"cannot parse functor string: {text!r}")
