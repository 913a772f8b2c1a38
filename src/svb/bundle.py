"""Sampled stratified vector bundles inside one ambient trivialization.

A bundle assigns to every base sample point (addressed as
``(stratum_name, index)``) a fiber subspace of a shared R^k, with a
declared constant rank per base stratum.  The Whitney A condition is
checked along user-declared convergence scenarios: the limit of the
fibers over the sequence, when the projection tail is Cauchy, must
contain the fiber at the limit point.  Covariant orthogonalizable
functors act fibrewise on bundles.

Per-point bases become one stack per stratum in one place,
``_gather_stacks``: the constructor's keyed fibers and the invariant
and quotient bundles of ``equivariant`` all go through it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import TAIL_LEN, TOL_CHECK, TOL_ORTHO
from .functors import LinearFunctor, _map_in_chunks, dim_map, sized_dim
from .grassmann import (
    Subspace,
    containment_residual,
    orthonormal_rows,
    sequence_limit,
    span,
)
from .strata import Stratification

__all__ = [
    "PointKey",
    "SampledStratifiedBundle",
    "ConvergenceScenario",
    "BundleValidation",
    "InvalidBundleError",
    "WhitneyVerdict",
    "failing_fibers",
    "validate_bundle",
    "whitney_a_check",
    "whitney_a_from_sections",
    "apply_functor_to_bundle",
    "trivial_bundle",
]

PointKey = tuple[str, int]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def failing_fibers(stacks: Mapping[str, np.ndarray],
                   tol_ortho: float = TOL_ORTHO) -> list[PointKey]:
    """The fibers, stack by stack in point order, whose bases fail the
    orthonormality audit of ``Subspace``: one call per stack."""
    return [(name, int(i)) for name, stack in stacks.items()
            for i in np.flatnonzero(~orthonormal_rows(stack, tol_ortho))]


def _gather_stacks(base: Stratification, members,
                   bases: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
    """Each stratum's stack of the ``bases[p]`` of its ``members`` p, in
    order; ValueError at its first point of another rank than its first."""
    stacks = {}
    for s, local in zip(base.strata, members):
        ranks = [len(bases[p]) for p in local]
        if j := next((j for j, r in enumerate(ranks) if r != ranks[0]), 0):
            raise ValueError(
                f"fiber over {(s.name, j)} has rank {ranks[j]}, the fiber "
                f"over {(s.name, 0)} has rank {ranks[0]}")
        stacks[s.name] = np.stack([bases[p] for p in local])
    return stacks


class SampledStratifiedBundle:
    """Fibers over every sample point of a stratified base, held as one
    read-only basis stack ``stacks[name]``, ``(n_i, r_i, k)`` in point
    order, per stratum: one rank per stratum and one R^k by shape.  The
    constructor stacks audited :class:`Subspace` objects, keyed by point:
    KeyError at a point without a fiber and ValueError at a fiber outside
    R^fiber_ambient, checked at every point first, then ValueError at a
    fiber of another rank than its stratum's first (``_gather_stacks``)."""

    def __init__(self, base: Stratification, fiber_ambient: int,
                 fibers: Mapping[PointKey, Subspace],
                 stratum_rank: Mapping[str, int]):
        bases = {(str(s), int(i)): w.basis for (s, i), w in fibers.items()}
        rows = []
        for key in ((s.name, i) for s in base.strata for i in range(len(s))):
            if key not in bases:
                raise KeyError(f"missing fiber over point {key}")
            rows.append(basis := bases[key])
            if basis.shape[1] != fiber_ambient:
                raise ValueError(
                    f"fiber over {key} has ambient {basis.shape[1]}, "
                    f"bundle declares {fiber_ambient}")
        bounds = base._bounds.tolist()
        self._hold(base, fiber_ambient, _gather_stacks(
            base, map(range, bounds, bounds[1:]), rows), stratum_rank)

    @classmethod
    def from_stacks(cls, base: Stratification, fiber_ambient: int,
                    stacks: Mapping[str, np.ndarray],
                    stratum_rank: Optional[Mapping[str, int]] = None,
                    tol_ortho: Optional[float] = TOL_ORTHO
                    ) -> "SampledStratifiedBundle":
        """The bundle of the basis stacks ``stacks[name]``, held as they
        are and made read-only.  Each stack is audited once at
        ``tol_ortho``; None skips the audit for bases that passed it
        already.  Declared ranks default to the stack ranks."""
        if tol_ortho is not None and failing_fibers(stacks, tol_ortho):
            raise ValueError("basis is not orthonormal within tolerance")
        b = cls.__new__(cls)
        b._hold(base, fiber_ambient, stacks, stratum_rank)
        return b

    def _hold(self, base, fiber_ambient, stacks, stratum_rank) -> None:
        self.base = base
        self.fiber_ambient = int(fiber_ambient)
        self.stacks = {s.name: stacks[s.name] for s in base.strata}
        for stack in self.stacks.values():
            stack.flags.writeable = False
        if stratum_rank is None:
            stratum_rank = {n: st.shape[1] for n, st in self.stacks.items()}
        self.stratum_rank = {str(k): int(v) for k, v in stratum_rank.items()}

    def point_keys(self) -> list[PointKey]:
        return [(s.name, i) for s in self.base.strata for i in range(len(s))]

    def point(self, key: PointKey) -> np.ndarray:
        name, i = key
        stratum = self.base.stratum(name)
        if not 0 <= i < len(stratum):
            raise KeyError(f"point index {i} out of range for stratum {name!r}")
        return stratum.points[i]

    def fiber(self, key: PointKey) -> Subspace:
        """A :class:`Subspace` view of the basis over ``key``."""
        self.point(key)  # range check
        return Subspace.view(self.stacks[key[0]][key[1]])

    def __repr__(self):
        return (f"SampledStratifiedBundle(base={self.base.names}, "
                f"fiber_ambient={self.fiber_ambient})")


def trivial_bundle(base: Stratification, fiber_dim: int) -> SampledStratifiedBundle:
    """The product bundle base x R^fiber_dim."""
    eye = np.eye(fiber_dim)
    return SampledStratifiedBundle.from_stacks(
        base, fiber_dim,
        {s.name: np.broadcast_to(eye, (len(s), fiber_dim, fiber_dim))
         for s in base.strata}, tol_ortho=None)


@dataclass(frozen=True)
class ConvergenceScenario:
    """A declared sequence in stratum R converging to a point of stratum S."""

    target_stratum: str
    source_stratum: str
    x0_index: int
    sequence_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0_index", _scenario_index(self.x0_index))
        object.__setattr__(self, "sequence_indices", tuple(
            _scenario_index(i) for i in self.sequence_indices))
        if not self.sequence_indices:
            raise ValueError("scenario needs a nonempty sequence")
        if self.source_stratum == self.target_stratum:
            # A sequence in S itself may end at x0, and always passes.
            raise ValueError(f"scenario needs two distinct strata, got "
                             f"{self.target_stratum!r} as both S and R")

    def to_json(self) -> dict:
        return {"S": self.target_stratum, "R": self.source_stratum,
                "x0_index": self.x0_index,
                "sequence_indices": list(self.sequence_indices)}


def _scenario_index(i) -> int:
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"scenario index {i!r} is not an integer") from None


@dataclass(frozen=True)
class BundleValidation:
    """What ``validate_bundle`` found."""

    passed: bool
    problems: tuple[str, ...]

    def __bool__(self):
        return self.passed


def validate_bundle(b: SampledStratifiedBundle) -> BundleValidation:
    """Compare each stratum's declared rank with the rank of its fiber
    stack, and report a rank declared for a stratum the base does not
    have.  Ambient dimension and constant rank per stratum hold by
    shape; orthonormality was audited when the stacks were built."""
    problems: list[str] = []
    for name, stack in b.stacks.items():
        expected = b.stratum_rank.get(name)
        if expected is None:
            problems.append(f"stratum {name!r} has no declared rank")
        elif stack.shape[1] != expected:
            problems.append(f"stratum {name!r} declares rank {expected}, "
                            f"its fibers have rank {stack.shape[1]}")
    for name in b.stratum_rank:
        if name not in b.stacks:
            problems.append(f"rank declared for unknown stratum {name!r}")
    return BundleValidation(passed=not problems, problems=tuple(problems))


@dataclass(frozen=True)
class WhitneyVerdict:
    status: str
    residual: Optional[float] = None
    limit: Optional[Subspace] = field(default=None, repr=False)
    section_residuals: tuple[float, ...] = ()

    def __bool__(self):
        return self.status == PASS


def whitney_a_check(b: SampledStratifiedBundle, sc: ConvergenceScenario,
                    tol: float = TOL_CHECK,
                    tail_len: int = TAIL_LEN) -> WhitneyVerdict:
    """Limit-of-fibers containment test along one declared scenario.

    PASS when the fiber sequence has a Cauchy-tail limit W containing
    the fiber over the limit point, FAIL with the containment residual
    otherwise, INCONCLUSIVE when no limit is detected.
    """
    x0_key = (sc.target_stratum, sc.x0_index)
    x0 = b.point(x0_key)
    # Only the tail is read; every index is still range checked.
    size = len(b.base.stratum(sc.source_stratum))
    for i in sc.sequence_indices:
        if not 0 <= i < size:
            b.point((sc.source_stratum, i))
    tail_keys = [(sc.source_stratum, i)
                 for i in sc.sequence_indices[-tail_len:]]
    tail = [float(np.linalg.norm(b.point(k) - x0)) for k in tail_keys]
    if any(a < bb - 1e-12 for a, bb in zip(tail, tail[1:])):
        raise ValueError(
            "scenario tail does not approach the limit point monotonically")
    limit = sequence_limit([b.fiber(k) for k in tail_keys],
                           tol=tol, tail_len=tail_len)
    if limit is None:
        return WhitneyVerdict(INCONCLUSIVE)
    ok, residual = containment_residual(b.fiber(x0_key), limit, tol)
    return WhitneyVerdict(PASS if ok else FAIL, residual=residual, limit=limit)


def whitney_a_from_sections(b: SampledStratifiedBundle,
                            sections: Sequence[Mapping[str, np.ndarray]],
                            sc: ConvergenceScenario,
                            tol: float = TOL_CHECK,
                            tail_len: int = TAIL_LEN) -> WhitneyVerdict:
    """Section-based Whitney A oracle.

    A section maps each stratum to the ``(n_i, k)`` stack of its values,
    aligned with ``b.stacks``: a stack of more rows or another width is
    rejected, a short or missing one is undefined at its first absent
    point.  Requires sections that take values in the fibers (one
    batched residual per stack) and span the fiber over the limit
    point.  The verdict is that of ``whitney_a_check``, with each
    section's residual at the final tail point attached: the limit is
    the fiber there, which every section was just found within tol of.
    """
    verdict = whitney_a_check(b, sc, tol=tol, tail_len=tail_len)
    empty = np.empty((0, b.fiber_ambient))
    last = sc.sequence_indices[-1]
    section_residuals = []
    for j, section in enumerate(sections):
        for name, stack in b.stacks.items():
            v = np.asarray(section.get(name, empty), dtype=float)
            if (v.ndim != 2 or v.shape[1] != b.fiber_ambient
                    or len(v) > len(stack)):
                raise ValueError(
                    f"section {j} over stratum {name!r} has shape {v.shape}, "
                    f"expected ({len(stack)}, {b.fiber_ambient})")
            # A NaN residual fails too.
            residual = _off_fiber(stack[:len(v)], v)
            if (off := np.flatnonzero(~(residual <= tol))).size:
                raise ValueError(f"section {j} leaves the fiber at point "
                                 f"{(name, int(off[0]))}")
            if len(v) < len(stack):
                raise ValueError(
                    f"section {j} undefined at point {(name, len(v))}")
            if name == sc.source_stratum:
                section_residuals.append(float(residual[last]))
    spanned = span([np.asarray(sec[sc.target_stratum][sc.x0_index],
                               dtype=float) for sec in sections],
                   b.fiber_ambient)
    if spanned.dim != b.stacks[sc.target_stratum].shape[1]:
        raise ValueError(
            "section values at the limit point do not span its fiber")
    return verdict if verdict.limit is None else replace(
        verdict, section_residuals=tuple(section_residuals))


def _off_fiber(bases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``|v - B^T (B v)|``: the distance of each vector of ``v`` to the
    span of the orthonormal rows of its basis B, broadcast over the
    leading axes of the stack ``bases``."""
    return np.linalg.norm(
        v - (bases.swapaxes(-1, -2) @ (bases @ v[..., None]))[..., 0],
        axis=-1)


class InvalidBundleError(ValueError):
    """A bundle that fails :func:`validate_bundle` was given where a
    valid one is needed; ``validation`` holds the problems found."""

    def __init__(self, validation: BundleValidation):
        super().__init__("bundle fails validation: "
                         + "; ".join(validation.problems))
        self.validation = validation


def apply_functor_to_bundle(f: LinearFunctor, b: SampledStratifiedBundle
                            ) -> SampledStratifiedBundle:
    """Apply a functor fibrewise: same base, fibers F(A_x), ranks F(rank).

    Each stratum's stack is mapped by ``_map_in_chunks`` and audited at
    the verdict tolerance.  Raises :class:`InvalidBundleError` when ``b``
    fails validation, ValueError when F builds a space above ``MAX_DIM``.
    """
    ambient = sized_dim(f, b.fiber_ambient)
    validation = validate_bundle(b)
    if not validation.passed:
        raise InvalidBundleError(validation)
    return SampledStratifiedBundle.from_stacks(
        b.base, ambient,
        {name: _map_in_chunks(f, stack) for name, stack in b.stacks.items()},
        {name: dim_map(f, r) for name, r in b.stratum_rank.items()},
        tol_ortho=TOL_CHECK)

