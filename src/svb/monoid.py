"""Analysis of smooth actions of the multiplicative reals on R^m.

An action sample is an evaluator h(t, e) restricted to a finite grid of
times and a finite set of points.  The audits check the monoid axioms
(h_1 = id, h_t h_s = h_ts), estimate the vertical derivative
phi(e) = d/dt h_t(e) at t = 0 by Richardson-refined central differences,
and classify regularity: phi vanishes exactly on the fixed set of h_0.
For regular actions the fibers of the encoded vector bundle are
recovered as spans of phi over h_0-clusters.

Evaluators are restricted to named built-ins and polynomial coefficient
tables so that action files are reproducible across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import CLUSTER_RADIUS, STEP, TOL_CHECK
from .grassmann import Subspace, span

_EPS = float(np.finfo(float).eps)

__all__ = [
    "MonoidActionSample",
    "MonoidAudit",
    "RegularityReport",
    "PointClassification",
    "VerticalFragment",
    "REGULAR",
    "NOT_REGULAR",
    "audit_axioms",
    "vertical_derivative",
    "regularity_check",
    "reconstruct_bundle",
]

REGULAR = "REGULAR"
NOT_REGULAR = "NOT_REGULAR"


def _builtin_scalar(t, e):
    return t * e


def _builtin_square_scale(t, e):
    return (t * t) * e


def _builtin_translate(t, e):
    return e + t


def _builtin_scale_last(t, e):
    out = e.copy()
    out[-1] = t * out[-1]
    return out


def _builtin_identity(t, e):
    return e.copy()


BUILTIN_ACTIONS: dict[str, Callable[[float, np.ndarray], np.ndarray]] = {
    "scalar": _builtin_scalar,
    "square_scale": _builtin_square_scale,
    "translate": _builtin_translate,
    "scale_last": _builtin_scale_last,
    "identity": _builtin_identity,
}


def _polynomial_evaluator(ambient: int, coeffs):
    """coeffs: one term list per output coordinate; a term has ``powers``
    (exponents of t, e_1, ..., e_m) and a scalar ``coef``."""
    table = []
    for coord_terms in coeffs:
        terms = []
        for term in coord_terms:
            powers = tuple(int(p) for p in term["powers"])
            if len(powers) != ambient + 1:
                raise ValueError(
                    f"term powers {powers} should list t and {ambient} coordinates")
            if any(p < 0 for p in powers):
                raise ValueError("negative exponents are not allowed")
            terms.append((powers, float(term["coef"])))
        table.append(terms)
    if len(table) != ambient:
        raise ValueError(
            f"expected coefficient lists for {ambient} output coordinates")

    def evaluate(t, e):
        out = np.zeros(ambient)
        for coord, terms in enumerate(table):
            acc = 0.0
            for powers, coef in terms:
                value = coef * t ** powers[0]
                for x, p in zip(e, powers[1:]):
                    if p:
                        value *= x ** p
                acc += value
            out[coord] = acc
        return out

    return evaluate


class MonoidActionSample:
    """A scaling-monoid action evaluated on samples x a time grid."""

    def __init__(self, ambient_dim: int, descriptor: dict,
                 sample_points, t_grid: Sequence[float]):
        self.ambient_dim = int(ambient_dim)
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        self.descriptor = dict(descriptor)
        kind = self.descriptor.get("kind")
        if kind == "builtin":
            name = self.descriptor.get("name")
            if name not in BUILTIN_ACTIONS:
                raise ValueError(f"unknown builtin action {name!r}")
            self._evaluator = BUILTIN_ACTIONS[name]
        elif kind == "polynomial":
            self._evaluator = _polynomial_evaluator(
                self.ambient_dim, self.descriptor["coeffs"])
        else:
            raise ValueError("action kind must be 'builtin' or 'polynomial'")
        pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise ValueError("sample points have the wrong ambient dimension")
        if pts.shape[0] == 0:
            raise ValueError("need at least one sample point")
        self.sample_points = pts
        grid = [float(t) for t in t_grid]
        if not any(t == 0.0 for t in grid) or not any(t == 1.0 for t in grid):
            raise ValueError("t_grid must contain both 0 and 1")
        self.t_grid = grid

    @classmethod
    def builtin(cls, name: str, ambient_dim: int, sample_points,
                t_grid=(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)) -> "MonoidActionSample":
        return cls(ambient_dim, {"kind": "builtin", "name": name},
                   sample_points, t_grid)

    @classmethod
    def polynomial(cls, coeffs, ambient_dim: int, sample_points,
                   t_grid=(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)) -> "MonoidActionSample":
        return cls(ambient_dim, {"kind": "polynomial", "coeffs": coeffs},
                   sample_points, t_grid)

    def evaluate(self, t: float, e) -> np.ndarray:
        value = np.asarray(
            self._evaluator(float(t), np.asarray(e, dtype=float)), dtype=float)
        if value.shape != (self.ambient_dim,):
            raise ValueError("evaluator returned a wrongly shaped vector")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"evaluator returned a non-finite value at t={t}")
        return value


@dataclass(frozen=True)
class MonoidAudit:
    passed: bool
    identity_violations: tuple[tuple[int, float], ...]
    composition_violations: tuple[tuple[float, float, int, float], ...]

    def __bool__(self):
        return self.passed


def audit_axioms(a: MonoidActionSample, tol: float = TOL_CHECK) -> MonoidAudit:
    """Check h_1 = id and h_t h_s = h_ts on the grid and samples."""
    identity_violations = []
    for i, e in enumerate(a.sample_points):
        residual = float(np.linalg.norm(a.evaluate(1.0, e) - e))
        if residual > tol:
            identity_violations.append((i, residual))
    composition_violations = []
    for t in a.t_grid:
        for s in a.t_grid:
            for i, e in enumerate(a.sample_points):
                lhs = a.evaluate(t, a.evaluate(s, e))
                rhs = a.evaluate(t * s, e)
                residual = float(np.linalg.norm(lhs - rhs))
                if residual > tol:
                    composition_violations.append((t, s, i, residual))
    return MonoidAudit(
        passed=not identity_violations and not composition_violations,
        identity_violations=tuple(identity_violations),
        composition_violations=tuple(composition_violations))


def vertical_derivative(a: MonoidActionSample, e, step: float = STEP
                        ) -> tuple[np.ndarray, float]:
    """Richardson-refined central difference of t -> h_t(e) at t = 0.

    Returns the refined derivative and an error estimate: the classical
    |D(h/2) - D(h)| / 3 bound on the leading truncation term plus the
    rounding it leaves out.  If each evaluation is off by at most delta,
    the refined quotient is off by at most 3 delta / h; delta is taken as
    2 eps times the largest sampled magnitude (at least two units in the
    last place), per component.  A component whose four samples are
    bitwise equal has an exact zero quotient and gets no rounding term,
    so actions that do not move e (the identity) keep a zero estimate.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    e = np.asarray(e, dtype=float)
    samples = np.array([a.evaluate(t, e) for t in
                        (step, -step, step / 2.0, -step / 2.0)])
    coarse = (samples[0] - samples[1]) / (2.0 * step)
    fine = (samples[2] - samples[3]) / step
    refined = (4.0 * fine - coarse) / 3.0
    truncation = float(np.linalg.norm(fine - coarse)) / 3.0
    moving = (samples != samples[0]).any(axis=0)
    largest = np.abs(samples).max(axis=0)[moving]
    rounding = 3.0 * 2.0 * _EPS * float(np.sqrt(largest @ largest)) / step
    return refined, truncation + rounding


@dataclass(frozen=True)
class PointClassification:
    index: int
    phi_norm: float
    fixed_distance: float
    consistent: bool


@dataclass(frozen=True)
class RegularityReport:
    overall: str
    points: tuple[PointClassification, ...] = field(repr=False)
    violating_indices: tuple[int, ...] = ()

    def __bool__(self):
        return self.overall == REGULAR


def regularity_check(a: MonoidActionSample, tol: float = TOL_CHECK,
                     step: float = STEP) -> RegularityReport:
    """Regularity surrogate on samples: the vertical derivative vanishes
    iff the point is fixed by h_0."""
    points = []
    violations = []
    for i, e in enumerate(a.sample_points):
        phi, _ = vertical_derivative(a, e, step)
        fixed_distance = float(np.linalg.norm(e - a.evaluate(0.0, e)))
        phi_zero = float(np.linalg.norm(phi)) <= tol
        fixed = fixed_distance <= tol
        consistent = phi_zero == fixed
        points.append(PointClassification(i, float(np.linalg.norm(phi)),
                                          fixed_distance, consistent))
        if not consistent:
            violations.append(i)
    overall = REGULAR if not violations else NOT_REGULAR
    return RegularityReport(overall=overall, points=tuple(points),
                            violating_indices=tuple(violations))


@dataclass(frozen=True)
class VerticalFragment:
    """Recovered fibers over a list of base points (one rank per point)."""

    base_points: np.ndarray
    fibers: tuple[Subspace, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        object.__setattr__(self, "base_points", pts)


def reconstruct_bundle(a: MonoidActionSample, base_samples,
                       tol: float = TOL_CHECK, step: float = STEP,
                       cluster_radius: float = CLUSTER_RADIUS
                       ) -> VerticalFragment:
    """Recover fibers of a regular action: over each base point, the span
    of the vertical derivatives of the samples its h_0-image clusters to."""
    report = regularity_check(a, tol=tol, step=step)
    if not report:
        raise ValueError(
            "action is not regular; offending sample indices: "
            f"{report.violating_indices}")
    base = np.atleast_2d(np.asarray(base_samples, dtype=float))
    if base.shape[1] != a.ambient_dim:
        raise ValueError("base samples have the wrong ambient dimension")
    images = np.array([a.evaluate(0.0, e) for e in a.sample_points])
    phis = [vertical_derivative(a, e, step)[0] for e in a.sample_points]
    fibers = []
    for b in base:
        dists = np.linalg.norm(images - b, axis=1)
        members = [phis[i] for i in np.nonzero(dists <= cluster_radius)[0]]
        fibers.append(span(members, a.ambient_dim) if members
                      else Subspace.zero(a.ambient_dim))
    return VerticalFragment(base_points=base, fibers=tuple(fibers),
                            ranks=tuple(f.dim for f in fibers))
