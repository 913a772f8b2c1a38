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
Both are evaluated on whole (n, m) stacks of points, a table as the
term table of a vector field over the variables (t, e).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import CLUSTER_RADIUS, STEP, TOL_CHECK
from .foliation import evaluate_terms, parse_terms
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
    out[:, -1] = t * out[:, -1]
    return out


def _builtin_identity(t, e):
    return e.copy()


# Each maps a time and an (n, m) stack of points to the (n, m) images.
BUILTIN_ACTIONS: dict[str, Callable[[float, np.ndarray], np.ndarray]] = {
    "scalar": _builtin_scalar,
    "square_scale": _builtin_square_scale,
    "translate": _builtin_translate,
    "scale_last": _builtin_scale_last,
    "identity": _builtin_identity,
}


class MonoidActionSample:
    """A scaling-monoid action evaluated on samples x a time grid."""

    def __init__(self, ambient_dim: int, descriptor: dict,
                 sample_points, t_grid: Sequence[float]):
        self.ambient_dim = m = int(ambient_dim)
        if m < 1:
            raise ValueError("ambient_dim must be positive")
        self.descriptor = dict(descriptor)
        kind = self.descriptor.get("kind")
        if kind == "builtin":
            name = self.descriptor.get("name")
            if name not in BUILTIN_ACTIONS:
                raise ValueError(f"unknown builtin action {name!r}")
            self._evaluator = BUILTIN_ACTIONS[name]
        elif kind == "polynomial":
            # Coordinate j's term (powers, c) is the term (powers, c e_j).
            coeffs = self.descriptor["coeffs"]
            if len(coeffs) != m:
                raise ValueError(
                    f"expected coefficient lists for {m} output coordinates")
            terms = parse_terms(
                ((term["powers"], float(term["coef"]) * np.eye(m)[j])
                 for j, coord_terms in enumerate(coeffs)
                 for term in coord_terms), m + 1, m)
            self._evaluator = lambda t, e: evaluate_terms(
                terms, np.column_stack([np.full(len(e), t), e]), m)
        else:
            raise ValueError("action kind must be 'builtin' or 'polynomial'")
        pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
        if pts.shape[1] != m:
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
        """h_t(e) for one point e, or for each row of an (n, m) stack."""
        e = np.asarray(e, dtype=float)
        if e.ndim not in (1, 2) or e.shape[-1] != self.ambient_dim:
            raise ValueError("expected a point or an (n, m) stack of points")
        value = self._evaluator(float(t), np.atleast_2d(e))
        if not np.isfinite(value).all():
            raise ValueError(f"evaluator returned a non-finite value at t={t}")
        return value if e.ndim == 2 else value[0]


def _norms(rows) -> np.ndarray:
    """Row norms, each rounded as ``np.linalg.norm(row)`` rounds it: one
    BLAS dot per row (``norm(rows, axis=1)`` differs in the last bit on
    some rows).  Reports hold no infinity, so an overflow is an error."""
    rows = np.ascontiguousarray(rows)
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if not np.isfinite(norms).all():
        raise ValueError("non-finite residual: a norm overflows")
    return norms


@dataclass(frozen=True)
class MonoidAudit:
    passed: bool
    identity_violations: tuple[tuple[int, float], ...]
    composition_violations: tuple[tuple[float, float, int, float], ...]

    def __bool__(self):
        return self.passed


def audit_axioms(a: MonoidActionSample, tol: float = TOL_CHECK) -> MonoidAudit:
    """Check h_1 = id and h_t h_s = h_ts on the grid and samples, one
    evaluation of the whole sample stack per map."""
    pts = a.sample_points
    pairs = [(t, s) for t in a.t_grid for s in a.t_grid]
    residuals = _norms(np.concatenate([a.evaluate(1.0, pts) - pts] + [
        a.evaluate(t, a.evaluate(s, pts)) - a.evaluate(t * s, pts)
        for t, s in pairs])).reshape(1 + len(pairs), len(pts))
    # Row-major order: the identity first, then (t, s, i) in grid order.
    found = [(k, int(i), float(residuals[k, i]))
             for k, i in zip(*np.nonzero(residuals > tol))]
    return MonoidAudit(
        passed=not found,
        identity_violations=tuple((i, r) for k, i, r in found if k == 0),
        composition_violations=tuple((*pairs[k - 1], i, r)
                                     for k, i, r in found if k))


def vertical_derivative(a: MonoidActionSample, e, step: float = STEP):
    """Richardson-refined central difference of t -> h_t(e) at t = 0,
    at one point e or at each row of an (n, m) stack e.

    Returns the refined derivative and an error estimate (per row): the
    classical |D(h/2) - D(h)| / 3 bound on the leading truncation term
    plus the rounding it leaves out.  If each evaluation is off by at
    most delta, the refined quotient is off by at most 3 delta / h;
    delta is taken as 2 eps times the largest sampled magnitude (at
    least two units in the last place), per component.  A component
    whose four samples are bitwise equal has an exact zero quotient and
    gets no rounding term, so actions that do not move e (the identity)
    keep a zero estimate.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    pts = np.atleast_2d(np.asarray(e, dtype=float))
    samples = np.array([a.evaluate(t, pts) for t in
                        (step, -step, step / 2.0, -step / 2.0)])
    coarse = (samples[0] - samples[1]) / (2.0 * step)
    fine = (samples[2] - samples[3]) / step
    refined = (4.0 * fine - coarse) / 3.0
    truncation = _norms(fine - coarse) / 3.0
    moving = (samples != samples[0]).any(axis=0)
    largest = np.where(moving, np.abs(samples).max(axis=0), 0.0)
    rounding = 3.0 * 2.0 * _EPS * _norms(largest) / step
    error = truncation + rounding
    return (refined, error) if np.ndim(e) == 2 else \
        (refined[0], float(error[0]))


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


def _classify(a: MonoidActionSample, tol: float, step: float):
    """The regularity report, and the derivatives and h_0-images it read."""
    pts = a.sample_points
    phis, _ = vertical_derivative(a, pts, step)
    images = a.evaluate(0.0, pts)
    phi_norms = _norms(phis)
    fixed_distances = _norms(pts - images)
    consistent = (phi_norms <= tol) == (fixed_distances <= tol)
    points = tuple(PointClassification(i, float(p), float(d), bool(c))
                   for i, (p, d, c) in enumerate(zip(
                       phi_norms, fixed_distances, consistent)))
    violations = tuple(np.flatnonzero(~consistent).tolist())
    report = RegularityReport(overall=NOT_REGULAR if violations else REGULAR,
                              points=points, violating_indices=violations)
    return report, phis, images


def regularity_check(a: MonoidActionSample, tol: float = TOL_CHECK,
                     step: float = STEP) -> RegularityReport:
    """Regularity surrogate on samples: the vertical derivative vanishes
    iff the point is fixed by h_0."""
    return _classify(a, tol, step)[0]


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
    report, phis, images = _classify(a, tol, step)
    if not report:
        raise ValueError(
            "action is not regular; offending sample indices: "
            f"{report.violating_indices}")
    base = np.atleast_2d(np.asarray(base_samples, dtype=float))
    if base.shape[1] != a.ambient_dim:
        raise ValueError("base samples have the wrong ambient dimension")
    fibers = []
    for b in base:
        dists = np.linalg.norm(images - b, axis=1)
        members = [phis[i] for i in np.nonzero(dists <= cluster_radius)[0]]
        fibers.append(span(members, a.ambient_dim) if members
                      else Subspace.zero(a.ambient_dim))
    return VerticalFragment(base_points=base, fibers=tuple(fibers),
                            ranks=tuple(f.dim for f in fibers))
