"""Analysis of smooth actions of the multiplicative reals on R^m.

An action sample is an evaluator h(t, e) restricted to a finite grid of
times and a finite set of points.  The audits check the monoid axioms
(h_1 = id, h_t h_s = h_ts), estimate the vertical derivative
phi(e) = d/dt h_t(e) at t = 0 by Richardson-refined central differences,
and classify regularity: phi vanishes exactly on the fixed set of h_0.
For regular actions the fibers of the encoded vector bundle are
recovered as spans of phi over h_0-clusters, all found by one
``near_pairs`` radius query and spanned by one SVD stack per size.

Evaluators are restricted to named built-ins and polynomial coefficient
tables so that action files are reproducible across implementations.
Both map an array of points row by row, with one time per row, a table
as the term table of a vector field over the variables (t, e).  So an
audit stacks the (time, point) rows of many maps into one call, bit for
bit as one call per time and point would give.  The samples are checked
first, by the sample-set rule of vector-field sets (``strata._samples``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import CLUSTER_RADIUS, STEP, TOL_CHECK, TOL_RANK
from .foliation import evaluate_terms, parse_terms
from .grassmann import Subspace, _distinct, _float_rows, _runs, _span_rank
from .strata import _first_far, _samples, near_pairs

_EPS = float(np.finfo(float).eps)
# Evaluations and residuals may overflow; the non-finite checks below
# report that as an error, so numpy is kept from warning about it too.
_QUIET = np.errstate(over="ignore", invalid="ignore")

__all__ = [
    "MonoidActionSample",
    "MonoidAudit",
    "RegularityReport",
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
    out[..., -1] = t[..., 0] * out[..., -1]
    return out


def _builtin_identity(t, e):
    return e.copy()


# Each maps an array of times t, shape (..., 1), and points e, shape
# (..., m), to the images of e: one time per row, and t broadcasts
# against the leading axes of e, so a block of rows may share a time.
BUILTIN_ACTIONS: dict[str, Callable[[np.ndarray, np.ndarray],
                                    np.ndarray]] = {
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
        self.sample_points = _samples(sample_points, m)
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

            def evaluator(t, e):
                rows = np.concatenate(
                    [np.broadcast_to(t, (*e.shape[:-1], 1)), e], axis=-1)
                return evaluate_terms(terms, rows.reshape(-1, m + 1),
                                      m).reshape(e.shape)

            self._evaluator = evaluator
        else:
            raise ValueError("action kind must be 'builtin' or 'polynomial'")
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
        values = self._blocks([float(t)], self._stack(e)[None])
        if not np.isfinite(values).all():
            raise _non_finite(t)
        return values[0] if e.ndim == 2 else values[0, 0]

    def _stack(self, e: np.ndarray) -> np.ndarray:
        """A point or an (n, m) stack of points, as a stack."""
        if e.ndim not in (1, 2) or e.shape[-1] != self.ambient_dim:
            raise ValueError("expected a point or an (n, m) stack of points")
        return np.atleast_2d(e)

    @_QUIET
    def _blocks(self, times, rows: np.ndarray) -> np.ndarray:
        """h_{times[j]} of block j of the (b, n, m) array ``rows``, for
        every j in one evaluator call."""
        return self._evaluator(np.asarray(times, dtype=float)[:, None, None],
                               rows)


def _first_non_finite(blocks: np.ndarray) -> int:
    """The index of the first block holding a non-finite value, or the
    number of blocks."""
    finite = np.isfinite(blocks)
    if finite.all():
        return len(blocks)
    return int(np.argmin(finite.reshape(len(blocks), -1).all(axis=1)))


def _non_finite(t) -> ValueError:
    return ValueError(f"evaluator returned a non-finite value at t={t}")


def _check_positive(name: str, value) -> None:
    """A tolerance or step must be a positive finite number; a NaN would
    pass every threshold and an infinite step would read zeros."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, "
                         f"got {value!r}")


def _row_norms(rows) -> np.ndarray:
    """Row norms, each rounded as ``np.linalg.norm(row)`` rounds it: one
    BLAS dot per row (``norm(rows, axis=1)`` differs in the last bit on
    some rows)."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _finite(norms: np.ndarray) -> np.ndarray:
    """Reports hold no infinity, so an overflowing norm is an error,
    naming the first sample (the last axis of ``norms``) it holds."""
    overflows = ~np.isfinite(norms)
    if overflows.any():
        i = np.nonzero(overflows)[-1].min()
        raise ValueError(f"non-finite residual at sample {i}: a norm "
                         "overflows")
    return norms


def _norms(rows) -> np.ndarray:
    return _finite(_row_norms(rows))


@dataclass(frozen=True)
class MonoidAudit:
    passed: bool
    identity_violations: tuple[tuple[int, float], ...]
    composition_violations: tuple[tuple[float, float, int, float], ...]

    def __bool__(self):
        return self.passed


@_QUIET
def audit_axioms(a: MonoidActionSample, tol: float = TOL_CHECK) -> MonoidAudit:
    """Check h_1 = id and h_t h_s = h_ts on the grid and samples.

    For a grid of g times this makes 2 + 2g evaluator calls: h_1, then
    h_s for every s over the stacked (s, point) rows, then per outer
    time t the maps h_t of those rows and h_ts.  Residuals are bit for
    bit those of one call per time and point.  A non-finite value
    raises, naming the first map that a loop over the identity and then
    the pairs (t, s), each as h_s, h_t h_s and h_ts, would reach."""
    _check_positive("tol", tol)
    pts = a.sample_points
    grid = a.t_grid
    g, (n, m) = len(grid), pts.shape
    stack = np.broadcast_to(pts, (g, n, m))
    norms = [_row_norms(a.evaluate(1.0, pts) - pts)]
    inner = a._blocks(grid, stack)
    # Only the blocks before the first non-finite h_s are composed.
    kept = _first_non_finite(inner)
    for t in grid:
        outer = a._blocks([t] * kept, inner[:kept])
        direct = a._blocks([t * s for s in grid[:kept]], stack[:kept])
        j_outer, j_direct = _first_non_finite(outer), _first_non_finite(direct)
        if (j := min(j_outer, j_direct)) < g:
            raise _non_finite(grid[j] if j == kept else
                              t if j == j_outer else t * grid[j])
        norms.append(_row_norms((outer - direct).reshape(-1, m)))
    pairs = [(t, s) for t in grid for s in grid]
    residuals = _finite(np.concatenate(norms).reshape(1 + len(pairs), n))
    # Row-major order: the identity first, then (t, s, i) in grid order.
    rows, cols = np.nonzero(residuals > tol)
    found = list(zip(rows.tolist(), cols.tolist(),
                     residuals[rows, cols].tolist()))
    return MonoidAudit(
        passed=not found,
        identity_violations=tuple((i, r) for k, i, r in found if k == 0),
        composition_violations=tuple((*pairs[k - 1], i, r)
                                     for k, i, r in found if k))


@_QUIET
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
    _check_positive("step", step)
    pts = a._stack(np.asarray(e, dtype=float))
    offsets = (step, -step, step / 2.0, -step / 2.0)
    samples = a._blocks(offsets, np.broadcast_to(pts, (4, *pts.shape)))
    if (j := _first_non_finite(samples)) < len(offsets):
        raise _non_finite(offsets[j])
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


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """The verdict, |phi| and the distance to the h_0-image per sample as
    arrays, and the samples where only one of the two is within tol."""

    overall: str
    phi_norms: np.ndarray = field(repr=False)
    fixed_distances: np.ndarray = field(repr=False)
    violating_indices: tuple[int, ...] = ()

    def __bool__(self):
        return self.overall == REGULAR


@_QUIET
def _classify(a: MonoidActionSample, tol: float, step: float):
    """The regularity report, and the derivatives and h_0-images it read."""
    _check_positive("tol", tol)
    pts = a.sample_points
    phis, _ = vertical_derivative(a, pts, step)
    images = a.evaluate(0.0, pts)
    phi_norms = _norms(phis)
    fixed_distances = _norms(pts - images)
    consistent = (phi_norms <= tol) == (fixed_distances <= tol)
    violations = tuple(np.flatnonzero(~consistent).tolist())
    return RegularityReport(NOT_REGULAR if violations else REGULAR, phi_norms,
                            fixed_distances, violations), phis, images


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


def reconstruct_bundle(a: MonoidActionSample, base_samples,
                       tol: float = TOL_CHECK, step: float = STEP,
                       cluster_radius: float = CLUSTER_RADIUS
                       ) -> VerticalFragment:
    """Recover fibers of a regular action: over each base point, the span
    of the vertical derivatives of the samples its h_0-image clusters to,
    by one ``near_pairs`` pass and one SVD stack per cluster size."""
    _check_positive("cluster_radius", cluster_radius)
    report, phis, images = _classify(a, tol, step)
    if not report:
        raise ValueError(
            "action is not regular; offending sample indices: "
            f"{report.violating_indices}")
    base = _float_rows(base_samples)
    if base.shape[1] != a.ambient_dim:
        raise ValueError("base samples have the wrong ambient dimension")
    if (far := _first_far(base)) >= 0:
        raise ValueError(f"base sample {far} has a coordinate that is not "
                         "finite or beyond ±2^500")
    m, n = a.ambient_dim, len(images)
    at, member = np.divmod(np.sort(np.concatenate([np.empty(0, np.intp)] + [
        i * n + j for i, j, _ in near_pairs(base, images, cluster_radius)])), n)
    starts = _runs(at)
    size = np.diff(starts, append=len(at))
    fibers = [Subspace.zero(m)] * len(base)
    for count in _distinct(size).tolist():
        first = starts[size == count]
        vh, rank = _span_rank(phis[member[first[:, None] + np.arange(count)]],
                              TOL_RANK, 0.0)
        for p, v, r in zip(at[first].tolist(), vh, rank.tolist()):
            fibers[p] = Subspace(m, v[:r])
    return VerticalFragment(base_points=base, fibers=tuple(fibers),
                            ranks=tuple(f.dim for f in fibers))
