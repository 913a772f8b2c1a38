"""Analysis of smooth actions of the multiplicative reals on R^m.

An action sample is a polynomial map h(t, e), held as a term table over
the variables (t, e), restricted to a finite grid of times and a finite
set of points.  Actions are read from coefficient tables, by the rule of
``terms`` and held as read, or from named built-ins, translated into
such a table at construction, so that action files are reproducible
across implementations.  The audits check the monoid axioms (h_1 = id,
h_t h_s = h_ts), read the vertical derivative phi(e) = d/dt h_t(e) at
t = 0 off the table exactly (its terms linear in t, with t dropped),
and classify regularity: phi vanishes exactly on the fixed set of h_0.
A regular action gives back the vector bundle it encodes, over a
declared base stratification: each sample goes to the base point
nearest its h_0-image, and the fiber over a base point is the span of
phi over its samples, spanned by one SVD stack per cluster size.

A table maps an array of points row by row, with one time per row.  So
an audit stacks the (time, point) rows of many maps into one call, bit
for bit as one call per time and point would give.  Samples, and the
points handed to ``evaluate`` and ``vertical_derivative``, go through
the sample-set rule ``strata._samples`` first: at least one sample of
the declared width, every coordinate finite and within ±2^500; each
time, of the grid or handed to ``evaluate``, is a finite number, by
``grassmann._real``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bundle import SampledStratifiedBundle, _gather_stacks
from .config import CLUSTER_RADIUS, TOL_CHECK, TOL_RANK
from .grassmann import (_check_positive, _distinct, _integer, _real, _runs,
                        _span_rank)
from .strata import Stratification, _nearest_within, _samples
from .terms import evaluate_terms, read_terms

# Evaluations and residuals may overflow; the non-finite checks below
# report that as an error, so numpy is kept from warning about it too.
_QUIET = np.errstate(over="ignore", invalid="ignore")

__all__ = [
    "MonoidActionSample",
    "MonoidAudit",
    "RegularityReport",
    "REGULAR",
    "NOT_REGULAR",
    "audit_axioms",
    "vertical_derivative",
    "regularity_check",
    "reconstruct_bundle",
]

REGULAR = "REGULAR"
NOT_REGULAR = "NOT_REGULAR"

# Coordinate j of each built-in action on R^m, as terms (power of t,
# index of the factor e_i or None), each with coefficient 1: t e,
# t^2 e, e + t, (e_1, ..., e_{m-1}, t e_m) and e.
_BUILTINS = {
    "scalar": lambda j, m: [(1, j)],
    "square_scale": lambda j, m: [(2, j)],
    "translate": lambda j, m: [(0, j), (1, None)],
    "scale_last": lambda j, m: [(int(j == m - 1), j)],
    "identity": lambda j, m: [(0, j)],
}


class MonoidActionSample:
    """A scaling-monoid action evaluated on samples x a time grid."""

    def __init__(self, ambient_dim: int, descriptor: dict,
                 sample_points, t_grid: Sequence[float]):
        self.ambient_dim = m = _integer("ambient_dim", ambient_dim, 1)
        self.sample_points = _samples(sample_points, m)
        self.descriptor = dict(descriptor)
        kind = self.descriptor.get("kind")
        coeffs = self.descriptor.get("coeffs")
        if kind == "builtin":
            name = self.descriptor.get("name")
            if name not in _BUILTINS:
                raise ValueError(f"unknown builtin action {name!r}")
            coeffs = [[{"powers": [p] + [int(c == i) for c in range(m)],
                        "coef": 1.0} for p, i in _BUILTINS[name](j, m)]
                      for j in range(m)]
        elif kind != "polynomial":
            raise ValueError("action kind must be 'builtin' or 'polynomial'")
        rows = read_terms(coeffs, m + 1, m, by_coordinate=True)
        if kind == "polynomial":  # held as read: ints and floats
            self.descriptor["coeffs"] = [
                [{"powers": list(powers), "coef": float(vector[j])}
                 for powers, vector in row] for j, row in enumerate(rows)]
        self._terms = [term for row in rows for term in row]
        self._linear = [(powers[1:], vector)
                        for powers, vector in self._terms if powers[0] == 1]
        grid = [_real("t_grid", t) for t in t_grid]
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
        """h_t(e) at one point e or each row of an (n, m) stack e.  The
        time ``t`` is read by ``grassmann._real``, as each time of
        ``t_grid`` is: a finite int or float, never a bool or str."""
        t = _real("t", t)
        values = self._blocks([t], _samples(e, self.ambient_dim)[None])
        if not np.isfinite(values).all():
            raise _non_finite(t)
        return values[0] if np.ndim(e) == 2 else values[0, 0]

    def _blocks(self, times, rows: np.ndarray) -> np.ndarray:
        """h_{times[j]} of block j of the (b, n, m) array ``rows``, for
        every j in one call of the term table: each row is read with its
        block's time as the variable t."""
        m = self.ambient_dim
        t = np.asarray(times, dtype=float)[:, None, None]
        stacked = np.concatenate(
            [np.broadcast_to(t, (*rows.shape[:-1], 1)), rows], axis=-1)
        return evaluate_terms(self._terms, stacked.reshape(-1, m + 1),
                              m).reshape(rows.shape)


def _non_finite(t) -> ValueError:
    return ValueError(f"evaluator returned a non-finite value at t={t}")


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
    for t in grid:
        outer = a._blocks([t] * g, inner)
        direct = a._blocks([t * s for s in grid], stack)
        # [s, k]: whether h_s, h_t h_s (k = 1) or h_ts (k = 2) is not finite.
        faults = ~np.isfinite([inner, outer, direct]).all(axis=(2, 3)).T
        if faults.any():
            s, k = divmod(int(faults.argmax()), 3)
            raise _non_finite((grid[s], t, t * grid[s])[k])
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


def vertical_derivative(a: MonoidActionSample, e) -> np.ndarray:
    """phi(e) = d/dt h_t(e) at t = 0, at one point e or at each row of an
    (n, m) stack e, read by ``_samples``: exactly the terms of the
    action's table linear in t, with t dropped.  A non-finite phi raises,
    naming its first sample."""
    phis = evaluate_terms(a._linear, _samples(e, a.ambient_dim),
                          a.ambient_dim)
    faults = ~np.isfinite(phis).all(axis=1)
    if faults.any():
        raise ValueError("non-finite vertical derivative at sample "
                         f"{int(faults.argmax())}")
    return phis if np.ndim(e) == 2 else phis[0]


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
def _classify(a: MonoidActionSample, tol: float):
    """The regularity report, and the derivatives and h_0-images it read."""
    _check_positive("tol", tol)
    pts = a.sample_points
    phis = vertical_derivative(a, pts)
    images = a.evaluate(0.0, pts)
    phi_norms = _norms(phis)
    fixed_distances = _norms(pts - images)
    consistent = (phi_norms <= tol) == (fixed_distances <= tol)
    violations = tuple(np.flatnonzero(~consistent).tolist())
    return RegularityReport(NOT_REGULAR if violations else REGULAR, phi_norms,
                            fixed_distances, violations), phis, images


def regularity_check(a: MonoidActionSample,
                     tol: float = TOL_CHECK) -> RegularityReport:
    """Regularity surrogate on samples: the vertical derivative vanishes
    iff the point is fixed by h_0."""
    return _classify(a, tol)[0]


def reconstruct_bundle(a: MonoidActionSample, base: Stratification,
                       tol: float = TOL_CHECK,
                       cluster_radius: float = CLUSTER_RADIUS
                       ) -> SampledStratifiedBundle:
    """The bundle over ``base`` that a regular action encodes: over each
    base point, the span of the vertical derivatives of the samples whose
    h_0-image is nearest to it within ``cluster_radius`` (none: the zero
    fiber), by ``_nearest_within`` and one SVD stack per cluster size.  A
    stratum whose points recover two ranks raises in ``_gather_stacks``."""
    _check_positive("cluster_radius", cluster_radius)
    report, phis, images = _classify(a, tol)
    if not report:
        raise ValueError(
            "action is not regular; offending sample indices: "
            f"{report.violating_indices}")
    m = a.ambient_dim
    if base.ambient_dim != m:
        raise ValueError("base samples have the wrong ambient dimension")
    nearest = _nearest_within(images, base._cloud, cluster_radius)
    member = np.argsort(nearest, kind="stable")[(nearest < 0).sum():]
    at = nearest[member]
    starts = _runs(at)
    size = np.diff(starts, append=len(at))
    bases = [np.zeros((0, m))] * len(base._cloud)
    for count in _distinct(size).tolist():
        first = starts[size == count]
        vh, rank = _span_rank(phis[member[first[:, None] + np.arange(count)]],
                              TOL_RANK, 0.0)
        for p, v, r in zip(at[first].tolist(), vh, rank.tolist()):
            bases[p] = v[:r]
    return SampledStratifiedBundle.from_stacks(base, m, _gather_stacks(
        base, map(range, base._bounds, base._bounds[1:]), bases))
