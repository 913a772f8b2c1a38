"""Tangent distributions of polynomial vector fields and the bundles
they induce.

The distribution at a point is the span of the generating fields there;
the base is stratified by distribution rank (split into connected
components), and the resulting bundle uses the generating fields as
global sections, which is what makes its Whitney A checks succeed.
Leaves are never integrated; only the tangent data is built.  A
polynomial map is a term table, read by ``parse_terms`` and evaluated
over a stack of points by ``evaluate_terms``; polynomial monoid actions
use the same two, and the sample-set rule ``strata._samples`` (a positive
ambient dimension, and at least one sample of that width), checked first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bundle import SampledStratifiedBundle
from .config import R_CC, TOL_RANK
from .grassmann import Subspace, _float_rows, _span_rank
from .strata import (Stratification, _bounded_samples, estimate_cloud_dim,
                     partition_by_label)

__all__ = [
    "parse_powers",
    "parse_terms",
    "evaluate_terms",
    "PolynomialVectorField",
    "VectorFieldSet",
    "distribution_at",
    "stratify_by_rank",
    "foliation_bundle",
    "fields_as_sections",
]


def parse_powers(powers, n_vars: int) -> tuple[int, ...]:
    """``n_vars`` nonnegative integer exponents as a tuple; bool, float
    and str are not integers.  A ValueError names the entry at fault,
    ``powers`` or ``powers[b]``, first."""
    if len(powers) != n_vars:
        raise ValueError(f"powers: expected {n_vars} exponents, "
                         f"got {len(powers)}")
    for b, p in enumerate(powers):
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise ValueError(f"powers[{b}]: expected int, "
                             f"got {type(p).__name__}")
        if p < 0:
            raise ValueError(f"powers[{b}]: negative exponent {p}")
    return tuple(int(p) for p in powers)


def parse_terms(terms, n_vars: int, out_dim: int):
    """Validated ``(powers, vector)`` pairs: exponents by
    ``parse_powers`` and a vector of length ``out_dim`` per term.  A
    ValueError names the term by its position t, ``term t ...``."""
    parsed = []
    for t, (powers, vector) in enumerate(terms):
        try:
            powers = parse_powers(powers, n_vars)
        except ValueError as exc:
            raise ValueError(f"term {t} {exc}") from None
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (out_dim,):
            raise ValueError(f"term {t} vector: expected {out_dim} entries, "
                             f"got shape {vector.shape}")
        parsed.append((powers, vector))
    return parsed


def evaluate_terms(terms, pts, out_dim: int) -> np.ndarray:
    """The map at each row of the ``(n, n_vars)`` array ``pts``: each
    monomial multiplies the variables in order, then its vector.  A value
    that overflows is left as inf or NaN, without a numpy warning: the
    callers check the values and name the first non-finite one."""
    out = np.zeros((len(pts), out_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for powers, vector in terms:
            monomial = np.ones(len(pts))
            for column, p in zip(pts.T, powers):
                if p == 1:
                    monomial *= column
                elif p:
                    # Rounded as the scalar power rounds; numpy's
                    # vectorised power may differ in the last bit.
                    monomial *= np.array([xi ** p for xi in column])
            out += monomial[:, None] * vector
    return out


class PolynomialVectorField:
    """A vector field with polynomial coefficients, stored as a list of
    terms: exponent multi-index over the coordinates plus a coefficient
    vector."""

    def __init__(self, ambient_dim: int, terms):
        self.ambient_dim = int(ambient_dim)
        self.terms = parse_terms(((t["powers"], t["vector"]) for t in terms),
                                 self.ambient_dim, self.ambient_dim)

    def evaluate(self, x) -> np.ndarray:
        """The field at x, or at each row of an (n, ambient) array."""
        x = np.asarray(x, dtype=float)
        out = evaluate_terms(self.terms, np.atleast_2d(x), self.ambient_dim)
        return out if x.ndim > 1 else out[0]


class VectorFieldSet:
    """Generating vector fields plus the sample points they are read at."""

    def __init__(self, ambient_dim: int,
                 fields: Sequence[PolynomialVectorField], sample_points):
        self.ambient_dim = int(ambient_dim)
        self.sample_points = _bounded_samples(sample_points, self.ambient_dim)
        self.fields = fields = list(fields)
        if not fields:
            raise ValueError("need at least one vector field")
        for f in fields:
            if f.ambient_dim != self.ambient_dim:
                raise ValueError("field ambient dimension mismatch")

    def evaluate(self, points) -> np.ndarray:
        """Every field at every row of ``points``: (n, fields, ambient)."""
        return np.stack([f.evaluate(np.atleast_2d(points))
                         for f in self.fields], axis=1)


def _distribution_rows(vfs: VectorFieldSet, points, tol_rank: float):
    """``vh, ranks``: ``vh[i, :ranks[i]]`` spans the fields at
    ``points[i]``, from one SVD stack of the field values under the rank
    rule of ``span``.  ValueError at the first point, then field, whose
    value is not finite."""
    points = _float_rows(points)
    values = vfs.evaluate(points)
    bad = np.argwhere(~np.isfinite(values).all(axis=2))
    if bad.size:
        p, f = bad[0]
        raise ValueError(f"field {f} takes a non-finite value at sample "
                         f"{p}, {points[p].tolist()}")
    vh, ranks = _span_rank(values, tol_rank, 0.0)
    return vh, ranks.tolist()


def distribution_at(vfs: VectorFieldSet, x,
                    tol_rank: float = TOL_RANK) -> Subspace:
    """Span of the generating fields at x."""
    vh, (rank,) = _distribution_rows(vfs, [x], tol_rank)
    return Subspace(vfs.ambient_dim, vh[0, :rank])


def stratify_by_rank(vfs: VectorFieldSet, r_cc: float = R_CC,
                     tol_rank: float = TOL_RANK) -> Stratification:
    """Group the samples by distribution rank and split each rank class
    into single-linkage components: the base of ``foliation_bundle``.

    Closure pairs are declared from the rank ordering of clouds within
    the clustering radius ``r_cc`` of each other; audit with
    ``check_frontier``.
    """
    return foliation_bundle(vfs, r_cc, tol_rank).base


def foliation_bundle(vfs: VectorFieldSet, r_cc: float = R_CC,
                     tol_rank: float = TOL_RANK) -> SampledStratifiedBundle:
    """Bundle over the rank stratification whose fiber at x is the
    distribution there.  Strata are cut by that very rank, so each
    stratum's rank is constant by construction."""
    pts = vfs.sample_points
    vh, ranks = _distribution_rows(vfs, pts, tol_rank)
    part = partition_by_label(
        pts, ranks, [(f"rank{r}", r) for r in sorted(set(ranks))],
        dim=lambda rank, cloud: estimate_cloud_dim(cloud, tol_rank),
        below=lambda low, high: low < high, r_cc=r_cc)
    return SampledStratifiedBundle.from_stacks(
        part.stratification, vfs.ambient_dim,
        {s.name: vh[local, :ranks[local[0]]]
         for s, local in zip(part.stratification.strata, part.members)})


def fields_as_sections(vfs: VectorFieldSet,
                       bundle: SampledStratifiedBundle):
    """The generating fields read off at the bundle's base points, as
    sections for the section-based Whitney A oracle: per field, one
    ``(n_i, k)`` value array per stratum, aligned with ``bundle.stacks``."""
    values = {s.name: vfs.evaluate(s.points) for s in bundle.base.strata}
    return [{name: v[:, j] for name, v in values.items()}
            for j in range(len(vfs.fields))]
