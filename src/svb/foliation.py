"""Tangent distributions of polynomial vector fields and the bundles
they induce.

The distribution at a point is the span of the generating fields there;
the base is stratified by distribution rank (split into connected
components), and the resulting bundle uses the generating fields as
global sections, which is what makes its Whitney A checks succeed.
Leaves are never integrated; only the tangent data is built.  A field
is a term table, read and evaluated by the ``terms`` module, as a
polynomial monoid action is.  Sample points, of a field set, the point
of ``distribution_at`` and the points handed to either ``evaluate``
alike, go through the sample-set rule ``strata._samples`` first: a positive
ambient dimension, at least one sample of that width, and every
coordinate finite and within ±2^500.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bundle import SampledStratifiedBundle
from .config import R_CC, TOL_RANK
from .grassmann import Subspace, _integer, _span_rank
from .strata import (Stratification, _samples, estimate_cloud_dim,
                     partition_by_label)
from .terms import evaluate_terms, read_terms

__all__ = [
    "PolynomialVectorField",
    "VectorFieldSet",
    "distribution_at",
    "stratify_by_rank",
    "foliation_bundle",
    "fields_as_sections",
]


class PolynomialVectorField:
    """A vector field with polynomial coefficients: ``terms`` is a
    field's term table, the list of ``{"powers", "vector"}`` objects,
    held as the ``(powers, vector)`` pairs of ``terms.read_terms``."""

    def __init__(self, ambient_dim: int, terms):
        self.ambient_dim = _integer("ambient_dim", ambient_dim, 1)
        self.terms = read_terms(terms, self.ambient_dim, self.ambient_dim)

    def evaluate(self, x) -> np.ndarray:
        """The field at x, or at each row of an (n, ambient) array."""
        out = evaluate_terms(self.terms, _samples(x, self.ambient_dim),
                             self.ambient_dim)
        return out if np.ndim(x) == 2 else out[0]


class VectorFieldSet:
    """Generating vector fields plus the sample points they are read at."""

    def __init__(self, ambient_dim: int,
                 fields: Sequence[PolynomialVectorField], sample_points):
        self.ambient_dim = _integer("ambient_dim", ambient_dim, 1)
        self.sample_points = _samples(sample_points, self.ambient_dim)
        self.fields = fields = list(fields)
        if not fields:
            raise ValueError("need at least one vector field")
        for f in fields:
            if f.ambient_dim != self.ambient_dim:
                raise ValueError("field ambient dimension mismatch")

    def evaluate(self, points) -> np.ndarray:
        """Every field at every row of ``points``, read once by
        ``_samples``: (n, fields, ambient)."""
        pts = _samples(points, self.ambient_dim)
        return np.stack([evaluate_terms(f.terms, pts, self.ambient_dim)
                         for f in self.fields], axis=1)


def _distribution_rows(vfs: VectorFieldSet, points, tol_rank: float):
    """``vh, ranks``: ``vh[i, :ranks[i]]`` spans the fields at row i of
    ``points``, read once, by ``vfs.evaluate``, from one SVD stack of the
    field values under the rank rule of ``span``.  ValueError at the
    first point, then field, whose value is not finite."""
    values = vfs.evaluate(points)
    bad = np.argwhere(~np.isfinite(values).all(axis=2))
    if bad.size:
        p, f = bad[0]
        raise ValueError(f"field {f} takes a non-finite value at sample "
                         f"{p}, {np.asarray(points, float)[p].tolist()}")
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
    ``(n_i, k)`` value array per stratum, aligned with ``bundle.stacks``:
    one evaluation of the whole base, cut at the strata."""
    base = bundle.base
    cut = np.split(vfs.evaluate(base._cloud), base._bounds[1:-1].tolist())
    return [{s.name: v[:, j] for s, v in zip(base.strata, cut)}
            for j in range(len(vfs.fields))]
