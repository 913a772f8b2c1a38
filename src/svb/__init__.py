"""Numerical kernel for sampled stratified vector bundles.

Subspaces of R^n are represented by orthonormal bases and the derived
orthogonal-projection matrices; stratifications are finite families of
point clouds with a declared closure order.  On top of those two
representations the package verifies frontier conditions and the
Whitney A condition for bundles, applies orthogonalizable linear
functors fibrewise, classifies scaling-monoid actions, builds invariant
subbundles and quotients for finite orthogonal group actions, and
derives bundles from singular foliations given by polynomial vector
fields.
"""

__version__ = "0.1.0"

from .grassmann import (
    Subspace,
    apply_linear_map,
    gap_distance,
    intersection,
    sequence_limit,
    span,
)

__all__ = [
    "Subspace",
    "span",
    "gap_distance",
    "sequence_limit",
    "apply_linear_map",
    "intersection",
    "__version__",
]
