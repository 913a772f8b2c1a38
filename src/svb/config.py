"""Tolerance defaults shared by all checks.

Every numerical verdict in this package is relative to an explicit
tolerance.  Library functions take plain keyword arguments with the
defaults below, and the CLI flags of each verb default to the same
constants.  The vertical derivatives of monoid actions need no default:
they are read off the actions' polynomial tables exactly.
"""

# Orthonormality audit of every Subspace basis (entrywise Gram defect).
TOL_ORTHO = 1e-10
# Singular values sigma count toward the rank iff sigma > TOL_RANK * sigma_max.
TOL_RANK = 1e-8
# Generic verdict tolerance: containment residuals, axiom audits, gaps.
TOL_CHECK = 1e-8
# Single-linkage radius for splitting rank/orbit-type classes into components.
R_CC = 0.05
# Clustering radius for matching points of the fixed-image of an action.
CLUSTER_RADIUS = 1e-6
# Number of trailing sequence entries examined by Cauchy-tail limit tests.
TAIL_LEN = 5
# local_finiteness_report flags a sample once more strata than this meet
# the radius ball around it.
MAX_LOCAL_STRATA = 3
