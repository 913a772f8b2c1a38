"""Tolerance and threshold knobs shared by all checks.

Every numerical verdict in this package is relative to an explicit
tolerance.  Library functions take plain keyword arguments with the
defaults below; :class:`Tolerances` exists to thread one coherent set of
overrides through the CLI (flags beat environment variables beat
defaults).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

# Orthonormality audit of every Subspace basis (entrywise Gram defect).
TOL_ORTHO = 1e-10
# Singular values sigma count toward the rank iff sigma > TOL_RANK * sigma_max.
TOL_RANK = 1e-8
# Generic verdict tolerance: containment residuals, axiom audits, gaps.
TOL_CHECK = 1e-8
# Finite-difference step for t-derivatives of monoid actions.
STEP = 1e-4
# Single-linkage radius for splitting rank/orbit-type classes into components.
R_CC = 0.05
# Clustering radius for matching points of the fixed-image of an action.
CLUSTER_RADIUS = 1e-6
# Number of trailing sequence entries examined by Cauchy-tail limit tests.
TAIL_LEN = 5
# local_finiteness_report flags a sample once more strata than this meet
# the radius ball around it.
MAX_LOCAL_STRATA = 3

_ENV_PREFIX = "SVB_"


@dataclass(frozen=True)
class Tolerances:
    """One bag of knobs for a CLI run.

    ``eps_touch`` and ``delta_cover`` default to ``None`` meaning
    scale-relative: 1e-2 times the cloud diameter of the stratification
    under audit.
    """

    tol_rank: float = TOL_RANK
    tol_check: float = TOL_CHECK
    step: float = STEP
    r_cc: float = R_CC
    eps_touch: float | None = None
    delta_cover: float | None = None
    tail_len: int = TAIL_LEN

    def __post_init__(self):
        for name in ("tol_rank", "tol_check", "step", "r_cc"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        for name in ("eps_touch", "delta_cover"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive when set")
        if self.tail_len < 1:
            raise ValueError("tail_len must be at least 1")

    @classmethod
    def from_env(cls, environ=None) -> "Tolerances":
        """Build defaults overridden by SVB_* environment variables.

        SVB_TOL_RANK, SVB_TOL_CHECK, SVB_STEP, SVB_R_CC, SVB_EPS_TOUCH,
        SVB_DELTA_COVER, SVB_TAIL_LEN.  Bad values raise ``ValueError``.
        """
        environ = os.environ if environ is None else environ
        overrides = {}
        for f in fields(cls):
            var = _ENV_PREFIX + f.name.upper()
            if var in environ:
                parse = int if f.name == "tail_len" else float
                try:
                    overrides[f.name] = parse(environ[var])
                except ValueError:
                    raise ValueError(f"{var}: expected {parse.__name__}, "
                                     f"got {environ[var]!r}") from None
        return cls(**overrides)

    def replace(self, **kwargs) -> "Tolerances":
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update({k: v for k, v in kwargs.items() if v is not None})
        return Tolerances(**merged)
