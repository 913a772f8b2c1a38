"""Stratifications as named point clouds with a declared closure order.

Closure relations between strata cannot be recovered from finite
samples, so they are declared up front and then audited numerically:
``check_frontier`` flags stratum pairs that look like frontier pairs in
the samples but are not declared (or whose declared covering fails at
the requested resolution).  ``local_finiteness_report`` counts how many
strata crowd each sample point, the finite surrogate for local
finiteness.

All cloud distances go through one block-wise kernel, so memory stays
bounded as clouds grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .config import MAX_LOCAL_STRATA, TOL_RANK
from .grassmann import span

__all__ = [
    "Stratum",
    "Stratification",
    "FrontierViolation",
    "FrontierReport",
    "LocalFinitenessReport",
    "LabelPartition",
    "check_frontier",
    "filtration",
    "local_finiteness_report",
    "estimate_cloud_dim",
    "single_linkage_components",
    "graph_components",
    "distance_blocks",
    "cloud_minima",
    "partition_by_label",
]

# Coordinate differences held by one block of the distance kernel: 8 MB
# of float64, which bounds the kernel's memory whatever the cloud sizes.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class Stratum:
    """A named stratum sampled by a nonempty point cloud in R^m."""

    name: str
    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError(f"stratum {self.name!r} has an empty point cloud")
        if self.dim < 0:
            raise ValueError(f"stratum {self.name!r} has negative dimension")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


class Stratification:
    """Finite strata in a common R^m plus a declared closure order.

    ``closure_order`` holds pairs ``(S, R)`` asserting that stratum S
    lies inside the closure of stratum R.  The declared pairs must form
    a strict partial order (irreflexive, acyclic); queries go through
    the transitive closure since closure containment is transitive.
    """

    def __init__(self, strata: Sequence[Stratum],
                 closure_order: Iterable[tuple[str, str]] = ()):
        strata = list(strata)
        if not strata:
            raise ValueError("a stratification needs at least one stratum")
        ambient = strata[0].ambient_dim
        names = [s.name for s in strata]
        if len(set(names)) != len(names):
            raise ValueError("stratum names must be unique")
        for s in strata:
            if s.ambient_dim != ambient:
                raise ValueError(
                    f"stratum {s.name!r} lives in R^{s.ambient_dim}, "
                    f"expected R^{ambient}")
        self.ambient_dim = ambient
        self.strata = strata
        self._by_name = {s.name: s for s in strata}
        order = {(str(a), str(b)) for a, b in closure_order}
        for a, b in order:
            for end in (a, b):
                if end not in self._by_name:
                    raise ValueError(f"closure order names unknown stratum {end!r}")
            if a == b:
                raise ValueError(f"closure order contains reflexive pair ({a},{a})")
        self.closure_order = frozenset(order)
        self._closure_reachable = _transitive_closure(names, order)
        for name in names:
            if (name, name) in self._closure_reachable:
                raise ValueError("closure order contains a cycle")
        self._check_disjoint()

    def _check_disjoint(self):
        for i, s in enumerate(self.strata[:-1]):
            later = self.strata[i + 1:]
            gaps = cloud_minima(s.points, [r.points for r in later])
            hits = np.flatnonzero(gaps.min(axis=0) <= 0.0)
            if hits.size:
                r = later[hits[0]]
                raise ValueError(
                    f"strata {s.name!r} and {r.name!r} share a sample point")

    def stratum(self, name: str) -> Stratum:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no stratum named {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.strata]

    def in_closure(self, s: str, r: str) -> bool:
        """Declared (transitively) that s lies in the closure of r."""
        return (s, r) in self._closure_reachable

    def diameter(self) -> float:
        cloud = np.concatenate([s.points for s in self.strata], axis=0)
        spread = cloud.max(axis=0) - cloud.min(axis=0)
        return float(np.linalg.norm(spread))

    def __repr__(self):
        return (f"Stratification(ambient={self.ambient_dim}, "
                f"strata={self.names})")


def _transitive_closure(names, pairs) -> frozenset:
    reach = {n: set() for n in names}
    for a, b in pairs:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in names:
            extra = set()
            for b in reach[a]:
                extra |= reach[b] - reach[a]
            if extra:
                reach[a] |= extra
                changed = True
    return frozenset((a, b) for a, bs in reach.items() for b in bs)


def distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, d)`` with ``d[i, j] = |a[start + i] - b[j]|``,
    covering the rows of ``a`` in order, at most ``_BLOCK`` coordinate
    differences (but at least one row) per block."""
    rows = max(1, _BLOCK // max(b.size, 1))
    for start in range(0, len(a), rows):
        chunk = a[start:start + rows]
        diff = chunk[:, None, :] - b[None, :, :]
        yield start, np.sqrt((diff ** 2).sum(-1))


def cloud_minima(points: np.ndarray, clouds) -> np.ndarray:
    """Distance from each point (row) to each cloud (column)."""
    starts = np.cumsum([0] + [len(c) for c in clouds[:-1]])
    return np.concatenate([np.minimum.reduceat(d, starts, axis=1) for _, d
                           in distance_blocks(points, np.concatenate(clouds))])


def single_linkage_components(points: np.ndarray,
                              radius: float) -> list[list[int]]:
    """Split a cloud into connected components of the radius graph
    (single linkage).  Components come out sorted by their smallest
    member index, members sorted ascending."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if radius <= 0:
        raise ValueError("radius must be positive")

    def edges():
        for start, d in distance_blocks(pts, pts):
            i, j = np.nonzero(d <= radius)
            yield i + start, j
    return graph_components(len(pts), edges())


def graph_components(n: int, edges) -> list[list[int]]:
    """Connected components of the graph on ``range(n)`` whose edges
    arrive as pairs of index arrays ``(i, j)``.  Components come out
    sorted by their smallest member, members sorted ascending."""
    # Union-find whose roots are the smallest index of their tree: each
    # round hooks the larger root of every split edge onto the smaller
    # one, then flattens the trees by pointer jumping.
    root = np.arange(n)
    for i, j in edges:
        while True:
            ri, rj = root[i], root[j]
            split = ri != rj
            if not split.any():
                break
            np.minimum.at(root, np.maximum(ri, rj)[split],
                          np.minimum(ri, rj)[split])
            while not np.array_equal(root[root], root):
                root = root[root]
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order])) + 1
    return [c.tolist() for c in np.split(order, cuts) if c.size]


@dataclass(frozen=True)
class LabelPartition:
    """Strata cut from labelled samples by ``partition_by_label``."""

    stratification: Stratification
    labels: tuple                               # one per input point
    point_to_key: dict = field(repr=False)      # input index -> (stratum, i)
    label_of_stratum: dict = field(repr=False)  # stratum name -> label


def partition_by_label(points, labels: Sequence[Hashable],
                       classes: Sequence[tuple[str, Hashable]],
                       dim: Callable[[Hashable, np.ndarray], int],
                       below: Callable[[Hashable, Hashable], bool],
                       r_cc: float) -> LabelPartition:
    """Group labelled points into strata.

    ``classes`` lists ``(prefix, label)`` for every distinct label, in
    the order the strata are emitted; each label class is split into
    single-linkage components at radius ``r_cc``, named
    ``{prefix}_c{c}``, with dimension ``dim(label, cloud)``.  A stratum
    is declared in the closure of another when ``below(its label, the
    other's label)`` holds and the two clouds come within ``r_cc``;
    audit the result with ``check_frontier``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = tuple(labels)
    strata = []
    point_to_key: dict[int, tuple[str, int]] = {}
    label_of_stratum = {}
    for prefix, label in classes:
        member_idx = [i for i, lab in enumerate(labels) if lab == label]
        components = single_linkage_components(pts[member_idx], r_cc)
        for c, component in enumerate(components):
            name = f"{prefix}_c{c}"
            local = [member_idx[i] for i in component]
            strata.append(Stratum(name, dim(label, pts[local]), pts[local]))
            label_of_stratum[name] = label
            for j, global_index in enumerate(local):
                point_to_key[global_index] = (name, j)

    clouds = [st.points for st in strata]
    closure = []
    for low in strata:
        gaps = cloud_minima(low.points, clouds).min(axis=0)
        for high, gap in zip(strata, gaps):
            if (below(label_of_stratum[low.name], label_of_stratum[high.name])
                    and gap <= r_cc):
                closure.append((low.name, high.name))
    return LabelPartition(Stratification(strata, closure_order=closure),
                          labels, point_to_key, label_of_stratum)


def estimate_cloud_dim(points: np.ndarray, tol_rank: float = TOL_RANK) -> int:
    """Affine dimension of a cloud from the singular values of the
    centered sample matrix.  Adequate for the near-affine strata used in
    fixtures; curved strata would need local estimates."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1:
        return 0
    centered = pts - pts.mean(axis=0)
    scale = float(np.abs(pts).max())
    return span(centered, pts.shape[1], tol_rank=tol_rank,
                tol_abs=1e-9 * max(scale, 1.0)).dim


@dataclass(frozen=True)
class FrontierViolation:
    s: str
    r: str
    reason: str  # "undeclared" or "not_covered"
    witness: tuple[float, ...]
    distance: float


@dataclass(frozen=True)
class FrontierReport:
    passed: bool
    eps_touch: float
    delta_cover: float
    violations: tuple[FrontierViolation, ...]
    touching_pairs: tuple[tuple[str, str], ...]

    def __bool__(self):
        return self.passed


def check_frontier(s: Stratification, eps_touch: Optional[float] = None,
                   delta_cover: Optional[float] = None) -> FrontierReport:
    """Audit the declared closure order against the samples.

    A pair (S, R), S != R, is treated as a frontier pair once every
    sample of S lies within ``eps_touch`` of R's cloud (at sampled scale
    "S meets the closure of R" is only distinguishable from "S lies in
    the closure of R" through the declared order, so the conservative
    all-points trigger is used).  Every frontier pair must be declared
    and covered within ``delta_cover``; both thresholds default to 1e-2
    times the cloud diameter.
    """
    scale = s.diameter()
    if eps_touch is None:
        eps_touch = 1e-2 * scale if scale > 0 else 1e-2
    if delta_cover is None:
        delta_cover = 1e-2 * scale if scale > 0 else 1e-2
    if eps_touch <= 0 or delta_cover <= 0:
        raise ValueError("eps_touch and delta_cover must be positive")

    violations = []
    touching = []
    clouds = [st.points for st in s.strata]
    for k, source in enumerate(s.strata):
        minima = cloud_minima(source.points, clouds)
        worst = minima.argmax(axis=0)
        reach = minima.max(axis=0)
        touches = reach <= eps_touch
        touches[k] = False
        for j in np.flatnonzero(touches):
            target = s.strata[j]
            touching.append((source.name, target.name))
            witness = tuple(float(x) for x in source.points[worst[j]])
            distance = float(reach[j])
            if not s.in_closure(source.name, target.name):
                violations.append(FrontierViolation(
                    source.name, target.name, "undeclared",
                    witness, distance))
            elif distance > delta_cover:
                violations.append(FrontierViolation(
                    source.name, target.name, "not_covered",
                    witness, distance))
    violations.sort(key=lambda v: (v.s, v.r))
    touching.sort()
    return FrontierReport(passed=not violations, eps_touch=eps_touch,
                          delta_cover=delta_cover,
                          violations=tuple(violations),
                          touching_pairs=tuple(touching))


def filtration(s: Stratification) -> list[set[str]]:
    """Skeleta by dimension: entry i is the set of strata of dim <= i."""
    top = max(st.dim for st in s.strata)
    return [{st.name for st in s.strata if st.dim <= i}
            for i in range(top + 1)]


@dataclass(frozen=True)
class LocalFinitenessReport:
    passed: bool
    radius: float
    max_count: int
    threshold: int
    counts: tuple[tuple[str, int, int], ...] = field(repr=False)
    flagged: tuple[tuple[str, int, int], ...] = ()

    def __bool__(self):
        return self.passed


def local_finiteness_report(s: Stratification, radius: float,
                            threshold: int = MAX_LOCAL_STRATA
                            ) -> LocalFinitenessReport:
    """Count, for every sample point, the strata meeting the radius ball
    around it (the point's own stratum included); flag points whose
    count exceeds ``threshold``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    counts = []
    flagged = []
    clouds = [st.points for st in s.strata]
    for home in s.strata:
        near = (cloud_minima(home.points, clouds) <= radius).sum(axis=1)
        for i, c in enumerate(near):
            counts.append((home.name, i, int(c)))
            if c > threshold:
                flagged.append((home.name, i, int(c)))
    max_count = max(c for _, _, c in counts)
    return LocalFinitenessReport(passed=not flagged, radius=radius,
                                 max_count=max_count, threshold=threshold,
                                 counts=tuple(counts), flagged=tuple(flagged))
