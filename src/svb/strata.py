"""Stratifications as named point clouds with a declared closure order.

Closure relations between strata cannot be recovered from finite
samples, so they are declared up front and then audited numerically:
``check_frontier`` flags stratum pairs that look like frontier pairs in
the samples but are not declared (or whose declared covering fails at
the requested resolution).  ``local_finiteness_report`` counts how many
strata crowd each sample point, the finite surrogate for local
finiteness.

Strata share a sample point when two rows are equal, which one sort
decides.  Every other cloud distance is needed only up to a known radius
(``eps_touch``, ``radius``, ``r_cc``), so all of them come from one
radius-bounded grid query, ``near_pairs``.  It yields its pairs in
chunks of bounded size and its callers reduce each chunk at once, so
whatever the radius, memory grows linearly with the number of points
plus the stratum pairs a result names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
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
    "near_pairs",
    "partition_by_label",
]

# Candidate pairs examined per chunk of ``near_pairs`` (but at least one
# query row per chunk), which bounds its memory whatever the radius.
_CHUNK = 1 << 17

# Grid cells per coordinate at most, so that cell keys fit in int64
# however small the radius is against the cloud's extent.
_CELLS = 1 << 20


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
        if not np.isfinite(pts).all():
            raise ValueError(
                f"stratum {self.name!r} has a non-finite sample point")
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
        self._cloud, self._owner = _stack(strata)
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
        # Sorted by coordinates, then by stratum, equal rows of distinct
        # strata sit next to each other; the lowest such pair of strata
        # is the first pair that shares a point.
        order = np.lexsort((self._owner, *self._cloud.T))
        rows, owner = self._cloud[order], self._owner[order]
        shared = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1)
                                & (owner[1:] != owner[:-1]))
        if shared.size:
            low, high = owner[shared], owner[shared + 1]
            k = np.lexsort((high, low))[0]
            raise ValueError(
                f"strata {self.strata[low[k]].name!r} and "
                f"{self.strata[high[k]].name!r} share a sample point")

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
        spread = self._cloud.max(axis=0) - self._cloud.min(axis=0)
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


def _stack(strata):
    """All sample points in stratum order, and each row's stratum index."""
    return (np.concatenate([st.points for st in strata]),
            np.repeat(np.arange(len(strata)), [len(st) for st in strata]))


def near_pairs(a: np.ndarray, b: np.ndarray, r: float):
    """Yield index and distance arrays ``(i, j, d)`` holding every pair
    with ``d = |a[i] - b[j]| <= r``, in chunks of consecutive rows of
    ``a``: a chunk holds all pairs of its rows.

    Candidates come from a uniform grid on the first three coordinates
    (all of them in lower ambient dimension) with cells at least ``r``
    wide.  A coordinate projection never increases a distance, so the
    3^g cells around a row's cell hold all its neighbours.  Rows with a
    non-finite grid coordinate have no pairs."""
    if not r >= 0:
        return
    g = min(a.shape[1], 3)
    rows_a = np.flatnonzero(np.isfinite(a[:, :g]).all(axis=1))
    rows_b = np.flatnonzero(np.isfinite(b[:, :g]).all(axis=1))
    if not (rows_a.size and rows_b.size):
        return
    grid = np.concatenate([a[rows_a, :g], b[rows_b, :g]])
    lo = grid.min(axis=0)
    extent = float((grid.max(axis=0) - lo).max(initial=0.0))
    # The slightly wider cell keeps pairs at exactly d == r clear of
    # rounding in the floor division.  Cells are never narrower than
    # 2^-500: closer coordinates may square to an underflow, and the
    # distance formula, not the grid, has to decide those pairs.
    cell = max(r * (1 + 2.0 ** -20), extent / _CELLS, 2.0 ** -500)
    weights = (_CELLS + 3) ** np.arange(g)

    def keys(x):
        return (np.floor((x[:, :g] - lo) / cell).astype(np.int64) + 1) @ weights

    kb = keys(b[rows_b])
    order = np.argsort(kb, kind="stable")
    kb, cands = kb[order], rows_b[order]
    near = keys(a[rows_a])[:, None] + np.array(
        list(product((-1, 0, 1), repeat=g)), dtype=np.int64) @ weights
    starts = np.searchsorted(kb, near, side="left")
    counts = np.searchsorted(kb, near, side="right") - starts
    per_row = counts.sum(axis=1)
    reach = np.cumsum(per_row)
    q0 = 0
    while q0 < len(rows_a):
        q1 = max(q0 + 1, int(np.searchsorted(
            reach, reach[q0] - per_row[q0] + _CHUNK, side="right")))
        c, s = counts[q0:q1].ravel(), starts[q0:q1].ravel()
        run = np.cumsum(c) - c
        j = cands[np.arange(c.sum()) + np.repeat(s - run, c)]
        i = np.repeat(rows_a[q0:q1], per_row[q0:q1])
        d = np.sqrt(((a[i] - b[j]) ** 2).sum(-1))
        keep = d <= r
        yield i[keep], j[keep], d[keep]
        q0 = q1


def single_linkage_components(points: np.ndarray,
                              radius: float) -> list[list[int]]:
    """Split a cloud into connected components of the radius graph
    (single linkage).  Components come out sorted by their smallest
    member index, members sorted ascending."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not radius > 0:
        raise ValueError("radius must be positive")
    return graph_components(len(pts), ((i, j) for i, j, _
                                       in near_pairs(pts, pts, radius)))


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

    cloud, owner = _stack(strata)
    near = set()
    for i, j, _ in near_pairs(cloud, cloud, r_cc):
        near.update(np.unique(owner[i] * len(strata) + owner[j]).tolist())
    closure = []
    for pair in sorted(near):
        low, high = divmod(pair, len(strata))
        low, high = strata[low].name, strata[high].name
        if below(label_of_stratum[low], label_of_stratum[high]):
            closure.append((low, high))
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
    if not (eps_touch > 0 and delta_cover > 0):
        raise ValueError("eps_touch and delta_cover must be positive")

    # Per stratum pair, keyed source * n + target: how many source points
    # come within eps_touch of the target, the largest of their nearest
    # distances and the first source point at it.  Chunks arrive in row
    # order and strata are contiguous rows, so the pairs of every source
    # before the stratum of a chunk's last row are complete: the touching
    # ones (all source points near the target) are kept, the rest dropped.
    n, owner = len(s.strata), s._owner
    size = np.bincount(owner, minlength=n)
    empty = np.zeros(0, dtype=np.int64)
    pending = (empty, empty, np.zeros(0), empty)
    kept = []

    def settle(upto):
        source = pending[0] // n
        full = (source < upto) & (pending[1] == size[source])
        kept.append(tuple(x[full] for x in pending))
        return tuple(x[source >= upto] for x in pending)

    for i, j, d in near_pairs(s._cloud, s._cloud, eps_touch):
        upto = owner[i[-1]] if i.size else 0
        other = owner[i] != owner[j]
        i, target, d = i[other], owner[j[other]], d[other]
        key = i * n + target
        order = np.lexsort((d, key))
        nearest = order[np.unique(key[order], return_index=True)[1]]
        i, target = i[nearest], target[nearest]
        pending = _farthest_per_pair(*map(np.concatenate, zip(pending, (
            owner[i] * n + target, np.ones(i.size, dtype=np.int64),
            d[nearest], i))))
        pending = settle(upto)
    settle(n)
    pair, _, reach, worst = map(np.concatenate, zip(*kept))
    source, target = np.divmod(pair, n)
    names = s.names
    violations = []
    touching = []
    for a, b, distance, witness in zip(
            source.tolist(), target.tolist(), reach.tolist(),
            s._cloud[worst].tolist()):
        a, b, witness = names[a], names[b], tuple(witness)
        touching.append((a, b))
        if not s.in_closure(a, b):
            violations.append(FrontierViolation(a, b, "undeclared",
                                                witness, distance))
        elif distance > delta_cover:
            violations.append(FrontierViolation(a, b, "not_covered",
                                                witness, distance))
    violations.sort(key=lambda v: (v.s, v.r))
    touching.sort()
    return FrontierReport(passed=not violations, eps_touch=eps_touch,
                          delta_cover=delta_cover,
                          violations=tuple(violations),
                          touching_pairs=tuple(touching))


def _farthest_per_pair(pair, count, reach, point):
    """Merge rows sharing a pair key: their counts add up, and the
    largest reach is kept with the lowest point attaining it."""
    order = np.lexsort((point, -reach, pair))
    pair, count, reach, point = (x[order] for x in (pair, count, reach, point))
    runs = np.flatnonzero(np.diff(pair, prepend=-1))
    return pair[runs], np.add.reduceat(count, runs), reach[runs], point[runs]


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
    if not radius > 0:
        raise ValueError("radius must be positive")
    n, owner = len(s.strata), s._owner
    near = np.zeros(len(owner), dtype=int)
    for i, j, _ in near_pairs(s._cloud, s._cloud, radius):
        near += np.bincount(np.unique(i * n + owner[j]) // n,
                            minlength=len(owner))
    cuts = np.cumsum([len(st) for st in s.strata])[:-1]
    counts = []
    flagged = []
    for home, near_home in zip(s.strata, np.split(near, cuts)):
        for i, c in enumerate(near_home.tolist()):
            counts.append((home.name, i, c))
            if c > threshold:
                flagged.append((home.name, i, c))
    max_count = max(c for _, _, c in counts)
    return LocalFinitenessReport(passed=not flagged, radius=radius,
                                 max_count=max_count, threshold=threshold,
                                 counts=tuple(counts), flagged=tuple(flagged))
