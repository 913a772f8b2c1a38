"""Stratifications as named point clouds with a declared closure order.

Closure relations between strata cannot be recovered from finite
samples, so they are declared up front and then audited numerically:
``check_frontier`` flags stratum pairs that look like frontier pairs in
the samples but are not declared (or whose declared covering fails at
the requested resolution).  ``local_finiteness_report`` counts how many
strata crowd each sample point, the finite surrogate for local
finiteness.

A ``Stratification`` stacks its strata into one cloud, with the stratum
of each row and the first row of each stratum, which every caller that
needs a stratum's rows reads.  Its closure order, transitively closed,
is held once: as the sorted keys s * n + r of the index pairs (s, r)
with stratum s in the closure of stratum r.

Strata share a sample point when two rows are equal, which one sort
decides.  Every other cloud distance is needed only up to a known radius
(``eps_touch``, ``radius``, ``r_cc``), so all of them come from one
radius-bounded grid index, ``_Grid``, over finite points:
``check_frontier`` queries it directly and every other caller through
``near_pairs``, which refuses a non-finite point.  It yields its pairs
in chunks of bounded size and its callers reduce each chunk at once, so
whatever the radius, memory grows linearly with the number of points
plus the stratum pairs a result names.

``check_frontier`` queries its grid twice.  A stratum that touches
another must do so with its first sample in particular, so the first
query takes one sample per stratum, and the pairs a chunk of it meets
are the candidates.  The second query covers only the other samples of
the strata whose first sample met another stratum, which on
well-separated strata is a small part of the cloud.

A ``FrontierReport`` keeps its touching pairs as parallel arrays
(source, target, reason code, witness row, distance), sorted once by
name; renderers read those columns directly, and the tuple of name
pairs ``touching_pairs`` is built only when asked for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .config import MAX_LOCAL_STRATA, TOL_RANK
from .grassmann import (_check_positive, _distinct, _float_rows, _integer,
                        _runs, span)

__all__ = [
    "Stratum",
    "Stratification",
    "FrontierReport",
    "REASONS",
    "MAX_COORD",
    "LocalFinitenessReport",
    "LabelPartition",
    "check_frontier",
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

# Bound on the absolute value of every sample coordinate.  Within it the
# grid box, every cell key and every squared distance of m < 2^21
# coordinates stay finite (m * 2^1002 < 2^1023); from about 1.3e154 on,
# a squared difference overflows to inf.
MAX_COORD = 2.0 ** 500


def _first_far(pts: np.ndarray) -> int:
    """The first row of ``pts`` with a coordinate that is not finite or
    lies beyond ``MAX_COORD`` in absolute value, or -1."""
    if np.abs(pts).max(initial=0.0) <= MAX_COORD:  # NaN fails
        return -1
    return int(np.argmax(~(np.abs(pts) <= MAX_COORD))) // pts.shape[1]


def _check_stratum(name, dim, size) -> int:
    """The dimension of a stratum read by ``_integer``, once the name is
    a string, the cloud nonempty and the dimension nonnegative."""
    if not isinstance(name, str):
        raise ValueError(
            f"stratum name must be a string, got {type(name).__name__}")
    if size == 0:
        raise ValueError(f"stratum {name!r} has an empty point cloud")
    return _integer(f"stratum {name!r} dim", dim, 0)


@dataclass(frozen=True)
class Stratum:
    """A named stratum sampled by a nonempty point cloud in R^m."""

    name: str
    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = _float_rows(self.points)
        object.__setattr__(self, "dim",
                           _check_stratum(self.name, self.dim, pts.size))
        if not np.isfinite(pts).all():
            raise ValueError(
                f"stratum {self.name!r} has a non-finite sample point")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_rows(cls, name: str, dim: int, rows: np.ndarray) -> "Stratum":
        """The stratum over ``rows``, finite and read-only already, held
        as they are."""
        stratum = object.__new__(cls)
        object.__setattr__(stratum, "name", name)
        object.__setattr__(stratum, "dim", _check_stratum(name, dim,
                                                          rows.size))
        object.__setattr__(stratum, "points", rows)
        return stratum

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
        self._index = {s.name: k for k, s in enumerate(strata)}
        if len(self._index) != len(strata):
            raise ValueError("stratum names must be unique")
        for s in strata:
            if s.ambient_dim != ambient:
                raise ValueError(
                    f"stratum {s.name!r} lives in R^{s.ambient_dim}, "
                    f"expected R^{ambient}")
        self.ambient_dim = ambient
        self.strata = strata
        self._cloud = np.concatenate([st.points for st in strata])
        sizes = [len(st) for st in strata]
        self._owner = np.repeat(np.arange(len(strata)), sizes)
        self._bounds = np.cumsum([0, *sizes])  # s: rows _bounds[s:s + 2]
        if (far := _first_far(self._cloud)) >= 0:
            raise ValueError(f"stratum {strata[self._owner[far]].name!r} has "
                             "a sample coordinate beyond ±2^500")
        order = dict.fromkeys((a, b) for a, b in closure_order)  # as declared
        above = [[] for _ in strata]  # declared r of each s, as indices
        for a, b in order:
            for end in (a, b):
                if not isinstance(end, str):
                    raise ValueError(
                        f"closure order end {end!r} is not a string")
                if end not in self._index:
                    raise ValueError(f"closure order names unknown stratum {end!r}")
            if a == b:
                raise ValueError(f"closure order contains reflexive pair ({a},{a})")
            above[self._index[a]].append(self._index[b])
        self.closure_order = frozenset(order)
        # One walk from each stratum s over the declared pairs reaches
        # every r with s in the closure of r: the key s * n + r.
        n = len(strata)
        keys = [n * n]  # above every key
        for s in range(n):
            if not above[s]:
                continue
            seen, todo = set(), list(above[s])
            while todo:
                r = todo.pop()
                if r not in seen:
                    seen.add(r)
                    todo += above[r]
            if s in seen:
                raise ValueError("closure order contains a cycle")
            keys += [s * n + r for r in seen]
        self._closure_keys = np.sort(np.array(keys, dtype=np.int64))
        self._check_disjoint()

    def _check_disjoint(self):
        # Equal rows tie on their first coordinate, so only rows in runs
        # of ties are sorted by every coordinate.  Both sorts are stable
        # and the cloud lists the strata in order, so equal rows keep
        # stratum order: equal rows of distinct strata sit next to each
        # other, and the lowest such pair is the first pair that shares
        # a point.
        columns = self._cloud.T
        order = np.argsort(columns[0], kind="stable")
        first = columns[0][order]
        tie = first[1:] == first[:-1]
        if not tie.any():
            return
        in_run = np.append(tie, False)
        in_run[1:] |= tie
        order = order[in_run]
        order = order[np.lexsort([column[order] for column in columns])]
        owner = self._owner[order]
        shared = owner[1:] != owner[:-1]
        for column in columns:
            sorted_column = column[order]
            shared &= sorted_column[1:] == sorted_column[:-1]
        shared = np.flatnonzero(shared)
        if shared.size:
            low, high = owner[shared], owner[shared + 1]
            k = np.lexsort((high, low))[0]
            raise ValueError(
                f"strata {self.strata[low[k]].name!r} and "
                f"{self.strata[high[k]].name!r} share a sample point")

    def stratum(self, name: str) -> Stratum:
        try:
            return self.strata[self._index[name]]
        except KeyError:
            raise KeyError(f"no stratum named {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.strata]

    def in_closure(self, s: str, r: str) -> bool:
        """Declared (transitively) that s lies in the closure of r."""
        if s not in self._index or r not in self._index:
            return False
        return bool(self._declared(self._index[s] * len(self.strata)
                                   + self._index[r]))

    def _declared(self, pair):
        """Whether each key ``s * n + r`` of stratum indices is a pair of
        the closure order."""
        keys = self._closure_keys
        return keys[keys.searchsorted(pair)] == pair

    def diameter(self) -> float:
        spread = self._cloud.max(axis=0) - self._cloud.min(axis=0)
        return float(np.linalg.norm(spread))

    def __repr__(self):
        return (f"Stratification(ambient={self.ambient_dim}, "
                f"strata={self.names})")


def near_pairs(a: np.ndarray, b: np.ndarray, r: float):
    """Index and distance arrays ``(i, j, d)`` holding every pair with
    ``d = |a[i] - b[j]| <= r``, in chunks of consecutive rows of ``a``:
    a chunk holds all pairs of its rows.  ``a`` and ``b`` must be 2-D
    arrays of one positive width (anything ``np.asarray`` reads as such),
    and finite, and ``r`` not NaN: else ValueError.  No pair is within a
    negative ``r``.

    It is a join, not the intake of a sample set, so it keeps its own
    contract rather than ``_samples``: ``equivariant`` queries it with
    the images of a cloud under orthogonal elements, which stay finite
    but may lie a little past ±``MAX_COORD`` when the cloud reaches it,
    so it allows empty clouds and refuses only non-finite points.

    The pairs come from a ``_Grid`` over ``b`` whose box also holds
    ``a``, so a point of ``a`` outside ``b``'s own box still has its
    cell keys in range and its pairs exact.  A self-join (``a is b``)
    takes ``b``'s sorted keys as its needles.  Distances, by
    ``_lengths``, are exact for coordinates within ±``MAX_COORD`` =
    ±2^500, the bound of ``_first_far``; farther out a squared distance
    may overflow to inf.  ``check_frontier`` queries its grid directly:
    once with one sample per stratum, whose pairs are its candidates,
    and once per chunk of those with the other samples of the
    candidates' sources."""
    self_join = a is b
    b = np.asarray(b, dtype=float)
    a = b if self_join else np.asarray(a, dtype=float)
    if not (a.ndim == b.ndim == 2 and a.shape[1] == b.shape[1]):
        raise ValueError("near_pairs needs 2-D point arrays of one width")
    if not a.shape[1]:
        raise ValueError("near_pairs needs points with at least one coordinate")
    if not (np.isfinite(b).all() and (self_join or np.isfinite(a).all())):
        raise ValueError("near_pairs needs finite points")
    if np.isnan(r):
        raise ValueError("near_pairs radius is NaN")
    if not (r >= 0 and len(b)):
        return iter(())
    grid = _Grid(b, r, None if self_join else a)
    return grid.near(np.arange(len(b))) if self_join else grid.near_points(a)


def _nearest_within(a: np.ndarray, b: np.ndarray, r: float) -> np.ndarray:
    """The index of the nearest row of ``b`` within ``r`` of each row of
    ``a`` (the lowest on a tie), or -1 where none is, by ``near_pairs``."""
    match = np.full(len(a), -1)
    for i, j, d in near_pairs(a, b, r):
        order = np.lexsort((j, d, i))
        nearest = order[_runs(i[order])]
        match[i[nearest]] = j[nearest]
    return match


class _Grid:
    """A radius query index: the finite points ``b`` by uniform grid cell.

    The grid lies on the first g = 3 coordinates (all of them in lower
    ambient dimension) with cells at least ``r`` wide, and its box holds
    ``b`` and, when given, the points ``a`` it will be queried with.  A
    coordinate projection never increases a distance, so the 3^g cells
    around a query's cell hold all its neighbours.  Cell keys weigh the
    last grid coordinate 1, so the three cells a query reaches along it
    are the consecutive keys ``k - 1 .. k + 1``: one run of the sorted
    keys of ``b``, found by two binary searches.  That makes 3^(g-1) runs
    per query row.  The searches take their needles in ascending key
    order, run by run, which lets each search start where the last one
    ended; the results then go back to query row order.  A row's
    candidates follow cell by cell, the last grid coordinate fastest,
    each cell in the order of ``b``, and chunks hold consecutive query
    rows.  ``rank`` holds the place in key order of each row of ``b``."""

    def __init__(self, b: np.ndarray, r: float, a=None):
        self.b, self.r = b, r
        g = min(b.shape[1], 3)
        box = b[:, :g] if a is None else np.concatenate([a[:, :g], b[:, :g]])
        self.lo = lo = box.min(axis=0)
        extent = float((box.max(axis=0) - lo).max(initial=0.0))
        # The slightly wider cell keeps pairs at exactly d == r clear of
        # rounding in the floor division.  Cells are never narrower than
        # 2^-500: closer coordinates may square to an underflow, and the
        # distance formula, not the grid, has to decide those pairs.
        self.cell = max(r * (1 + 2.0 ** -20), extent / _CELLS, 2.0 ** -500)
        self.weights = (_CELLS + 3) ** np.arange(g)[::-1]
        kb = self.keys(b)
        self.cands = np.argsort(kb, kind="stable")
        self.kb, self.rank = kb[self.cands], _inverse(self.cands)
        self.offsets = _offsets(g)

    def keys(self, x: np.ndarray) -> np.ndarray:
        g = len(self.weights)
        return (np.floor((x[:, :g] - self.lo) / self.cell).astype(np.int64)
                + 1) @ self.weights

    def near(self, rows: np.ndarray):
        """The pairs of the rows ``rows`` of ``b``, ascending."""
        pos = self.rank[rows]
        if len(rows) == len(self.b):  # all of them: the needles are kb
            return self._pairs(self.b, rows, self.kb, pos)
        order = np.argsort(pos)
        return self._pairs(self.b, rows, self.kb[pos[order]], _inverse(order))

    def near_points(self, a: np.ndarray):
        """The pairs of the points ``a``, which lie in the grid's box."""
        ka = self.keys(a)
        order = np.argsort(ka)
        return self._pairs(a, np.arange(len(a)), ka[order], _inverse(order))

    def _pairs(self, a, rows_a, needles, where):
        """Chunks of the pairs of ``a[rows_a]``, whose keys are
        ``needles[where]`` with ``needles`` ascending."""
        near = self.offsets[:, None] + needles
        near -= 1
        starts = self.kb.searchsorted(near, side="left")
        near += 2
        counts = self.kb.searchsorted(near, side="right")
        del near
        counts -= starts
        starts, counts = starts.T, counts.T
        per_row = counts.sum(axis=1)[where]
        reach = per_row.cumsum()
        b, r, cands = self.b, self.r, self.cands
        q0 = 0
        while q0 < len(rows_a):
            q1 = max(q0 + 1, int(reach.searchsorted(
                reach[q0] - per_row[q0] + _CHUNK, side="right")))
            w = where[q0:q1]
            c, s = counts[w].ravel(), starts[w].ravel()
            run = c.cumsum() - c
            j = cands[np.arange(c.sum()) + (s - run).repeat(c)]
            i = rows_a[q0:q1].repeat(per_row[q0:q1])
            d = _lengths(a[i] - b[j])
            keep = d <= r
            # Only the kept pairs stay alive while the consumer runs.
            i, j, d = i[keep], j[keep], d[keep]
            yield i, j, d
            q0 = q1


def _lengths(diff: np.ndarray) -> np.ndarray:
    """The length of each row of ``diff``, which is squared in place: the
    squared columns added in order, as ``.sum(-1)`` adds fewer than 8
    terms, but without its cost per row on a short last axis."""
    square = np.square(diff, out=diff)
    total = square[:, 0].copy()
    for column in square.T[1:]:
        total += column
    return np.sqrt(total, out=total)


@functools.cache
def _offsets(g: int) -> np.ndarray:
    """The key offsets of the 3^(g-1) runs of cells around a cell."""
    steps = np.array(list(product((-1, 0, 1), repeat=g - 1)),
                     dtype=np.int64).reshape(3 ** (g - 1), g - 1)
    offsets = steps @ (_CELLS + 3) ** np.arange(g - 1, 0, -1)
    offsets.flags.writeable = False
    return offsets


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation ``order``."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def single_linkage_components(points: np.ndarray,
                              radius: float) -> list[list[int]]:
    """Split a cloud into connected components of the radius graph
    (single linkage).  Components come out sorted by their smallest
    member index, members sorted ascending."""
    _check_positive("radius", radius)
    pts = _samples(points)
    return graph_components(len(pts), ((i, j) for i, j, _
                                       in near_pairs(pts, pts, radius)))


def _samples(points, ambient_dim: Optional[int] = None) -> np.ndarray:
    """``points`` as a float array of rows: the one rule for a set of
    sample points.  In order: rows by ``_float_rows``; a width equal to
    ``ambient_dim`` when it is given (a positive integer), else at least
    one coordinate; at least one row; and every coordinate finite and
    within ±``MAX_COORD``, by one ``_first_far`` pass.  ``Stratum``,
    ``near_pairs`` and the evaluators keep their own contracts."""
    if ambient_dim is not None:
        ambient_dim = _integer("ambient_dim", ambient_dim, 1)
    pts = _float_rows(points)
    if ambient_dim is not None and pts.shape[1] != ambient_dim:
        raise ValueError("sample points have the wrong ambient dimension")
    if not pts.shape[1]:
        raise ValueError("sample points need at least one coordinate")
    if not pts.shape[0]:
        raise ValueError("need at least one sample point")
    if (far := _first_far(pts)) >= 0:
        raise ValueError(f"sample point {far} has a coordinate that is "
                         "not finite or beyond ±2^500")
    return pts


def graph_components(n: int, edges) -> list[list[int]]:
    """Connected components of the graph on ``range(n)`` whose edges
    arrive as pairs of integer arrays ``(i, j)`` in range(n).  Components
    come out sorted by their smallest member, members sorted ascending."""
    # Union-find whose roots are the smallest index of their tree: each
    # round hooks the larger root of every split edge onto the smaller
    # one, then flattens the trees by pointer jumping.
    root = np.arange(_integer("n", n, 0))
    for i, j in edges:
        i, j = np.asarray(i), np.asarray(j)
        for end in (i, j):  # by dtype and one min and max per chunk
            if end.dtype.kind not in "iu" or end.size and (
                    end.min() < 0 or end.max() >= n):
                raise ValueError(f"edge ends must be integers in range({n})")
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
    cuts = _runs(root[order])[1:]
    return [c.tolist() for c in np.split(order, cuts) if c.size]


@dataclass(frozen=True)
class LabelPartition:
    """Strata cut from labelled samples by ``partition_by_label``."""

    stratification: Stratification
    labels: tuple                               # one per input point
    members: list = field(repr=False)           # input indices per stratum
    label_of_stratum: dict = field(repr=False)  # stratum name -> label


def partition_by_label(points, labels: Sequence[Hashable],
                       classes: Sequence[tuple[str, Hashable]],
                       dim: Callable[[Hashable, np.ndarray], int],
                       below: Callable[[Hashable, Hashable], bool],
                       r_cc: float, within=None) -> LabelPartition:
    """Group labelled points into strata.

    ``classes`` lists ``(prefix, label)`` for every label, each once, in
    the order the strata are emitted; each label class is split into
    single-linkage components at radius ``r_cc``, named ``{prefix}_c{c}``
    with c counting the class's components by smallest member, with
    dimension ``dim(label, cloud)``.  ``within``, one nonnegative integer
    per point, refines the split: no component joins points of two
    values, so the strata refine the partition it gives.  A stratum is declared in the
    closure of another when ``below(its label, the other's label)`` holds
    and the two clouds come within ``r_cc``; audit the result with
    ``check_frontier``.  One ``near_pairs`` pass decides both; memory
    grows with the pairs across labels or ``within`` values, held until
    components are known.
    ``members`` is the point map: point i of the s-th stratum is input
    point ``members[s][i]``, each stratum's members ascending.
    """
    _check_positive("r_cc", r_cc)
    pts = _samples(points)
    labels = tuple(labels)
    if len(labels) != len(pts):
        raise ValueError(f"labels: expected {len(pts)}, one per point, "
                         f"got {len(labels)}")
    code = {}
    for c, (_, label) in enumerate(classes):
        if code.setdefault(label, c) != c:
            raise ValueError(f"classes lists label {label!r} twice")
    try:
        coded = np.array([code[lab] for lab in labels], dtype=np.intp)
    except KeyError as missing:
        raise ValueError(f"label {missing.args[0]!r} is not listed in "
                         "classes") from None
    key = coded
    if within is not None:
        within = np.asarray(within)
        if within.shape != coded.shape or within.dtype.kind not in "iu" \
                or within.min() < 0:
            raise ValueError("within must hold one nonnegative integer per "
                             "point")
        key = coded * (int(within.max()) + 1) + within
    cross = []  # cross-key pairs, kept until their components are known

    def same_label(pairs):
        for i, j, _ in pairs:
            same = key[i] == key[j]
            cross.append((i[~same], j[~same]))
            yield i[same], j[same]

    by_class = [[] for _ in classes]
    for local in graph_components(len(pts),
                                  same_label(near_pairs(pts, pts, r_cc))):
        by_class[coded[local[0]]].append(local)
    # The strata hold read-only row slices of one cloud, stratum by stratum.
    members = [local for components in by_class for local in components]
    cloud = pts[np.concatenate([np.empty(0, np.intp), *members])]
    cloud.flags.writeable = False
    strata, owner = [], np.zeros(len(pts), dtype=np.intp)
    label_of_stratum = {}
    start = 0
    for (prefix, label), components in zip(classes, by_class):
        for c, local in enumerate(components):
            name = f"{prefix}_c{c}"
            owner[local] = len(strata)
            rows = cloud[start:start + len(local)]
            start += len(local)
            strata.append(Stratum._of_rows(name, dim(label, rows), rows))
            label_of_stratum[name] = label

    # Stratum pair (a, b) as the key a * n + b, so that sorted keys are
    # sorted pairs; each cloud meets itself.
    n = len(strata)
    keys = _distinct(np.concatenate([np.arange(n) * (n + 1)] + [
        owner[i] * n + owner[j] for i, j in cross]))
    names = [st.name for st in strata]
    closure = [(names[a], names[b])
               for a, b in zip(*(part.tolist() for part in divmod(keys, n)))
               if below(label_of_stratum[names[a]],
                        label_of_stratum[names[b]])]
    return LabelPartition(Stratification(strata, closure_order=closure),
                          labels, members, label_of_stratum)


def estimate_cloud_dim(points: np.ndarray, tol_rank: float = TOL_RANK) -> int:
    """Affine dimension of a cloud from the singular values of the
    centered sample matrix.  Adequate for the near-affine strata used in
    fixtures; curved strata would need local estimates."""
    pts = _samples(points)
    if pts.shape[0] == 1:
        return 0
    centered = pts - pts.mean(axis=0)
    scale = float(np.abs(pts).max())
    return span(centered, pts.shape[1], tol_rank=tol_rank,
                tol_abs=1e-9 * max(scale, 1.0)).dim


# The violation reasons by code; code -1 marks a sound touching pair.
REASONS = ("undeclared", "not_covered")


@dataclass(frozen=True, eq=False)
class FrontierReport:
    """The touching pairs of ``check_frontier`` as parallel arrays, one
    row per pair, sorted by source name and then target name.

    ``source`` and ``target`` index ``names``; ``reason`` holds -1 for a
    sound pair, else the index of its reason in ``REASONS``; ``witness``
    is the source point farthest from the target cloud and ``distance``
    its distance to that cloud; ``touching_pairs`` names the pairs.
    """

    passed: bool
    eps_touch: float
    delta_cover: float
    names: tuple[str, ...] = field(repr=False)
    source: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    reason: np.ndarray = field(repr=False)
    witness: np.ndarray = field(repr=False)
    distance: np.ndarray = field(repr=False)

    def __bool__(self):
        return self.passed

    def pair_names(self, rows=slice(None)) -> tuple[list, list]:
        """Source and target names of the given rows, as two lists."""
        names = np.array(self.names, dtype=object)
        return (names[self.source[rows]].tolist(),
                names[self.target[rows]].tolist())

    def violation_columns(self) -> tuple[list, ...]:
        """S, R, reason, witness row and distance of every violation,
        one list per column, in report order."""
        bad = np.flatnonzero(self.reason >= 0)
        return (*self.pair_names(bad),
                np.array(REASONS, dtype=object)[self.reason[bad]].tolist(),
                self.witness[bad].tolist(), self.distance[bad].tolist())

    @functools.cached_property
    def touching_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(*self.pair_names()))


def check_frontier(s: Stratification, eps_touch: Optional[float] = None,
                   delta_cover: Optional[float] = None) -> FrontierReport:
    """Audit the declared closure order against the samples.

    A pair (S, R), S != R, is treated as a frontier pair once every
    sample of S lies within ``eps_touch`` of R's cloud (at sampled scale
    "S meets the closure of R" is only distinguishable from "S lies in
    the closure of R" through the declared order, so the conservative
    all-points trigger is used).  Every frontier pair must be declared
    and covered within ``delta_cover``; both thresholds default to 1e-2
    times the cloud diameter, which is computed only for a default.

    The first sample of each stratum gates the search, exactly: if S
    touches R, that sample in particular lies within ``eps_touch`` of R.
    So the pairs a chunk of first samples meets are the candidates, each
    counting one source sample near its target, with that sample's
    nearest distance as reach and its row as witness.  One more query,
    over the other samples of those candidates' sources, adds to the
    counts and keeps each pair's largest reach at its lowest row; a pair
    touches once its count reaches its source's size.  Both queries use
    one grid over the cloud, memory holds one chunk of candidates at a
    time, and the report is the one a search of every sample gives.
    """
    if eps_touch is None or delta_cover is None:
        scale = s.diameter()
        default = 1e-2 * scale if scale > 0 else 1e-2
        eps_touch = default if eps_touch is None else eps_touch
        delta_cover = default if delta_cover is None else delta_cover
    _check_positive("eps_touch", eps_touch)
    _check_positive("delta_cover", delta_cover)

    n, owner = len(s.strata), s._owner
    first, size = s._bounds[:-1], np.diff(s._bounds)
    grid = _Grid(s._cloud, eps_touch)
    kept = []
    for chunk in grid.near(first):
        # The pairs these first samples meet are the candidates, keyed
        # source * n + target and ascending: count 1, reach and witness
        # the first sample's.
        witness, target, reach = _nearest(owner, n, *chunk)
        source = owner[witness]
        pair = source * n + target
        count = np.ones(pair.size, dtype=np.int64)
        # One more query over the other samples of those sources.
        source = source[_runs(source)]
        rest = size[source] - 1
        rows = np.arange(rest.sum()) + np.repeat(
            first[source] + 1 - (rest.cumsum() - rest), rest)
        for more in grid.near(rows) if rows.size else ():
            row, target, d = _nearest(owner, n, *more)
            key = owner[row] * n + target
            at = pair.searchsorted(key)
            hit = pair[np.minimum(at, pair.size - 1)] == key
            at, row, d = at[hit], row[hit], d[hit]
            count += np.bincount(at, minlength=pair.size)
            # Per pair, the largest reach at its lowest row; rows ascend,
            # so a strictly larger one replaces an earlier witness.
            order = np.lexsort((-d, at))
            best = order[_runs(at[order])]
            at, row, d = at[best], row[best], d[best]
            farther = d > reach[at]
            reach[at[farther]] = d[farther]
            witness[at[farther]] = row[farther]
        touch = count == size[pair // n]
        kept.append((pair[touch], reach[touch], witness[touch]))
    pair, reach, worst = map(np.concatenate, zip(*kept))
    reason = np.where(s._declared(pair),
                      np.where(reach > delta_cover, 1, -1), 0)
    source, target = np.divmod(pair, n)
    names = s.names
    by_name = _inverse(np.array(sorted(range(n), key=names.__getitem__)))
    order = np.lexsort((by_name[target], by_name[source]))
    return FrontierReport(
        passed=not (reason >= 0).any(), eps_touch=eps_touch,
        delta_cover=delta_cover, names=tuple(names), source=source[order],
        target=target[order], reason=reason[order].astype(np.int8),
        witness=s._cloud[worst[order]], distance=reach[order])


def _nearest(owner, n, i, j, d):
    """Each (row, other stratum) of a chunk of pairs once, with the
    row's nearest distance to that stratum, as arrays (row, stratum,
    distance) ascending by row and then stratum.  A chunk holds every
    pair of its rows, so no (row, stratum) comes up in another."""
    other = owner[i] != owner[j]
    key = i[other] * n + owner[j[other]]
    order = np.argsort(key, kind="stable")
    runs = _runs(key[order])
    row, stratum = np.divmod(key[order[runs]], n)
    return row, stratum, np.minimum.reduceat(d[other][order], runs)


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
    _check_positive("radius", radius)
    threshold = _integer("threshold", threshold, 0)
    n, owner = len(s.strata), s._owner
    # A chunk of near_pairs holds every pair of its rows, so no
    # (point, stratum) key of one chunk comes up in another.
    near = np.zeros(len(owner), dtype=int)
    for i, j, _ in near_pairs(s._cloud, s._cloud, radius):
        near += np.bincount(_distinct(i * n + owner[j]) // n,
                            minlength=len(owner))
    local = np.arange(len(owner)) - s._bounds[owner]
    counts = tuple(zip(np.array(s.names, dtype=object)[owner].tolist(),
                       local.tolist(), near.tolist()))
    flagged = tuple(counts[p]
                    for p in np.flatnonzero(near > threshold).tolist())
    return LocalFinitenessReport(passed=not flagged, radius=radius,
                                 max_count=int(near.max()),
                                 threshold=threshold, counts=counts,
                                 flagged=flagged)
