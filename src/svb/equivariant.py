"""Finite orthogonal group actions on sampled spaces and bundles.

A group is a finite stack of orthogonal matrices closed under products,
with its multiplication table.  Sample points are handled per
stabilizer class, not one at a time: one ``(order, n)`` table records
which elements fix which points, each distinct column is one stabilizer,
checked once for closure under the table, and conjugacy labels, fixed
subspaces by averaging and orbit-type strata follow per class.
``invariant_subbundle`` shrinks an equivariant bundle to the
stabilizer-invariant part of each fiber, one intersection stack per
(class, stratum) sharing the class's fixed space, and
``quotient_bundle`` pushes the result down to one fiber per orbit.  The
equivariance audit needs no rank decision: an orthogonal fiber matrix M
carries the fiber with projection P onto the one with projection
M P M^T.  The difference M P M^T - Q is symmetric, so its spectral norm
is its largest |eigenvalue|: the audit of every element and fiber is
one batched symmetric eigenvalue solve, and so is the orthogonality
check of the group's matrices.

Infinite rotation groups are not first class; the plane-rotation action
on R^2 ships as a closed-form fixture (``circle_action_on_plane_report``)
reproducing its quotient rank table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import SampledStratifiedBundle
from .config import R_CC, TOL_CHECK
from .grassmann import Subspace, _distinct, intersections, span
from .strata import (
    LabelPartition,
    Stratification,
    Stratum,
    _inverse,
    near_pairs,
    partition_by_label,
)

__all__ = [
    "FiniteGroupAction",
    "StrataNotInvariantError",
    "stabilizer",
    "conjugacy_label",
    "fixed_subspace",
    "orbit_type_partition",
    "invariant_subbundle",
    "quotient_bundle",
    "tangent_comparison",
    "TangentComparison",
    "circle_action_on_plane_report",
    "CircleActionReport",
]


_TOL_GROUP = 1e-9  # bound on orthogonality defects, matches, fiber table
_BLOCK = 1 << 20   # entries of one block of the product-table search


class StrataNotInvariantError(ValueError):
    """A group element carries a base stratum into more than one."""


class FiniteGroupAction:
    """A finite group of orthogonal n x n matrices, with an optional
    matching list of orthogonal fiber matrices (same multiplication
    table) acting on a bundle's ambient fiber space, both held as
    stacked ``(order, n, n)`` and ``(order, k, k)`` arrays."""

    def __init__(self, n: int, elements: Sequence, fiber_elements=None):
        self.n = int(n)
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in elements]
        if not mats:
            raise ValueError("group needs at least the identity element")
        self.elements = mats = _orthogonal_stack(
            mats, self.n, "element", f"element {{}} is not {self.n} x {self.n}")
        identity = np.abs(mats - np.eye(self.n)).max(axis=(1, 2)) <= _TOL_GROUP
        if identity.sum() != 1:
            raise ValueError("the identity matrix is missing from the group")
        self.identity_index = int(identity.argmax())
        order = len(mats)
        self.table = np.zeros((order, order), dtype=int)
        # Rows i of the table in blocks whose (product, element) pairs,
        # n * n entries each, stay within _BLOCK.  For orthogonal A and B,
        # <A, B>_F = n - |A - B|_F^2 / 2: a match (every entry within
        # _TOL_GROUP) has <A, B>_F > n - 1/2, and below that some entry
        # differs by 1/n or more.  So the exact entry test runs on the
        # pairs above n - 1/2 alone.
        flat = mats.reshape(order, -1)
        step = max(1, _BLOCK // max(1, order * order * self.n * self.n))
        for start in range(0, order, step):
            # Row q of prods: the product of elements start + q // order
            # and q % order.
            prods = (mats[start:start + step, None] @ mats).reshape(
                -1, flat.shape[1])
            q, k = np.divmod(np.flatnonzero(prods @ flat.T > self.n - 0.5),
                             order)
            # The largest entry gap of each candidate, one entry at a time.
            gap = np.zeros(q.size)
            for a, b in zip(prods.T, flat.T):
                np.maximum(gap, np.abs(a[q] - b[k]), out=gap)
            match = gap <= _TOL_GROUP
            q, k = q[match], k[match]
            off = np.flatnonzero(np.bincount(q, minlength=len(prods)) != 1)
            if off.size:
                i, j = divmod(int(off[0]), order)
                raise ValueError(f"product of elements {start + i} "
                                 f"and {j} is not in the group")
            self.table[start:start + step] = k.reshape(-1, order)
        inverses = self.table == self.identity_index
        _raise_first(inverses.sum(axis=1) != 1,
                     "element {} has no unique inverse")
        self.inverse = inverses.argmax(axis=1)

        self.fiber_elements = None
        if fiber_elements is not None:
            fibs = [np.atleast_2d(np.asarray(m, dtype=float))
                    for m in fiber_elements]
            if len(fibs) != order:
                raise ValueError("fiber_elements must match the element list")
            fibs = _orthogonal_stack(fibs, fibs[0].shape[0], "fiber element",
                                     "fiber element {} is not square")
            # The Frobenius norm bounds the spectral norm, which is taken
            # only where the bound exceeds the tolerance.
            diff = fibs[:, None] @ fibs - fibs[self.table]
            residual = np.sqrt((diff * diff).sum(axis=(2, 3)))
            loose = residual > _TOL_GROUP
            residual[loose] = np.linalg.norm(diff[loose], 2, axis=(1, 2))
            _raise_first(residual > _TOL_GROUP, "fiber elements do not follow "
                         "the multiplication table at ({}, {})")
            self.fiber_elements = fibs

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def conjugate_subgroup(self, subgroup, t: int) -> tuple[int, ...]:
        """Index set of t H t^-1."""
        t_inv = int(self.inverse[t])
        return tuple(sorted(self.multiply(self.multiply(t, h), t_inv)
                            for h in subgroup))

    def to_json(self) -> dict:
        out = {"n": self.n, "elements": self.elements.tolist()}
        if self.fiber_elements is not None:
            out["fiber_elements"] = self.fiber_elements.tolist()
        return out


def _raise_first(bad, message: str) -> None:
    """Raise ``message`` formatted with the indices of the first true
    entry of ``bad`` in row-major order, if there is one."""
    off = np.argwhere(bad)
    if off.size:
        raise ValueError(message.format(*off[0]))


def _orthogonal_stack(mats, size: int, what: str,
                      shape_error: str) -> np.ndarray:
    """Stack ``mats``, raising at the first that is not ``size x size``,
    then at the first that is not orthogonal."""
    _raise_first([m.shape != (size, size) for m in mats], shape_error)
    mats = np.stack(mats)
    defect = _symmetric_norm(mats @ mats.transpose(0, 2, 1) - np.eye(size))
    _raise_first(~(defect <= _TOL_GROUP), f"{what} {{}} is not orthogonal")
    return mats


def _symmetric_norm(mats: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a stack ``(..., m, m)`` that is
    symmetric by construction: its largest |eigenvalue|, from one batched
    ``eigvalsh`` that reads the lower triangle.  NaN where an entry is
    not finite."""
    norms = np.abs(np.linalg.eigvalsh(mats)).max(axis=-1, initial=0.0)
    return np.where(np.isfinite(mats).all(axis=(-2, -1)), norms, np.nan)


def stabilizer(g: FiniteGroupAction, x, tol: float = TOL_CHECK
               ) -> tuple[int, ...]:
    """Indices of the elements fixing x, verified subgroup-closed: the
    one-point case of the stabilizer table."""
    classes, _ = _stabilizer_table(g, np.asarray(x, dtype=float)[None], tol)
    return classes[0]


def _stabilizer_table(g: FiniteGroupAction, pts: np.ndarray, tol: float
                      ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct stabilizers of the rows of ``pts``, in order of first
    appearance, and the position in that list of each point's.

    Element i fixes point p when ``|g_i p - p| <= tol``.  Each distinct
    stabilizer is checked for closure under the group table once, at the
    first point that has it, so a failure names the first such point.
    """
    fixes = np.linalg.norm(g.elements @ pts.T - pts.T, axis=1) <= tol
    _, first, inverse = np.unique(fixes.T, axis=0, return_index=True,
                                  return_inverse=True)
    by_appearance = np.argsort(first)
    classes = []
    for p in first[by_appearance].tolist():
        members = np.flatnonzero(fixes[:, p])
        if not np.isin(g.table[np.ix_(members, members)], members).all():
            raise ValueError(
                f"stabilizer of {pts[p].tolist()} is not closed under the "
                "group table; the tolerance is too loose or too tight")
        classes.append(tuple(members.tolist()))
    return classes, np.argsort(by_appearance)[inverse.reshape(-1)]


def conjugacy_label(g: FiniteGroupAction, subgroup) -> tuple[int, ...]:
    """The orbit type of a stabilizer: the sorted element indices of its
    lexicographically least conjugate."""
    # Conjugating by the identity gives the sorted subgroup itself.
    return min(g.conjugate_subgroup(subgroup, t) for t in range(g.order))


def fixed_subspace(g: FiniteGroupAction, subgroup, use_fiber: bool = False,
                   tol: float = TOL_CHECK) -> Subspace:
    """Fixed space of a subgroup by averaging its matrices; the average
    of an orthogonal subgroup is the orthogonal projection onto the
    fixed vectors."""
    subgroup = sorted(set(int(i) for i in subgroup))
    if not subgroup:
        raise ValueError("subgroup must be nonempty")
    mats = g.fiber_elements if use_fiber else g.elements
    if mats is None:
        raise ValueError("group carries no fiber action")
    avg = sum(mats[i] for i in subgroup) / len(subgroup)
    if np.linalg.norm(avg @ avg - avg, 2) > max(tol, 1e-9):
        raise ValueError(
            "averaging did not produce an idempotent; the index set is not "
            "closed under multiplication")
    return span(avg.T, avg.shape[0], tol_abs=1e-10)


def orbit_type_partition(g: FiniteGroupAction, points, r_cc: float = R_CC,
                         tol: float = TOL_CHECK) -> LabelPartition:
    """Group points by the conjugacy class of their stabilizers and split
    each class into connected components at radius ``r_cc``.

    The closure order of the emitted stratification is declared by the
    containment heuristic (a stratum with a strictly larger stabilizer
    class lies below one whose class embeds into it, when their clouds
    come within ``r_cc``); audit it with ``check_frontier``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _partition_by_stabilizer(g, pts, *_stabilizer_table(g, pts, tol),
                                    r_cc)


def _partition_by_stabilizer(g: FiniteGroupAction, pts: np.ndarray,
                             classes, of_point: np.ndarray, r_cc: float,
                             within=None) -> LabelPartition:
    """``orbit_type_partition`` for points whose stabilizer table is
    known: point p has stabilizer ``classes[of_point[p]]``.  Points are
    labelled by (``within[p]``, orbit type), so the strata refine the
    partition ``within`` gives; the names stay ``type{t}_c{j}``, j
    counting the components of type t by smallest member."""
    label_of = [conjugacy_label(g, stab) for stab in classes]
    labels = [label_of[c] for c in of_point.tolist()]
    distinct = sorted(set(labels), key=lambda lab: (-len(lab), lab))
    dims = {label: fixed_subspace(g, label).dim for label in distinct}
    return partition_by_label(
        pts, labels, [(f"type{t}", label) for t, label in enumerate(distinct)],
        dim=lambda label, cloud: dims[label],
        below=lambda low, high: _class_properly_contains(g, low, high),
        r_cc=r_cc, **({} if within is None else {"within": within}))


def _class_properly_contains(g: FiniteGroupAction, big: tuple[int, ...],
                             small: tuple[int, ...]) -> bool:
    """True when some conjugate of `small` is a proper subgroup of `big`."""
    if len(small) >= len(big):
        return False
    big_set = set(big)
    return any(set(g.conjugate_subgroup(small, t)) <= big_set
               for t in range(g.order))


def _point_permutations(g: FiniteGroupAction, pts: np.ndarray,
                        tol: float) -> np.ndarray:
    """``[i, p]``: the sample point that element i carries point p to;
    raises if the set is not orbit saturated."""
    n = len(pts)
    # Each image is matched to its nearest sample point within tol, ties
    # going to the lowest index; -1 marks an image with none.
    match = np.full(g.order * n, -1)
    images = np.concatenate([pts @ m.T for m in g.elements])
    for i, j, d in near_pairs(images, pts, tol):
        order = np.lexsort((j, d, i))
        nearest = order[np.flatnonzero(np.diff(i[order], prepend=-1))]
        match[i[nearest]] = j[nearest]
    perms = match.reshape(g.order, n)
    # Sorted rows: an image off the sample set leads its row with -1,
    # two images on one sample point are equal neighbours.
    ordered = np.sort(perms, axis=1)
    off = ordered[:, 0] < 0
    bad = off | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if off[i]:
            raise ValueError(
                f"sample set is not orbit saturated: element {i} moves point "
                f"{pts[np.argmax(perms[i] < 0)].tolist()} off the sample set")
        raise ValueError(
            f"element {i} collapses distinct sample points; the matching "
            "tolerance is coarser than the sample spacing")
    return perms


def _stratum_orbits(base: Stratification, perms: np.ndarray) -> np.ndarray:
    """Each stratum's orbit under the group, as the smallest stratum
    index in it, for the permutations ``perms`` of the stacked points.
    The strata must be permuted by the group:
    :class:`StrataNotInvariantError` at the first element (then point)
    that carries a stratum into more than one."""
    owner = base._owner
    first = np.searchsorted(owner, np.arange(len(base.strata)))
    moved = owner[perms]
    onto = moved[:, first]  # [i, s]: the stratum element i carries s into
    off = np.argwhere(moved != onto[:, owner])
    if off.size:
        i, p = off[0]
        names = [base.strata[s].name for s in (owner[p], onto[i, owner[p]],
                                              moved[i, p])]
        raise StrataNotInvariantError(
            "strata are not invariant under the group: element {} carries "
            "stratum {!r} into both {!r} and {!r}".format(i, *names))
    # The elements form a group, so the orbit of s is column s of onto.
    return onto.min(axis=0)


def _equivariant_samples(g: FiniteGroupAction, b: SampledStratifiedBundle,
                         tol: float, task: str, message: str):
    """The base's stacked points, each element's permutation of them and
    the ``_stratum_orbits`` of the base, once ``g`` is shown to permute
    the strata and to carry a fiber action on ``b``'s spaces that is
    equivariant: ``message.format(i=, key=, gap=)`` is raised at the first
    fiber (elements in order, then points) that element ``i`` carries
    farther than ``tol`` from the fiber over the image point."""
    if g.fiber_elements is None:
        raise ValueError(f"{task} needs a fiber action")
    if g.n != b.base.ambient_dim:
        raise ValueError(f"group acts on R^{g.n}, but the bundle base lies "
                         f"in R^{b.base.ambient_dim}")
    k = g.fiber_elements.shape[1]
    if k != b.fiber_ambient:
        raise ValueError(f"fiber elements are {k} x {k}, but the bundle "
                         f"fibers lie in R^{b.fiber_ambient}")
    pts = b.base._cloud
    perms = _point_permutations(g, pts, tol)
    orbit = _stratum_orbits(b.base, perms)
    gaps = _equivariance_gaps(g, b, perms)
    off = np.argwhere(gaps > tol)
    if off.size:
        i, p = off[0]
        raise ValueError(message.format(i=i, key=b.point_keys()[p],
                                        gap=gaps[i, p]))
    return pts, perms, orbit


def _equivariance_gaps(g: FiniteGroupAction, b: SampledStratifiedBundle,
                       perms) -> np.ndarray:
    """``[i, p]``: gap between the image under element ``i`` of the fiber
    over point ``p``, of projection M P M^T, and the fiber over the image
    point."""
    proj = np.concatenate([stack.swapaxes(1, 2) @ stack
                           for stack in b.stacks.values()])
    fibs = g.fiber_elements[:, None]
    return _symmetric_norm(fibs @ proj @ fibs.swapaxes(2, 3) - proj[perms])


def _gather_stacks(base: Stratification, members,
                   bases: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
    """Each stratum's stack of the ``bases[p]`` of its ``members`` p, in
    order; ValueError at its first point of another rank than its first."""
    stacks = {}
    for s, local in zip(base.strata, members):
        ranks = [len(bases[p]) for p in local]
        if j := next((j for j, r in enumerate(ranks) if r != ranks[0]), 0):
            raise ValueError(
                f"fiber over {(s.name, j)} has rank {ranks[j]}, the fiber "
                f"over {(s.name, 0)} has rank {ranks[0]}")
        stacks[s.name] = np.stack([bases[p] for p in local])
    return stacks


def invariant_subbundle(g: FiniteGroupAction, b: SampledStratifiedBundle,
                        tol: float = TOL_CHECK,
                        r_cc: float = R_CC) -> SampledStratifiedBundle:
    """Shrink each fiber to its stabilizer-invariant part and restratify
    the base by orbit type within each base stratum.

    Requires a fiber action, an orbit-saturated base sample set whose
    strata the group permutes, and equivariance: the fiber matrices must
    carry the fiber over x onto the fiber over g.x within ``tol``.
    Because of equivariance every fiber over one stabilizer class shares
    the class's fixed space, so the fibers of each (class, base stratum)
    are intersected with it as one stack (:func:`grassmann.intersections`),
    or kept as they are where it is the whole fiber space.  Each
    orbit-type stratum lies in one base stratum.  Invariant fibers that
    differ in rank over one orbit-type stratum (sampling or equivariance
    is off) raise ValueError; each stratum's rank is that of its stack.
    """
    pts, _, _ = _equivariant_samples(
        g, b, tol, "building the invariant subbundle",
        "bundle is not equivariant: element {i} maps the fiber over {key} "
        "with gap {gap:.3e}")

    classes, of_point = _stabilizer_table(g, pts, tol)
    partition = _partition_by_stabilizer(g, pts, classes, of_point, r_cc,
                                         b.base._owner)
    invariant = [fixed_subspace(g, stab, use_fiber=True) for stab in classes]
    bases = [None] * len(pts)
    start = 0
    for stack in b.stacks.values():
        stop = start + len(stack)
        here = of_point[start:stop]
        for c in _distinct(here).tolist():
            rows = np.flatnonzero(here == c)
            found = (stack[rows] if invariant[c].dim == b.fiber_ambient
                     else intersections(stack[rows], invariant[c], tol))
            for p, basis in zip((start + rows).tolist(), found):
                bases[p] = basis
        start = stop
    base = partition.stratification
    return SampledStratifiedBundle.from_stacks(
        base, b.fiber_ambient, _gather_stacks(base, partition.members, bases),
        tol_ortho=None)


def _orbit_representatives(pts: np.ndarray, perms: np.ndarray
                           ) -> np.ndarray:
    """The lexicographically least point of each orbit, the lowest index
    among equal ones, as ascending indices.  The elements form a group,
    so the orbit of point p is column p of the permutations ``perms``."""
    order = np.lexsort(pts.T[::-1])
    return _distinct(order[_inverse(order)[perms].min(axis=0)])


def quotient_bundle(g: FiniteGroupAction, tilde: SampledStratifiedBundle,
                    tol: float = TOL_CHECK,
                    r_cc: float = R_CC) -> SampledStratifiedBundle:
    """Collapse each orbit of the base to its canonical representative
    (lexicographically smallest point), keeping its invariant fiber.

    The fiber action must carry the fiber over x onto the fiber over g.x
    within ``tol`` across every orbit, so the representative fiber is
    well defined.  The group must permute the strata of ``tilde``; the
    quotient strata are cut by orbit type within each orbit of them.
    """
    pts, perms, orbit = _equivariant_samples(
        g, tilde, tol, "quotient",
        "representative fiber mismatch across an orbit: element {i} at "
        "{key} has gap {gap:.3e}")

    reps = _orbit_representatives(pts, perms).tolist()
    at = pts[reps]
    partition = _partition_by_stabilizer(
        g, at, *_stabilizer_table(g, at, tol), r_cc,
        orbit[tilde.base._owner[reps]])
    renamed = Stratification(
        [Stratum(f"{s.name}/G", s.dim, s.points)
         for s in partition.stratification.strata],
        closure_order=[(f"{a}/G", f"{b}/G")
                       for a, b in partition.stratification.closure_order])
    bases = [basis for stack in tilde.stacks.values() for basis in stack]
    return SampledStratifiedBundle.from_stacks(
        renamed, tilde.fiber_ambient,
        _gather_stacks(renamed, partition.members, [bases[p] for p in reps]),
        tol_ortho=None)


@dataclass(frozen=True)
class TangentComparison:
    """Quotient-bundle ranks against the ranks of the stratified tangent
    of the quotient base (which are the stratum dimensions)."""

    per_stratum: tuple[tuple[str, int, int], ...]  # (name, rank, tangent rank)
    isomorphic: bool


def tangent_comparison(quotient: SampledStratifiedBundle) -> TangentComparison:
    rows = tuple((s.name, quotient.stratum_rank[s.name], s.dim)
                 for s in quotient.base.strata)
    return TangentComparison(per_stratum=rows,
                             isomorphic=all(r == d for _, r, d in rows))


@dataclass(frozen=True)
class CircleActionReport:
    """Closed-form rank table for the rotation action on the plane."""

    quotient_ranks: dict
    tangent_ranks: dict
    isomorphic: bool


def circle_action_on_plane_report() -> CircleActionReport:
    """The full rotation group acting on R^2 with its tangent bundle.

    Stabilizers are known in closed form (everything at the origin,
    nothing elsewhere), so the invariant fiber at the origin is the fixed
    space of the whole rotation group, computed as the kernel of
    R(1 rad) - I, and the fiber elsewhere is all of R^2.  The quotient
    base is a half line: a point class of dimension 0 and a ray class of
    dimension dim(R^2) - dim(orbit) = 1.
    """
    theta = 1.0
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    defect = rotation - np.eye(2)
    sigma = np.linalg.svd(defect, compute_uv=False)
    kernel_dim = int(np.sum(sigma <= 1e-12))
    origin_rank = kernel_dim              # invariant part of the origin fiber
    generic_rank = 2                      # trivial stabilizer keeps everything
    origin_dim = 0
    generic_dim = 2 - 1                   # plane minus circle-orbit dimension
    quotient_ranks = {"origin": origin_rank, "generic": generic_rank}
    tangent_ranks = {"origin": origin_dim, "generic": generic_dim}
    return CircleActionReport(
        quotient_ranks=quotient_ranks,
        tangent_ranks=tangent_ranks,
        isomorphic=quotient_ranks == tangent_ranks)
