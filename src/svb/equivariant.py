"""Finite orthogonal group actions on sampled spaces and bundles.

A group is a finite stack of orthogonal matrices closed under products,
with its multiplication table.  Sample points are handled per
stabilizer class, not one at a time: one ``(order, n)`` table records
which elements fix which points, and each distinct column (one stable
sort finds them) is one stabilizer, checked once for closure under the
table.  The conjugates t H t^-1 of a class, for every t at once, are one
gather in the group table, taken once per class: the orbit type is
their least row, and one such table per orbit type decides which types
lie below which.  The average over a closed subgroup H is the
projection onto its fixed space, so that space's dimension is the trace
(1/|H|) sum of tr h, with no rank threshold.

``invariant_subbundle`` shrinks an equivariant bundle to the
stabilizer-invariant part of each fiber, with no rank threshold (see
there), and ``quotient_bundle`` pushes the result down to one fiber per
orbit.  The equivariance audit needs no rank decision either: an
orthogonal fiber matrix M carries the fiber with projection P onto the
one with projection M P M^T, and the spectral norm of M P M^T - Q, like
those of the group's own orthogonality and table checks, is only
compared with a tolerance, so each goes through the Frobenius screen
``grassmann._spectral_norms``.

The permutation each element induces on the sample points comes from
the images of a generating set alone where that can be shown exact
(``_generated_permutations``), and from matching every element's images
elsewhere.

Infinite rotation groups are not first class.  On the plane, Z_N
(N >= 2) fixes what the circle fixes, 0 alone at the origin, and acts
freely elsewhere, so it gives the circle's invariant ranks; the orbit
dimension its quotient strata lack is the rank of the rotation field
(``foliation.distribution_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import SampledStratifiedBundle, _gather_stacks
from .config import R_CC, TOL_CHECK
from .functors import _chunks
from .grassmann import (Subspace, _check_positive, _distinct, _integer,
                        _spectral_norms)
from .strata import (
    LabelPartition,
    Stratification,
    Stratum,
    _inverse,
    _lengths,
    _nearest_within,
    _samples,
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
]


_TOL_GROUP = 1e-9  # bound on orthogonality defects, matches, fiber table


class StrataNotInvariantError(ValueError):
    """A group element carries a base stratum into more than one."""


class FiniteGroupAction:
    """A finite group of orthogonal n x n matrices, with an optional
    matching list of orthogonal fiber matrices (same multiplication
    table) acting on a bundle's ambient fiber space, both held as
    stacked ``(order, n, n)`` and ``(order, k, k)`` arrays."""

    def __init__(self, n: int, elements: Sequence, fiber_elements=None):
        self.n = _integer("n", n, 1)
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
        # Rows i of the table in ``_chunks``, n * n entries per (product,
        # element) pair.  For orthogonal A and B,
        # <A, B>_F = n - |A - B|_F^2 / 2: a match (every entry within
        # _TOL_GROUP) has <A, B>_F > n - 1/2, and below that some entry
        # differs by 1/n or more.  So the exact entry test runs on the
        # pairs above n - 1/2 alone.
        flat = mats.reshape(order, -1)
        for rows in _chunks(order, order * order * self.n * self.n):
            # Row q of prods: the product of elements rows.start + q // order
            # and q % order.
            prods = (mats[rows, None] @ mats).reshape(-1, flat.shape[1])
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
                raise ValueError(f"product of elements {rows.start + i} "
                                 f"and {j} is not in the group")
            self.table[rows] = k.reshape(-1, order)
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
            residual = _spectral_norms(fibs[:, None] @ fibs - fibs[self.table],
                                       _TOL_GROUP)
            _raise_first(residual > _TOL_GROUP, "fiber elements do not follow "
                         "the multiplication table at ({}, {})")
            self.fiber_elements = fibs

    @property
    def order(self) -> int:
        return len(self.elements)

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
    then at the first that is not orthogonal, quietly on overflow."""
    _raise_first([m.shape != (size, size) for m in mats], shape_error)
    mats = np.stack(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _spectral_norms(
            mats @ mats.transpose(0, 2, 1) - np.eye(size), _TOL_GROUP)
    _raise_first(~(defect <= _TOL_GROUP), f"{what} {{}} is not orthogonal")
    return mats


def stabilizer(g: FiniteGroupAction, x, tol: float = TOL_CHECK
               ) -> tuple[int, ...]:
    """Indices of the elements fixing x, verified subgroup-closed: the
    one-point case of the stabilizer table."""
    _check_positive("tol", tol)
    classes, _ = _stabilizer_table(g, _samples([x], g.n), tol)
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
    # A stable sort of the points by their columns of ``fixes``: each run
    # of equal columns is one stabilizer, led by the first point with it.
    order = np.lexsort(fixes)
    run = np.ones(len(order), dtype=bool)
    np.not_equal(fixes[:, order[1:]], fixes[:, order[:-1]]).any(
        axis=0, out=run[1:])
    first = order[run]
    by_appearance = np.argsort(first)
    classes = []
    for p in first[by_appearance].tolist():
        members = np.flatnonzero(fixes[:, p])
        if not _closed(g, members):
            raise ValueError(
                f"stabilizer of {pts[p].tolist()} is not closed under the "
                "group table; the tolerance is too loose or too tight")
        classes.append(tuple(members.tolist()))
    of_point = np.empty(len(order), dtype=np.intp)
    of_point[order] = _inverse(by_appearance)[np.cumsum(run) - 1]
    return classes, of_point


def _closed(g: FiniteGroupAction, members) -> bool:
    """Whether the indices ``members``, each in range(order), are closed
    under the group table."""
    m = np.asarray(members)
    member = np.bincount(m, minlength=g.order) > 0
    return bool(member[g.table[m[:, None], m]].all())


def _conjugates(g: FiniteGroupAction, subgroup) -> np.ndarray:
    """``[t]``: the sorted element indices of t H t^-1, for every element
    t, gathered from the group table."""
    h = np.asarray(subgroup, dtype=np.intp)
    return np.sort(g.table[g.table[:, h], g.inverse[:, None]], axis=1)


def _subgroup(g: FiniteGroupAction, subgroup) -> list[int]:
    """The distinct element indices of ``subgroup``, ascending: integers
    by ``_integer``'s rule (no bool, no float) in range(order), the set
    nonempty and closed under the group table."""
    members = sorted({_integer("subgroup index", i) for i in subgroup})
    if not members:
        raise ValueError("subgroup must be nonempty")
    if members[0] < 0:
        raise ValueError(f"subgroup index {members[0]} is negative")
    if members[-1] >= g.order:
        raise ValueError(f"subgroup index {members[-1]} is not below the "
                         f"group order {g.order}")
    if not _closed(g, members):
        raise ValueError(f"set {members} is not closed under the group table")
    return members


def _orbit_type(conjugates: np.ndarray) -> tuple[int, ...]:
    """The least row of a subgroup's ``_conjugates``: its orbit type."""
    return min(map(tuple, conjugates.tolist()))


def conjugacy_label(g: FiniteGroupAction, subgroup) -> tuple[int, ...]:
    """The orbit type of a subgroup: the sorted element indices of its
    lexicographically least conjugate."""
    return _orbit_type(_conjugates(g, _subgroup(g, subgroup)))


def fixed_subspace(g: FiniteGroupAction, subgroup,
                   use_fiber: bool = False) -> Subspace:
    """Fixed space of a subgroup.  The average is the projection onto it:
    its trace is the dimension, its top right-singular vectors a basis."""
    subgroup = _subgroup(g, subgroup)
    mats = g.fiber_elements if use_fiber else g.elements
    if mats is None:
        raise ValueError("group carries no fiber action")
    avg = sum(mats[i] for i in subgroup) / len(subgroup)
    vh = np.linalg.svd(avg.T, full_matrices=False)[2]
    return Subspace(len(avg), vh[:round(np.trace(avg))])


def orbit_type_partition(g: FiniteGroupAction, points, r_cc: float = R_CC,
                         tol: float = TOL_CHECK) -> LabelPartition:
    """Group points by the conjugacy class of their stabilizers and split
    each class into connected components at radius ``r_cc``.

    The closure order of the emitted stratification is declared by the
    containment heuristic (a stratum with a strictly larger stabilizer
    class lies below one whose class embeds into it, when their clouds
    come within ``r_cc``); audit it with ``check_frontier``.  Points go
    through ``strata._samples`` in R^n, as x does in ``stabilizer``.
    """
    _check_positive("tol", tol)
    pts = _samples(points, g.n)
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
    tables = [_conjugates(g, stab) for stab in classes]
    label_of = [_orbit_type(table) for table in tables]
    table_of = dict(zip(label_of, tables))  # one table per orbit type
    distinct = sorted(table_of, key=lambda lab: (-len(lab), lab))
    index = {label: t for t, label in enumerate(distinct)}
    below = _proper_containment(g, [table_of[lab] for lab in distinct])
    dims = {label: round(np.trace(g.elements[list(label)], axis1=1,
                                  axis2=2).mean()) for label in distinct}
    return partition_by_label(
        pts, [label_of[c] for c in of_point.tolist()],
        [(f"type{t}", label) for t, label in enumerate(distinct)],
        dim=lambda label, cloud: dims[label],
        below=lambda low, high: bool(below[index[low], index[high]]),
        r_cc=r_cc, within=within)


def _proper_containment(g: FiniteGroupAction, conjugates) -> np.ndarray:
    """``[b, s]``: whether a conjugate of subgroup s is a proper subgroup
    of subgroup b, from their ``_conjugates`` tables.  Any row of b's
    table stands for b: conjugating b as well changes nothing."""
    member = np.array([np.bincount(table[0], minlength=g.order) > 0
                       for table in conjugates])
    size = member.sum(axis=1)
    return np.stack([member[:, table].all(axis=2).any(axis=1)
                     for table in conjugates], axis=1) & (size[:, None] > size)


def _images(pts: np.ndarray, mats) -> np.ndarray:
    """The images of ``pts`` under each matrix of ``mats``, stacked: the
    one expression every route of ``_point_permutations`` matches."""
    return np.concatenate([pts @ m.T for m in mats])


def _generators(g: FiniteGroupAction) -> list[int]:
    """A generating set of ``g`` picked greedily: the lowest element not
    yet generated, then the set is closed under the table.  Empty for
    the trivial group."""
    gens, member = [], {g.identity_index}
    while len(member) < g.order:
        gens.append(min(set(range(g.order)) - member))
        member = {g.identity_index}.union(
            *(onto for onto, _, _ in _words(g, gens)))
    return gens


def _words(g: FiniteGroupAction, steps: list[int]):
    """Breadth first from the identity by right multiplication with the
    elements ``steps``: per level, the lists ``(onto, source, by)`` of the
    elements first reached there, ``onto[m]`` as ``source[m]`` times
    ``steps[by[m]]``.  A finite group needs no inverses to reach all the
    steps generate."""
    cols = g.table[:, steps].tolist()
    seen = {g.identity_index}
    onto = [g.identity_index]
    while onto:
        frontier, onto, source, by = onto, [], [], []
        for k in range(len(steps)):
            for s in frontier:
                t = cols[s][k]
                if t not in seen:
                    seen.add(t)
                    onto.append(t)
                    source.append(s)
                    by.append(k)
        if onto:
            yield onto, source, by


def _point_permutations(g: FiniteGroupAction, pts: np.ndarray,
                        tol: float) -> np.ndarray:
    """``[i, p]``: the sample point that element i carries point p to,
    the nearest sample within ``tol`` of the image, ties going to the
    lowest index; raises if the set is not orbit saturated.  The
    generator route gives it where it can show it exact, the direct match
    of every element's images, with its checks and error texts, elsewhere."""
    perms = _generated_permutations(g, pts, tol)
    return _matched_permutations(g, pts, tol) if perms is None else perms


def _generated_permutations(g: FiniteGroupAction, pts: np.ndarray,
                            tol: float):
    """``_point_permutations`` from the generators' images alone, or None
    where it cannot be shown equal to the direct match.

    One radius query at 4 tol over the images of the ``_generators``
    must find exactly one sample near each image, within tol of it, and
    each generator's row must be a permutation.  Every other row is then
    an integer gather along the table, breadth first over the generators
    and their inverses: perms[s a] = perms[s][perms[a]].  Every element's
    images are then compared with the points the rows name, by the query's
    ``_images`` and ``_lengths``: each must lie within tol.

    That makes the rows the direct match's.  Any sample q is the match of
    some generator image v, since a generator's row is onto.  A second
    sample within 2 tol of q would lie within 3 tol of v, and so within
    the query's 4 tol, which also covers the rounding of the distance;
    v has only one sample there.  So no two samples lie within 2 tol of
    each other, and the sample within tol of a verified image is the only
    one: the one the direct match picks, with no tie to break."""
    gens = _generators(g)
    if not gens:
        return None  # no generator row to space the samples by
    n = len(pts)
    images = _images(pts, (g.elements[a] for a in gens))
    found, total = [], 0
    for i, j, d in near_pairs(images, pts, 4.0 * tol):
        total += len(i)
        if total > len(images):
            return None  # some image has two samples within 4 tol
        found.append((i, j, d))
    if not found or total < len(images):
        return None
    i, j, d = map(np.concatenate, zip(*found))
    match = np.full(len(images), -1)
    match[i] = j
    rows = match.reshape(len(gens), n)
    if (match < 0).any() or d.max() > tol or (
            np.sort(rows, axis=1) != np.arange(n)).any():
        return None

    perms = np.empty((g.order, n), dtype=match.dtype)
    perms[g.identity_index] = np.arange(n)
    step_rows = np.concatenate([rows, [_inverse(row) for row in rows]])
    for onto, source, by in _words(g, gens + g.inverse[gens].tolist()):
        perms[onto] = perms[np.array(source)[:, None], step_rows[by]]

    diff = _images(pts, g.elements)
    diff -= pts[perms.ravel()]
    return perms if _lengths(diff).max() <= tol else None


def _matched_permutations(g: FiniteGroupAction, pts: np.ndarray,
                          tol: float) -> np.ndarray:
    """``_point_permutations`` by matching every element's images to
    their nearest sample points within tol (``_nearest_within``)."""
    perms = _nearest_within(_images(pts, g.elements), pts,
                            tol).reshape(g.order, len(pts))
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
    moved = owner[perms]
    onto = moved[:, base._bounds[:-1]]  # [i, s]: where element i puts s
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
    gaps = _spectral_norms(_equivariance_defects(g, b, perms), tol)
    off = np.argwhere(gaps > tol)
    if off.size:
        i, p = off[0]
        raise ValueError(message.format(i=i, key=b.point_keys()[p],
                                        gap=gaps[i, p]))
    return pts, perms, orbit


def _equivariance_defects(g: FiniteGroupAction, b: SampledStratifiedBundle,
                          perms) -> np.ndarray:
    """``[i, p]``: M P M^T - Q for the projection P of the fiber over
    point ``p``, the matrix M of element ``i`` and the projection Q of
    the fiber over the image point; symmetric."""
    proj = np.concatenate([stack.swapaxes(1, 2) @ stack
                           for stack in b.stacks.values()])
    fibs = g.fiber_elements[:, None]
    return fibs @ proj @ fibs.swapaxes(2, 3) - proj[perms]


def invariant_subbundle(g: FiniteGroupAction, b: SampledStratifiedBundle,
                        tol: float = TOL_CHECK,
                        r_cc: float = R_CC) -> SampledStratifiedBundle:
    """Shrink each fiber to its stabilizer-invariant part and restratify
    the base by orbit type within each base stratum.

    Requires a fiber action, an orbit-saturated base sample set whose
    strata the group permutes, and equivariance: the fiber matrices must
    carry the fiber over x onto the fiber over g.x within ``tol``.
    Because of equivariance the stabilizer H of x carries the fiber over
    x onto itself, so the average A of H's fiber matrices (the projection
    onto their fixed space) maps it onto its invariant part.  The fibers
    of each (class, base stratum) are one stack B: the invariant part of
    each is spanned by the leading right singular vectors of B A, as many
    as ``rint(|B A|_F^2)``, from one SVD stack.  A class that fixes the
    whole fiber space, and a rank-0 stack, keep their bases as they are.
    ``tol`` decides the stabilizers, the point matching and the audit
    alone.  Each orbit-type stratum lies in one base stratum.  Invariant
    fibers that differ in rank over one orbit-type stratum (sampling or
    equivariance is off) raise ValueError; each stratum's rank is that of
    its stack.
    """
    _check_positive("tol", tol)
    pts, _, _ = _equivariant_samples(
        g, b, tol, "building the invariant subbundle",
        "bundle is not equivariant: element {i} maps the fiber over {key} "
        "with gap {gap:.3e}")

    classes, of_point = _stabilizer_table(g, pts, tol)
    partition = _partition_by_stabilizer(g, pts, classes, of_point, r_cc,
                                         b.base._owner)
    k = b.fiber_ambient
    fibs = g.fiber_elements
    averages = [sum(fibs[i] for i in stab) / len(stab) for stab in classes]
    bases = [None] * len(pts)
    bounds = b.base._bounds.tolist()
    for start, stop, stack in zip(bounds, bounds[1:], b.stacks.values()):
        here = of_point[start:stop]
        for c in _distinct(here).tolist():
            rows = np.flatnonzero(here == c)
            found = stack[rows]
            if found.shape[1] and round(np.trace(averages[c])) != k:
                # The rows of B A span the image of each fiber under A,
                # its H-fixed part, of dimension |B A|_F^2.
                image = found @ averages[c]
                ranks = np.rint((image * image).sum(axis=(1, 2)))
                vh = np.linalg.svd(image, full_matrices=False)[2]
                found = [v[:rank] for v, rank in zip(vh, ranks.astype(int))]
            for p, basis in zip((start + rows).tolist(), found):
                bases[p] = basis
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
    _check_positive("tol", tol)
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
