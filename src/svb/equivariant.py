"""Finite orthogonal group actions on sampled spaces and bundles.

A group is a finite stack of orthogonal matrices closed under products;
everything downstream is brute force over the multiplication table:
stabilizers, conjugacy classes of subgroups, orbit-type stratifications,
and fixed subspaces via averaging.  ``invariant_subbundle`` shrinks an
equivariant bundle to the stabilizer-invariant part of each fiber and
``quotient_bundle`` pushes the result down to one fiber per orbit.  The
equivariance audit needs no rank decision: an orthogonal fiber matrix M
carries the fiber with projection P onto the one with projection M P M^T.

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
from .grassmann import Subspace, intersection, span
from .strata import (
    LabelPartition,
    Stratification,
    Stratum,
    graph_components,
    near_pairs,
    partition_by_label,
)

__all__ = [
    "FiniteGroupAction",
    "OrbitTypeLabel",
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
        for i in range(order):
            # matches[j, k]: the product of elements i and j is element k.
            matches = np.abs((mats[i] @ mats)[:, None] - mats).max(
                axis=(2, 3)) <= _TOL_GROUP
            _raise_first(matches.sum(axis=1) != 1,
                         f"product of elements {i} and {{}} is not in the group")
            self.table[i] = matches.argmax(axis=1)
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
            residual = np.linalg.norm(fibs[:, None] @ fibs - fibs[self.table],
                                      2, axis=(2, 3))
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

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroupAction":
        return cls(obj["n"], obj["elements"], obj.get("fiber_elements"))


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
    defect = np.linalg.norm(mats @ mats.transpose(0, 2, 1) - np.eye(size), 2,
                            axis=(1, 2))
    _raise_first(defect > _TOL_GROUP, f"{what} {{}} is not orthogonal")
    return mats


@dataclass(frozen=True)
class OrbitTypeLabel:
    """Conjugacy class of a stabilizer, keyed by its lexicographically
    minimal conjugate's sorted element indices."""

    indices: tuple[int, ...]

    def __len__(self):
        return len(self.indices)


def stabilizer(g: FiniteGroupAction, x, tol: float = TOL_CHECK
               ) -> tuple[int, ...]:
    """Indices of the elements fixing x, verified subgroup-closed."""
    x = np.asarray(x, dtype=float)
    members = np.flatnonzero(np.linalg.norm(g.elements @ x - x, axis=1) <= tol)
    if not np.isin(g.table[np.ix_(members, members)], members).all():
        raise ValueError(
            f"stabilizer of {x.tolist()} is not closed under the group "
            "table; the tolerance is too loose or too tight")
    return tuple(members.tolist())


def conjugacy_label(g: FiniteGroupAction, subgroup) -> OrbitTypeLabel:
    # Conjugating by the identity gives the sorted subgroup itself.
    return OrbitTypeLabel(min(g.conjugate_subgroup(subgroup, t)
                              for t in range(g.order)))


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
    return _partition_by_stabilizer(g, pts, [stabilizer(g, p, tol)
                                             for p in pts], r_cc)


def _partition_by_stabilizer(g: FiniteGroupAction, pts: np.ndarray, stabs,
                             r_cc: float) -> LabelPartition:
    """``orbit_type_partition`` for points whose stabilizers are known."""
    label_of = {stab: conjugacy_label(g, stab) for stab in dict.fromkeys(stabs)}
    labels = [label_of[stab] for stab in stabs]
    distinct = sorted(set(labels), key=lambda lab: (-len(lab), lab.indices))
    dims = {label: fixed_subspace(g, label.indices).dim for label in distinct}
    return partition_by_label(
        pts, labels, [(f"type{t}", label) for t, label in enumerate(distinct)],
        dim=lambda label, cloud: dims[label],
        below=lambda low, high: _class_properly_contains(g, low, high),
        r_cc=r_cc)


def _class_properly_contains(g: FiniteGroupAction, big: OrbitTypeLabel,
                             small: OrbitTypeLabel) -> bool:
    """True when some conjugate of `small` is a proper subgroup of `big`."""
    if len(small) >= len(big):
        return False
    big_set = set(big.indices)
    return any(set(g.conjugate_subgroup(small.indices, t)) <= big_set
               for t in range(g.order))


def _point_permutations(g: FiniteGroupAction, pts: np.ndarray,
                        tol: float) -> list[np.ndarray]:
    """For each group element, the induced permutation of the sample set;
    raises if the set is not orbit saturated."""
    n = len(pts)
    # Each image is matched to its nearest sample point within tol, ties
    # going to the lowest index; -1 marks an image with none.
    match = np.full(g.order * n, -1)
    images = np.concatenate([pts @ m.T for m in g.elements])
    for i, j, d in near_pairs(images, pts, tol):
        order = np.lexsort((j, d, i))
        nearest = order[np.unique(i[order], return_index=True)[1]]
        match[i[nearest]] = j[nearest]
    perms = []
    for i, perm in enumerate(match.reshape(g.order, n)):
        off = np.flatnonzero(perm < 0)
        if off.size:
            raise ValueError(
                f"sample set is not orbit saturated: element {i} moves "
                f"point {pts[off[0]].tolist()} off the sample set")
        if len(set(perm.tolist())) != n:
            raise ValueError(
                f"element {i} collapses distinct sample points; the matching "
                "tolerance is coarser than the sample spacing")
        perms.append(perm)
    return perms


def _equivariant_samples(g: FiniteGroupAction, b: SampledStratifiedBundle,
                         tol: float, task: str, message: str):
    """Sample keys, points and each element's permutation of the points,
    once ``g`` is shown to carry a fiber action on ``b``'s spaces that is
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
    keys = b.point_keys()
    pts = np.array([b.point(key) for key in keys])
    perms = _point_permutations(g, pts, tol)
    gaps = _equivariance_gaps(g, b, keys, perms)
    off = np.argwhere(gaps > tol)
    if off.size:
        i, p = off[0]
        raise ValueError(message.format(i=i, key=keys[p], gap=gaps[i, p]))
    return keys, pts, perms


def _equivariance_gaps(g: FiniteGroupAction, b: SampledStratifiedBundle,
                       keys, perms) -> np.ndarray:
    """``[i, p]``: gap between the image under element ``i`` of the fiber
    over ``keys[p]``, of projection M P M^T, and the fiber over the image
    point."""
    proj = np.stack([b.fiber(key).projection for key in keys])
    return np.stack([np.linalg.norm(m @ proj @ m.T - proj[perm], 2,
                                    axis=(1, 2))
                     for m, perm in zip(g.fiber_elements, perms)])


def _constant_ranks(base: Stratification, fibers, message: str) -> dict:
    """Fiber rank per stratum; raises ``message.format(ranks=, name=)``
    at the first stratum where it varies."""
    ranks = {}
    for stratum in base.strata:
        dims = {fibers[(stratum.name, i)].dim for i in range(len(stratum))}
        if len(dims) != 1:
            raise ValueError(message.format(ranks=sorted(dims),
                                            name=stratum.name))
        ranks[stratum.name] = dims.pop()
    return ranks


def invariant_subbundle(g: FiniteGroupAction, b: SampledStratifiedBundle,
                        tol: float = TOL_CHECK,
                        r_cc: float = R_CC) -> SampledStratifiedBundle:
    """Shrink each fiber to its stabilizer-invariant part and restratify
    the base by orbit type.

    Requires a fiber action, an orbit-saturated base sample set, and
    equivariance: the fiber matrices must carry the fiber over x onto the
    fiber over g.x within ``tol``.  Per-stratum rank constancy of the
    result is verified and violations raise.
    """
    keys, pts, _ = _equivariant_samples(
        g, b, tol, "building the invariant subbundle",
        "bundle is not equivariant: element {i} maps the fiber over {key} "
        "with gap {gap:.3e}")

    stabs = [stabilizer(g, p, tol) for p in pts]
    partition = _partition_by_stabilizer(g, pts, stabs, r_cc)
    invariant = {stab: fixed_subspace(g, stab, use_fiber=True)
                 for stab in dict.fromkeys(stabs)}
    new_fibers = {partition.point_to_key[p]: intersection(
        b.fiber(key), invariant[stab], tol=tol)
        for p, (key, stab) in enumerate(zip(keys, stabs))}

    ranks = _constant_ranks(
        partition.stratification, new_fibers,
        "invariant fibers have non-constant rank {ranks} on stratum "
        "{name!r}; sampling or equivariance is off")
    return SampledStratifiedBundle(partition.stratification, b.fiber_ambient,
                                   new_fibers, ranks)


def quotient_bundle(g: FiniteGroupAction, tilde: SampledStratifiedBundle,
                    tol: float = TOL_CHECK,
                    r_cc: float = R_CC) -> SampledStratifiedBundle:
    """Collapse each orbit of the base to its canonical representative
    (lexicographically smallest point), keeping its invariant fiber.

    The fiber action must carry the fiber over x onto the fiber over g.x
    within ``tol`` across every orbit, so the representative fiber is
    well defined.
    """
    keys, pts, perms = _equivariant_samples(
        g, tilde, tol, "quotient",
        "representative fiber mismatch across an orbit: element {i} at "
        "{key} has gap {gap:.3e}")

    orbits = graph_components(len(pts),
                              [(np.arange(len(pts)), perm) for perm in perms])
    reps = sorted(min(members, key=lambda p: tuple(pts[p]))
                  for members in orbits)

    partition = orbit_type_partition(g, pts[reps], r_cc=r_cc, tol=tol)
    renamed = Stratification(
        [Stratum(f"{s.name}/G", s.dim, s.points)
         for s in partition.stratification.strata],
        closure_order=[(f"{a}/G", f"{b}/G")
                       for a, b in partition.stratification.closure_order])
    new_fibers = {}
    for local, rep in enumerate(reps):
        name, j = partition.point_to_key[local]
        new_fibers[(f"{name}/G", j)] = tilde.fiber(keys[rep])
    ranks = _constant_ranks(
        renamed, new_fibers,
        "quotient fibers have non-constant rank {ranks} on stratum {name!r}")
    return SampledStratifiedBundle(renamed, tilde.fiber_ambient, new_fibers,
                                   ranks)


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
