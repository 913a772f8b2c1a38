"""Finite orthogonal group actions on sampled spaces and bundles.

A group is a finite list of orthogonal matrices closed under products;
everything downstream is brute force over the multiplication table:
stabilizers, conjugacy classes of subgroups, orbit-type stratifications,
and fixed subspaces via averaging.  ``invariant_subbundle`` shrinks an
equivariant bundle to the stabilizer-invariant part of each fiber and
``quotient_bundle`` pushes the result down to one fiber per orbit.

Infinite rotation groups are not first class; the plane-rotation action
on R^2 ships as a closed-form fixture (``circle_action_on_plane_report``)
reproducing its quotient rank table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bundle import SampledStratifiedBundle
from .config import R_CC, TOL_CHECK
from .grassmann import Subspace, apply_linear_map, gap_distance, intersection, span
from .strata import (
    LabelPartition,
    Stratification,
    Stratum,
    distance_blocks,
    graph_components,
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


_TOL_ORTHOGONAL = 1e-9  # bound on |M M^T - I| for group and fiber elements


class FiniteGroupAction:
    """A finite group of orthogonal n x n matrices, with an optional
    matching list of orthogonal fiber matrices (same multiplication
    table) acting on a bundle's ambient fiber space."""

    def __init__(self, n: int, elements: Sequence, fiber_elements=None,
                 tol: float = 1e-9):
        self.n = int(n)
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in elements]
        if not mats:
            raise ValueError("group needs at least the identity element")
        for i, m in enumerate(mats):
            if m.shape != (self.n, self.n):
                raise ValueError(f"element {i} is not {self.n} x {self.n}")
            if np.linalg.norm(m @ m.T - np.eye(self.n), 2) > _TOL_ORTHOGONAL:
                raise ValueError(f"element {i} is not orthogonal")
        self.elements = mats
        self.tol = float(tol)
        self.identity_index = self._match(np.eye(self.n), mats, tol)
        if self.identity_index is None:
            raise ValueError("the identity matrix is missing from the group")
        order = len(mats)
        self.table = np.zeros((order, order), dtype=int)
        for i in range(order):
            for j in range(order):
                k = self._match(mats[i] @ mats[j], mats, tol)
                if k is None:
                    raise ValueError(
                        f"product of elements {i} and {j} is not in the group")
                self.table[i, j] = k
        self.inverse = np.zeros(order, dtype=int)
        for i in range(order):
            hits = np.nonzero(self.table[i] == self.identity_index)[0]
            if hits.size != 1:
                raise ValueError(f"element {i} has no unique inverse")
            self.inverse[i] = hits[0]

        self.fiber_elements = None
        if fiber_elements is not None:
            fibs = [np.atleast_2d(np.asarray(m, dtype=float))
                    for m in fiber_elements]
            if len(fibs) != order:
                raise ValueError("fiber_elements must match the element list")
            k = fibs[0].shape[0]
            for i, m in enumerate(fibs):
                if m.shape != (k, k):
                    raise ValueError(f"fiber element {i} is not square")
                if np.linalg.norm(m @ m.T - np.eye(k), 2) > _TOL_ORTHOGONAL:
                    raise ValueError(f"fiber element {i} is not orthogonal")
            for i in range(order):
                for j in range(order):
                    want = fibs[self.table[i, j]]
                    if np.linalg.norm(fibs[i] @ fibs[j] - want, 2) > tol:
                        raise ValueError(
                            "fiber elements do not follow the multiplication "
                            f"table at ({i}, {j})")
            self.fiber_elements = fibs

    @staticmethod
    def _match(candidate, mats, tol) -> Optional[int]:
        hits = [i for i, m in enumerate(mats)
                if float(np.abs(candidate - m).max()) <= tol]
        if len(hits) == 1:
            return hits[0]
        return None

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
        out = {"n": self.n, "elements": [m.tolist() for m in self.elements]}
        if self.fiber_elements is not None:
            out["fiber_elements"] = [m.tolist() for m in self.fiber_elements]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroupAction":
        return cls(obj["n"], obj["elements"], obj.get("fiber_elements"))


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
    members = tuple(i for i, m in enumerate(g.elements)
                    if float(np.linalg.norm(m @ x - x)) <= tol)
    member_set = set(members)
    for i in members:
        for j in members:
            if g.multiply(i, j) not in member_set:
                raise ValueError(
                    f"stabilizer of {x.tolist()} is not closed under the group "
                    "table; the tolerance is too loose or too tight")
    return members


def conjugacy_label(g: FiniteGroupAction, subgroup) -> OrbitTypeLabel:
    best = tuple(sorted(int(i) for i in subgroup))
    for t in range(g.order):
        candidate = g.conjugate_subgroup(subgroup, t)
        if candidate < best:
            best = candidate
    return OrbitTypeLabel(best)


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
                         tol: float = TOL_CHECK,
                         eps_adjacent: Optional[float] = None
                         ) -> LabelPartition:
    """Group points by the conjugacy class of their stabilizers and split
    each class into connected components.

    The closure order of the emitted stratification is declared by the
    containment heuristic (a stratum with a strictly larger stabilizer
    class lies below one whose class embeds into it, when their clouds
    are adjacent); audit it with ``check_frontier``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = [conjugacy_label(g, stabilizer(g, p, tol)) for p in pts]
    distinct = sorted(set(labels), key=lambda lab: (-len(lab), lab.indices))
    dims = {label: fixed_subspace(g, label.indices).dim for label in distinct}
    return partition_by_label(
        pts, labels, [(f"type{t}", label) for t, label in enumerate(distinct)],
        dim=lambda label, cloud: dims[label],
        below=lambda low, high: _class_properly_contains(g, low, high),
        r_cc=r_cc, eps_adjacent=eps_adjacent)


def _class_properly_contains(g: FiniteGroupAction, big: OrbitTypeLabel,
                             small: OrbitTypeLabel) -> bool:
    """True when some conjugate of `small` is a proper subgroup of `big`."""
    if len(small) >= len(big):
        return False
    big_set = set(big.indices)
    return any(set(g.conjugate_subgroup(small.indices, t)) <= big_set
               for t in range(g.order))


def _pooled_points(b: SampledStratifiedBundle):
    keys = b.point_keys()
    return keys, np.array([b.point(k) for k in keys])


def _point_permutations(g: FiniteGroupAction, pts: np.ndarray,
                        tol: float) -> list[np.ndarray]:
    """For each group element, the induced permutation of the sample set;
    raises if the set is not orbit saturated."""
    perms = []
    for i, m in enumerate(g.elements):
        perm = np.zeros(len(pts), dtype=int)
        for start, d in distance_blocks(pts @ m.T, pts):
            nearest = d.argmin(axis=1)
            off = np.flatnonzero(d[np.arange(len(d)), nearest] > tol)
            if off.size:
                raise ValueError(
                    f"sample set is not orbit saturated: element {i} moves "
                    f"point {pts[start + off[0]].tolist()} off the sample set")
            perm[start:start + len(d)] = nearest
        if len(set(perm.tolist())) != len(pts):
            raise ValueError(
                f"element {i} collapses distinct sample points; the matching "
                "tolerance is coarser than the sample spacing")
        perms.append(perm)
    return perms


def _audit_equivariance(g: FiniteGroupAction, b: SampledStratifiedBundle,
                        keys, perms, tol: float, message: str) -> None:
    """Raise ``message.format(i=, key=, gap=)`` at the first fiber that
    element ``i`` does not carry onto the fiber over the image point."""
    for i, perm in enumerate(perms):
        for p, key in enumerate(keys):
            moved = apply_linear_map(g.fiber_elements[i], b.fiber(key))
            gap = gap_distance(moved, b.fiber(keys[perm[p]]))
            if gap > tol:
                raise ValueError(message.format(i=i, key=key, gap=gap))


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
    if g.fiber_elements is None:
        raise ValueError("building the invariant subbundle needs a fiber action")
    keys, pts = _pooled_points(b)
    if pts.shape[1] != g.n:
        raise ValueError("group acts on the wrong ambient dimension")
    _audit_equivariance(
        g, b, keys, _point_permutations(g, pts, tol), tol,
        "bundle is not equivariant: element {i} maps the fiber over {key} "
        "with gap {gap:.3e}")

    partition = orbit_type_partition(g, pts, r_cc=r_cc, tol=tol)
    new_fibers = {}
    for p, key in enumerate(keys):
        stab = stabilizer(g, pts[p], tol)
        invariant = fixed_subspace(g, stab, use_fiber=True)
        new_fibers[partition.point_to_key[p]] = intersection(
            b.fiber(key), invariant, tol=tol)

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
    if g.fiber_elements is None:
        raise ValueError("quotient needs a fiber action")
    keys, pts = _pooled_points(tilde)
    perms = _point_permutations(g, pts, tol)

    # Audit: fibers along each orbit map onto each other.
    _audit_equivariance(
        g, tilde, keys, perms, tol,
        "representative fiber mismatch across an orbit: element {i} at "
        "{key} has gap {gap:.3e}")

    orbits = graph_components(len(pts),
                              [(np.arange(len(pts)), perm) for perm in perms])
    reps = sorted(min(members, key=lambda p: tuple(pts[p]))
                  for members in orbits)

    rep_pts = pts[reps]
    partition = orbit_type_partition(g, rep_pts, r_cc=r_cc, tol=tol)
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
