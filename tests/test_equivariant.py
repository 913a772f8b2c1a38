import re
import tracemalloc
import warnings
from itertools import permutations, product

import numpy as np
import pytest

from svb import equivariant, strata
from svb.bundle import SampledStratifiedBundle, trivial_bundle
from svb.config import R_CC, TOL_CHECK
from svb.equivariant import (
    _TOL_GROUP,
    FiniteGroupAction,
    StrataNotInvariantError,
    _conjugates,
    _equivariance_defects,
    _generated_permutations,
    _generators,
    _partition_by_stabilizer,
    _point_permutations,
    _proper_containment,
    _stabilizer_table,
    conjugacy_label,
    fixed_subspace,
    invariant_subbundle,
    orbit_type_partition,
    quotient_bundle,
    stabilizer,
    tangent_comparison,
)
from svb.fixtures import (
    line_stratification,
    ring_tangent_bundle,
    rotation_group,
    sign_flip_group,
    sign_flip_tangent_bundle,
    step_rank_bundle,
)
from svb.grassmann import (
    Subspace,
    apply_linear_map,
    gap_distance,
    intersection,
    opnorms,
    span,
)
from svb.cli import main
from svb.jsonio import bundle_to_json, dumps, group_to_json, write_json
from svb.strata import Stratification, Stratum, check_frontier

from helpers import (axis_reflection_group, circle_rank_table,
                     dihedral_square_group, reference_partition_by_stabilizer,
                     violation_rows)


def trivial_group(n=2):
    return FiniteGroupAction(n, [np.eye(n)],
                             fiber_elements=[np.eye(n)])


def grid_points(step=0.5, extent=1.0):
    axis = np.arange(-extent, extent + step / 2, step)
    return np.array([[x, y] for x in axis for y in axis])


def _table_by_differences(elements):
    """The product table from the max |entry| of every (product, element)
    difference, or the message of the first error the constructor raises
    on the table."""
    mats = np.stack(elements)
    matches = np.abs((mats[:, None] @ mats)[:, :, None] - mats).max(
        axis=(3, 4)) <= _TOL_GROUP
    off = np.argwhere(matches.sum(axis=2) != 1)
    if off.size:
        return "product of elements {} and {} is not in the group".format(
            *off[0])
    table = matches.argmax(axis=2)
    identity = np.abs(mats - np.eye(len(mats[0]))).max(axis=(1, 2))
    inverses = table == identity.argmin()
    bad = np.flatnonzero(inverses.sum(axis=1) != 1)
    if bad.size:
        return f"element {bad[0]} has no unique inverse"
    return table


def _turned(m, factor):
    """The plane rotation ``m`` turned on until its largest entry has
    moved by about ``factor * _TOL_GROUP``."""
    c, s = m[0, 0], m[1, 0]
    theta = np.arctan2(s, c) + factor * _TOL_GROUP / max(abs(c), abs(s))
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def _signed_permutations():
    """The 48 signed permutation matrices of R^3."""
    eye = np.eye(3)
    return [np.diag(signs) @ eye[list(p)] for p in permutations(range(3))
            for signs in product((1.0, -1.0), repeat=3)]


def _near_groups():
    rot8 = list(rotation_group(8, with_tangent_action=False).elements)
    rot12 = list(rotation_group(12, with_tangent_action=False).elements)
    cases = {
        "rot8": rot8, "rot12": rot12,
        "rot48": list(rotation_group(48, with_tangent_action=False).elements),
        "dihedral": list(dihedral_square_group().elements),
        "signed-perm3": _signed_permutations(),
        "not-closed": rot8[:3],
        "not-closed-12": [rot12[k] for k in (0, 2, 3, 6, 9)],
        "duplicate": rot8 + [rot8[3].copy()],
        "duplicate-identity-free": [rot8[0], rot8[4], rot8[4].copy()],
    }
    for factor in (0.5, 2.0):
        for k in (1, 3):
            cases[f"turned-{k}-by-{factor}"] = [
                _turned(m, factor) if j == k else m for j, m in enumerate(rot8)]
        cases[f"turned-12-by-{factor}"] = [
            _turned(m, factor) if j == 5 else m for j, m in enumerate(rot12)]
    return cases


class TestGroupTableReference:
    """The candidate search by Frobenius inner products against every
    (product, element) difference: the same table or the same error.
    No near-group was found that reaches the inverse error past the
    table's own check; the reference carries it all the same."""

    @pytest.mark.parametrize("block", [1, 40, 1 << 20])
    @pytest.mark.parametrize("name", list(_near_groups()))
    def test_same_table_or_error(self, name, block, monkeypatch):
        import svb.functors
        monkeypatch.setattr(svb.functors, "_CHUNK", block)
        elements = _near_groups()[name]
        expected = _table_by_differences(elements)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                FiniteGroupAction(len(elements[0]), elements)
        else:
            g = FiniteGroupAction(len(elements[0]), elements)
            assert np.array_equal(g.table, expected)

    def test_turn_within_tolerance_is_kept(self):
        # Turned by 0.3 tolerance, element 1 and its square stay within
        # the tolerance of the group; turned by 2, it leaves the group.
        rot8 = rotation_group(8, with_tangent_action=False).elements
        turned = [_turned(m, 0.3) if j == 1 else m for j, m in enumerate(rot8)]
        assert np.array_equal(FiniteGroupAction(2, turned).table,
                              FiniteGroupAction(2, rot8).table)
        with pytest.raises(ValueError, match="^product of elements 1 and 1 "
                                             "is not in the group$"):
            FiniteGroupAction(2, _near_groups()["turned-1-by-2.0"])


class TestGroupConstruction:
    def test_missing_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroupAction(2, [np.diag([1.0, -1.0])])

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            FiniteGroupAction(2, [np.eye(2), np.diag([2.0, 0.5])])

    def test_non_closed_rejected(self):
        rot = rotation_group(8).elements[1]
        with pytest.raises(ValueError, match="not in the group"):
            FiniteGroupAction(2, [np.eye(2), rot])

    def test_fiber_table_mismatch_rejected(self):
        # Sending the identity to -1 breaks the multiplication table at
        # (0, 0); note the constant assignment would be the (legal)
        # trivial homomorphism.
        with pytest.raises(ValueError, match="multiplication"):
            FiniteGroupAction(1, [[[1.0]], [[-1.0]]],
                              fiber_elements=[[[-1.0]], [[1.0]]])

    @pytest.mark.parametrize("elements, fibers, message", [
        ([np.eye(2), np.diag([1.0, -1.0]), np.diag([2.0, 0.5])], None,
         "element 2 is not orthogonal"),
        ([[[1.0]], [[-1.0]]], [[[1.0]], [[2.0]]],
         "fiber element 1 is not orthogonal"),
    ], ids=["element", "fiber-element"])
    def test_non_orthogonal_index_named(self, elements, fibers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteGroupAction(len(elements[0]), elements,
                              fiber_elements=fibers)

    @pytest.mark.parametrize("big", [1e200, -1e200])
    def test_overflowing_entries_rejected_quietly(self, big):
        # The orthogonality product overflows, or subtracts infinities;
        # the suite turns a numpy RuntimeWarning into an error.
        with pytest.raises(ValueError, match="^element 1 is not orthogonal$"):
            FiniteGroupAction(1, [[[1.0]], [[big]]])
        with pytest.raises(ValueError, match="^element 1 is not orthogonal$"):
            FiniteGroupAction(2, [np.eye(2), [[big, big], [big, -big]]])
        with pytest.raises(ValueError,
                           match="^fiber element 1 is not orthogonal$"):
            FiniteGroupAction(1, [[[1.0]], [[-1.0]]],
                              fiber_elements=[[[1.0]], [[big]]])

    def test_fiber_table_mismatch_names_pair(self):
        # k -> (-1)^k is a homomorphism of the quarter rotations; swapping
        # the last two signs first breaks the table at (1, 1): the fiber
        # square of element 1 is +1, the fiber element of the half turn -1.
        g = rotation_group(4, with_tangent_action=False)
        with pytest.raises(ValueError, match=r"table at \(1, 1\)$"):
            FiniteGroupAction(2, g.elements,
                              fiber_elements=[[[1.0]], [[-1.0]], [[-1.0]],
                                              [[1.0]]])

    def test_missing_identity_reported_before_closure(self):
        # The set lacks the identity and is not closed either.
        rot = rotation_group(4, with_tangent_action=False).elements
        with pytest.raises(ValueError,
                           match="^the identity matrix is missing"):
            FiniteGroupAction(2, [rot[1], rot[2]])

    @pytest.mark.parametrize("block", [1, 40, 1 << 20])
    def test_table_blocks_agree(self, block, monkeypatch):
        # One row per block, a few rows per block, or the whole table.
        import svb.functors
        elements = rotation_group(12).elements
        whole = FiniteGroupAction(2, elements).table
        monkeypatch.setattr(svb.functors, "_CHUNK", block)
        assert np.array_equal(FiniteGroupAction(2, elements).table, whole)
        # The first product outside {1, r, r^3} is r r, the half turn; in
        # {1, r^2, r} it is r^2 r = r^3, at (1, 2).
        rot = rotation_group(4, with_tangent_action=False).elements
        with pytest.raises(ValueError, match="^product of elements 1 and 1 "
                                             "is not in the group$"):
            FiniteGroupAction(2, [rot[0], rot[1], rot[3]])
        with pytest.raises(ValueError, match="^product of elements 1 and 2 "
                                             "is not in the group$"):
            FiniteGroupAction(2, [rot[0], rot[2], rot[1]])

    def test_group_without_elements(self):
        with pytest.raises(ValueError, match="^group needs at least the "
                           "identity element$"):
            FiniteGroupAction(2, [])

    def test_fiber_element_count(self):
        g = sign_flip_group()
        with pytest.raises(ValueError, match="^fiber_elements must match "
                           "the element list$"):
            FiniteGroupAction(1, g.elements, fiber_elements=[[[1.0]]])

    def test_inverses_found(self):
        g = dihedral_square_group()
        for i in range(g.order):
            assert g.table[i, g.inverse[i]] == g.identity_index


class TestStabilizer:
    def test_fixed_point_has_full_stabilizer(self):
        g = axis_reflection_group()
        assert stabilizer(g, [1.0, 0.0]) == (0, 1)

    def test_moved_point_has_trivial_stabilizer(self):
        g = axis_reflection_group()
        assert stabilizer(g, [1.0, 1.0]) == (g.identity_index,)

    def test_trivial_group(self):
        assert stabilizer(trivial_group(), [0.3, 0.4]) == (0,)

    def test_non_closed_tolerance_rejected(self):
        # At tol 1.5 the quarter rotations look like they fix (1, 0.1)
        # but their product (the half turn) does not, so the candidate
        # index set is not a subgroup.
        g = dihedral_square_group()
        with pytest.raises(ValueError, match="not closed"):
            stabilizer(g, [1.0, 0.1], tol=1.5)

    def test_non_closed_names_first_point(self):
        # Both moved points have non-closed candidate sets at tol 1.5;
        # the one of (0.1, -1.0) sorts first as a table column, but the
        # per-point loop meets (1.0, 0.1) first.
        g = dihedral_square_group()
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.1], [0.1, -1.0]])
        with pytest.raises(ValueError) as reference:
            for p in pts:
                stabilizer(g, p, tol=1.5)
        assert "[1.0, 0.1]" in str(reference.value)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(reference.value))}$"):
            orbit_type_partition(g, pts, tol=1.5)


class TestStabilizerThreshold:
    # The reflection (x, y) -> (x, -y) moves (1, e) by 2e, so it fixes
    # the point within TOL_CHECK iff e <= TOL_CHECK / 2.
    @pytest.mark.parametrize("offset, expected", [
        (TOL_CHECK / 4, (0, 1)), (TOL_CHECK, (0,))],
        ids=["below", "above"])
    def test_reflection_membership_flips_at_tolerance(self, offset, expected):
        g = axis_reflection_group()
        assert stabilizer(g, [1.0, offset]) == expected
        pts = np.array([[0.5, 0.0], [1.0, offset], [0.3, 0.7]])
        classes, of_point = _stabilizer_table(g, pts, TOL_CHECK)
        assert [classes[c] for c in of_point] == [(0, 1), expected, (0,)]


def reference_conjugate(g, subgroup, t):
    """t H t^-1 one element at a time, through the group table."""
    t_inv = int(g.inverse[t])
    return tuple(sorted(int(g.table[g.table[t, h], t_inv])
                        for h in subgroup))


def unique_stabilizer_table(g, pts, tol):
    """The stabilizer table with its distinct columns found by
    ``np.unique(axis=0)`` (no closure check)."""
    fixes = np.linalg.norm(g.elements @ pts.T - pts.T, axis=1) <= tol
    _, first, inverse = np.unique(fixes.T, axis=0, return_index=True,
                                  return_inverse=True)
    by_appearance = np.argsort(first)
    classes = [tuple(np.flatnonzero(fixes[:, p]).tolist())
               for p in first[by_appearance]]
    return classes, np.argsort(by_appearance)[inverse.reshape(-1)]


def cyclic_subgroups(g):
    """The subgroup generated by each element, as sorted index tuples."""
    out = set()
    for a in range(g.order):
        members, power = {g.identity_index}, a
        while power != g.identity_index:
            members.add(power)
            power = int(g.table[power, a])
        out.add(tuple(sorted(members)))
    return out


def ring_cloud(order, radii=(0.3, 0.7, 1.0)):
    """The origin and an ``order``-point ring at each radius."""
    angles = 2.0 * np.pi * np.arange(order) / order
    return np.array([[0.0, 0.0]] + [[r * np.cos(a), r * np.sin(a)]
                                    for r in radii for a in angles])


def cube_grid():
    axis = (-1.0, -0.5, 0.0, 0.5, 1.0)
    return np.array(list(product(axis, repeat=3)))


def table_cases():
    """(group, clouds): rotation groups of order 1-16 on rings, the
    dihedral square on a grid and the 48 signed permutations of R^3 on
    the 5^3 grid, each with one-point clouds and clouds where many
    points share a stabilizer."""
    rng = np.random.default_rng(3)
    cases = {}
    for order in range(1, 17):
        ring = ring_cloud(order)
        cases[f"rot{order}"] = (
            rotation_group(order, with_tangent_action=False),
            [ring, ring[:1], ring[1:2], ring[1:], np.repeat(ring, 3, axis=0)])
    grid = grid_points(step=0.5)
    cases["dihedral"] = (dihedral_square_group(), [
        grid, grid[rng.permutation(len(grid))], grid[12:13], grid[:1],
        np.repeat(grid[[0, 12, 6]], 20, axis=0)])
    cube = cube_grid()
    cases["signed-perm3"] = (
        FiniteGroupAction(3, _signed_permutations()),
        [cube, cube[rng.permutation(len(cube))], cube[62:63], cube[:1],
         np.concatenate([cube, cube[::-1], cube[rng.integers(0, 125, 300)]])])
    return cases


class TestGroupTableRoutes:
    """Conjugates gathered from the group table and the stabilizer table
    by one sort, against the per-element loop and ``np.unique(axis=0)``
    they replace."""

    @pytest.fixture(scope="class")
    def cases(self):
        return table_cases()

    @pytest.mark.parametrize("name", list(table_cases()))
    def test_same_as_references(self, cases, name):
        g, clouds = cases[name]
        subgroups = cyclic_subgroups(g) | {tuple(range(g.order))}
        for pts in clouds:
            classes, of_point = _stabilizer_table(g, pts, TOL_CHECK)
            want_classes, want_of_point = unique_stabilizer_table(
                g, pts, TOL_CHECK)
            assert classes == want_classes
            assert np.array_equal(of_point, want_of_point)
            assert [classes[c] for c in of_point] == [
                stabilizer(g, p) for p in pts]
            subgroups.update(classes)
        conjugates = {}
        for sub in sorted(subgroups):
            want = [reference_conjugate(g, sub, t) for t in range(g.order)]
            assert [tuple(row) for row in _conjugates(g, sub).tolist()] \
                == want
            assert conjugacy_label(g, sub) == min(want)
            conjugates[sub] = want
        subs = list(conjugates)
        contains = _proper_containment(g, [_conjugates(g, sub)
                                           for sub in subs])
        for b, big in enumerate(subs):
            for s, (small, want) in enumerate(conjugates.items()):
                expected = len(small) < len(big) and any(
                    set(c) <= set(big) for c in want)
                assert contains[b, s] == expected

    def test_cube_grid_partition(self, cases):
        # 79 strata and 118 declared closure pairs on the 5^3 grid.
        g, (cube, *_) = cases["signed-perm3"]
        part = orbit_type_partition(g, cube, r_cc=0.6)
        assert len(part.stratification.strata) == 79
        assert len(part.stratification.closure_order) == 118


def workload_rings(seed, count=10):
    """The rings of the orbits workload: ``ring_tangent_bundle`` of Z_8
    and Z_12, one seeded radius in each of ``count`` equal slices of
    [0.2, 1]."""
    rng = np.random.default_rng(seed)
    for order in (8, 12):
        slots = np.arange(count) + rng.uniform(0.1, 0.9, count)
        yield order, ring_tangent_bundle(order,
                                         list(0.2 + 0.8 * slots / count))


def assert_same_partition(got, want):
    """Names, members, labels, closure order and dims agree."""
    assert got.stratification.names == want.stratification.names
    assert got.members == want.members
    assert got.labels == want.labels
    assert got.label_of_stratum == want.label_of_stratum
    assert got.stratification.closure_order == \
        want.stratification.closure_order
    for mine, theirs in zip(got.stratification.strata,
                            want.stratification.strata):
        assert mine.dim == theirs.dim
        assert np.array_equal(mine.points, theirs.points)


def assert_same_bundle(got, want):
    assert got.base.names == want.base.names
    assert got.base.closure_order == want.base.closure_order
    assert [s.dim for s in got.base.strata] == [s.dim for s in
                                                want.base.strata]
    assert np.array_equal(got.base._cloud, want.base._cloud)
    assert list(got.stacks) == list(want.stacks)
    for name, stack in got.stacks.items():
        assert np.array_equal(stack, want.stacks[name])


class TestOneTablePerClass:
    """Orbit types and their order from one ``_conjugates`` table per
    stabilizer class, against ``conjugacy_label`` per class and the
    containment gathered afresh for each stratum pair
    (``reference_partition_by_stabilizer``)."""

    def test_cube_gathers_each_class_once(self, monkeypatch):
        # 23 stabilizer classes of the 5^3 grid under the 48 signed
        # permutations: each is checked for closure and conjugated once.
        calls = {"_conjugates": 0, "_closed": 0}

        def counted(name):
            inner = getattr(equivariant, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)
            return call

        for name in calls:
            monkeypatch.setattr(equivariant, name, counted(name))
        g = FiniteGroupAction(3, _signed_permutations())
        part = orbit_type_partition(g, cube_grid(), r_cc=0.6)
        assert calls == {"_conjugates": 23, "_closed": 23}
        assert len(part.stratification.strata) == 79

    @pytest.mark.parametrize("name", list(table_cases()))
    def test_partition_same_as_reference(self, name, monkeypatch):
        g, clouds = table_cases()[name]
        for pts in clouds:
            for r_cc in (R_CC, 0.6):
                got = orbit_type_partition(g, pts, r_cc=r_cc)
                with monkeypatch.context() as m:
                    m.setattr(equivariant, "_partition_by_stabilizer",
                              reference_partition_by_stabilizer)
                    want = orbit_type_partition(g, pts, r_cc=r_cc)
                assert_same_partition(got, want)

    @staticmethod
    def ring_results(g, b):
        tilde = invariant_subbundle(g, b, r_cc=0.25)
        return (orbit_type_partition(g, b.base._cloud, r_cc=0.25), tilde,
                quotient_bundle(g, tilde, r_cc=0.25))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_workload_rings_same_as_reference(self, seed, monkeypatch):
        for order, b in workload_rings(seed):
            g = rotation_group(order)
            part, tilde, quotient = self.ring_results(g, b)
            with monkeypatch.context() as m:
                m.setattr(equivariant, "_partition_by_stabilizer",
                          reference_partition_by_stabilizer)
                ref, ref_tilde, ref_quotient = self.ring_results(g, b)
            assert_same_partition(part, ref)
            assert_same_bundle(tilde, ref_tilde)
            assert_same_bundle(quotient, ref_quotient)
            assert len(quotient.base.strata) > 1


class TestFixedSubspace:
    def test_reflection_fixes_first_axis(self):
        g = axis_reflection_group()
        fixed = fixed_subspace(g, (0, 1))
        # Oracle: the average of I and diag(1,-1) is diag(1, 0).
        assert gap_distance(fixed, span([(1.0, 0.0)], 2)) <= 1e-12

    def test_identity_subgroup_fixes_everything(self):
        g = axis_reflection_group()
        assert fixed_subspace(g, (g.identity_index,)).dim == 2

    def test_quarter_rotations_fix_nothing(self):
        g = rotation_group(4, with_tangent_action=False)
        # Oracle: the four rotation matrices sum to the zero matrix.
        total = sum(g.elements[i] for i in range(4))
        assert np.allclose(total, 0.0, atol=1e-12)
        assert fixed_subspace(g, tuple(range(4))).dim == 0

    @pytest.mark.parametrize("name", list(table_cases()))
    def test_same_basis_as_thresholded_span(self, name):
        # The rank is the trace of the average; the basis is still its
        # top right-singular vectors, so it equals the span of the
        # average's rows with an absolute cutoff, byte for byte.
        g, _ = table_cases()[name]
        for sub in sorted(cyclic_subgroups(g) | {tuple(range(g.order))}):
            avg = sum(g.elements[i] for i in sub) / len(sub)
            want = span(avg.T, g.n, tol_abs=1e-10)
            got = fixed_subspace(g, sub)
            assert got.dim == round(np.trace(avg))
            assert np.array_equal(got.basis, want.basis)

    def test_non_closed_subset_rejected(self):
        # Index sets of the dihedral group (rotations by 0, 90, 180 and
        # 270 degrees, then four reflections) that the table does not
        # close, on the base and on the fiber elements.
        g = dihedral_square_group(with_tangent_action=True)
        for subset in [(0, 1), (1,), (0, 3), (0, 1, 2), (0, 4, 5), (4,),
                       (0, 4, 6), (0, 1, 2, 3, 4), (1, 0, 1)]:
            text = re.escape(str(sorted(set(subset))))
            for use_fiber in (False, True):
                with pytest.raises(ValueError, match=f"^set {text} is not "
                                   "closed under the group table$"):
                    fixed_subspace(g, subset, use_fiber=use_fiber)

    def test_negative_index_rejected(self):
        # -2 names element 2 again: the average (I + 2 R_180) / 3 = -I / 3
        # is no projection.
        g = rotation_group(4)
        for subset in [(0, 2, -2), (0, -1)]:
            with pytest.raises(ValueError, match="negative"):
                fixed_subspace(g, subset)

    def test_empty_subgroup(self):
        with pytest.raises(ValueError, match="^subgroup must be nonempty$"):
            fixed_subspace(sign_flip_group(), [])

    def test_fiber_fixed_space_without_fiber_action(self):
        with pytest.raises(ValueError,
                           match="^group carries no fiber action$"):
            fixed_subspace(axis_reflection_group(), [0], use_fiber=True)


SUBGROUP_REFUSALS = [
    ((0, 2.5), "subgroup index must be an integer, got 2.5"),
    ((0, True), "subgroup index must be an integer, got True"),
    ((0, -2), "subgroup index -2 is negative"),
    ((0, 4), "subgroup index 4 is not below the group order 4"),
    ((0, 1), "set [0, 1] is not closed under the group table"),
    ([[0, 2]], "subgroup index must be an integer, got [0, 2]"),
    ((), "subgroup must be nonempty"),
]


class TestSubgroupReader:
    @pytest.mark.parametrize("read", [conjugacy_label, fixed_subspace],
                             ids=["conjugacy_label", "fixed_subspace"])
    @pytest.mark.parametrize("subgroup, message", SUBGROUP_REFUSALS,
                             ids=[str(case) for case, _ in SUBGROUP_REFUSALS])
    def test_refused(self, read, subgroup, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(rotation_group(4), subgroup)

    def test_distinct_ascending(self):
        g = rotation_group(4)
        read = equivariant._subgroup(g, (2, np.int64(0), 2))
        assert read == [0, 2] and all(type(i) is int for i in read)
        assert conjugacy_label(g, {2, 0}) == (0, 2)


class TestOrbitTypePartition:
    def test_reflection_splits_axis_from_bulk(self):
        g = axis_reflection_group()
        pts = np.array([[0.5, 0.0], [1.0, 0.0], [-0.5, 0.0],
                        [0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
        part = orbit_type_partition(g, pts, r_cc=0.6)
        assert len(set(part.labels)) == 2
        full = conjugacy_label(g, (0, 1))
        axis_points = [i for i, lab in enumerate(part.labels) if lab == full]
        assert axis_points == [0, 1, 2]

    def test_trivial_group_single_label(self):
        part = orbit_type_partition(trivial_group(), grid_points(), r_cc=0.8)
        assert len(set(part.labels)) == 1

    def test_dihedral_grid_labels(self):
        g = dihedral_square_group()
        pts = grid_points(step=0.5)
        part = orbit_type_partition(g, pts, r_cc=0.55)
        # Brute-force oracle: stabilizer sizes by point class.
        for i, p in enumerate(pts):
            size = len(stabilizer(g, p))
            if np.allclose(p, 0.0):
                assert size == 8
            elif p[0] == 0.0 or p[1] == 0.0:
                assert size == 2
            elif abs(p[0]) == abs(p[1]):
                assert size == 2
            else:
                assert size == 1
        # Axis points and diagonal points carry different reflection
        # classes; with the origin and the generic class that makes 4.
        assert len(set(part.labels)) == 4

    def test_stratum_dims_follow_fixed_spaces(self):
        g = dihedral_square_group()
        part = orbit_type_partition(g, grid_points(step=0.5), r_cc=0.55)
        for stratum in part.stratification.strata:
            label = part.label_of_stratum[stratum.name]
            assert stratum.dim == fixed_subspace(g, label).dim

    def test_declared_closure_survives_audit(self):
        # The finer grid keeps every stratum spatially extended, so the
        # conservative touch trigger fires only on genuine frontier pairs.
        g = dihedral_square_group()
        part = orbit_type_partition(g, grid_points(step=0.25), r_cc=0.4)
        report = check_frontier(part.stratification, eps_touch=0.3,
                                delta_cover=0.3)
        assert report.passed, violation_rows(report)


class TestSamplePoints:
    """``stabilizer`` and ``orbit_type_partition`` read their points by
    the vector-field sample rule, in the group's R^n: finite coordinates
    within ±2^500, the group's width, at least one point."""

    EDGE = 2.0 ** 500
    BAD = [np.nan, np.inf, -np.inf, float(np.nextafter(EDGE, np.inf)),
           1e300, -1e300]
    FAR = r"^sample point {} has a coordinate that is not finite or " \
          r"beyond ±2\^500$"

    @pytest.mark.parametrize("bad", BAD)
    def test_far_coordinate_is_refused_quietly(self, bad):
        g = rotation_group(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.FAR.format(0)):
                stabilizer(g, [bad, 0.0])
            with pytest.raises(ValueError, match=self.FAR.format(1)):
                orbit_type_partition(g, [[1.0, 0.0], [0.0, bad]], r_cc=0.5)

    def test_edge_coordinate_is_read(self):
        g = rotation_group(4)
        assert stabilizer(g, [-self.EDGE, 0.0]) == (g.identity_index,)
        part = orbit_type_partition(g, [[0.0, 0.0], [0.0, self.EDGE]],
                                    r_cc=0.5)
        assert len(set(part.labels)) == 2

    @pytest.mark.parametrize("point", [[1.0, 0.0, 0.0], [1.0], []],
                             ids=["R3", "R1", "empty"])
    def test_wrong_width(self, point):
        g = rotation_group(4)
        message = "^sample points have the wrong ambient dimension$"
        with pytest.raises(ValueError, match=message):
            stabilizer(g, point)
        with pytest.raises(ValueError, match=message):
            orbit_type_partition(g, [point], r_cc=0.5)

    def test_no_points(self):
        with pytest.raises(ValueError,
                           match="^need at least one sample point$"):
            orbit_type_partition(rotation_group(4), np.zeros((0, 2)))


class TestInvariantSubbundle:
    def test_sign_flip_ranks(self):
        g = sign_flip_group()
        # r_cc slightly above the 0.05 grid spacing absorbs arange jitter.
        tilde = invariant_subbundle(g, sign_flip_tangent_bundle(), r_cc=0.06)
        ranks = sorted(tilde.stratum_rank.items())
        by_rank = sorted(r for _, r in ranks)
        assert by_rank == [0, 1, 1]
        origin_stratum = [s for s in tilde.base.strata if len(s) == 1
                          and float(s.points[0][0]) == 0.0]
        assert len(origin_stratum) == 1
        assert tilde.stratum_rank[origin_stratum[0].name] == 0

    def test_trivial_group_keeps_fibers(self):
        base = line_stratification()
        b = trivial_bundle(base, 2)
        g = trivial_group(1)
        g2 = FiniteGroupAction(1, [np.eye(1)], fiber_elements=[np.eye(2)])
        tilde = invariant_subbundle(g2, b, r_cc=0.06)
        assert set(tilde.stratum_rank.values()) == {2}
        for key in tilde.point_keys():
            assert tilde.fiber(key).dim == 2

    def test_mixed_rank_orbit_type_stratum_rejected(self):
        # The trivial group gives every point one orbit type; orbit types
        # refine the input strata, so the line's strata of ranks 1 and 2
        # stay apart.  The rank error needs fibers of one input stratum
        # whose invariant parts differ in rank: on the x-axis, fixed by
        # the reflection, the invariant part of e1 is e1, that of e2 is 0.
        g = FiniteGroupAction(2, [np.eye(2), np.diag([1.0, -1.0])],
                              fiber_elements=[np.eye(2), np.diag([1.0, -1.0])])
        base = Stratification([Stratum(
            "axis", 1, [[0.1 * i, 0.0] for i in range(6)])])
        b = SampledStratifiedBundle(
            base, 2, {("axis", i): Subspace(2, np.eye(2)[[i // 3]])
                      for i in range(6)}, {"axis": 1})
        with pytest.raises(ValueError, match=re.escape(
                "fiber over ('type0_c0', 3) has rank 0, the fiber over "
                "('type0_c0', 0) has rank 1")):
            invariant_subbundle(g, b, r_cc=0.15)

    def test_trivial_group_returns_the_bundle(self):
        g = FiniteGroupAction(1, [np.eye(1)], fiber_elements=[np.eye(3)])
        b = step_rank_bundle()
        tilde = invariant_subbundle(g, b, r_cc=0.3)
        quotient = quotient_bundle(g, tilde, r_cc=0.3)
        assert quotient_bundle(g, b, r_cc=0.3).stacks.keys() == \
            quotient.stacks.keys()
        for out, suffix in ((tilde, ""), (quotient, "/G")):
            names = [f"type0_c{j}{suffix}" for j in range(3)]
            assert out.base.names == names
            for name, source in zip(names, ("S0", "S+", "S-")):
                assert np.array_equal(out.base.stratum(name).points,
                                      b.base.stratum(source).points)
                assert np.array_equal(out.stacks[name], b.stacks[source])
            assert out.stratum_rank == dict(zip(names, (1, 2, 2)))

    def test_strata_must_be_permuted_by_the_group(self, tmp_path, capsys):
        # x -> -x carries A = {0.05, 0.1} onto B = {-0.05} and C = {-0.1}.
        g = sign_flip_group()
        base = Stratification([Stratum("A", 1, [[0.05], [0.1]]),
                               Stratum("B", 0, [[-0.05]]),
                               Stratum("C", 0, [[-0.1]])])
        b = trivial_bundle(base, 1)
        message = ("strata are not invariant under the group: element 1 "
                   "carries stratum 'A' into both 'B' and 'C'")
        for build in (invariant_subbundle, quotient_bundle):
            with pytest.raises(StrataNotInvariantError,
                               match=f"^{re.escape(message)}$"):
                build(g, b, r_cc=0.06)
        group, bundle = str(tmp_path / "g.json"), str(tmp_path / "b.json")
        write_json(group_to_json(g), group)
        write_json(bundle_to_json(b), bundle)
        for verb in ("tilde", "quotient"):
            code = main(["equivariant", verb, "--group", group,
                         "--bundle", bundle, "--r-cc", "0.06"])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"svb: error: {message}\n"

    def test_permuted_strata_pass(self):
        # x -> -x swaps S+ and S-, which is a G-invariant stratification.
        tilde = invariant_subbundle(sign_flip_group(),
                                    sign_flip_tangent_bundle(), r_cc=0.3)
        assert tilde.base.names == ["type0_c0", "type1_c0", "type1_c1"]
        assert [len(s) for s in tilde.base.strata] == [1, 20, 20]

    def test_requires_fiber_action(self):
        g = axis_reflection_group()
        with pytest.raises(ValueError, match="fiber action"):
            invariant_subbundle(g, trivial_bundle(line_stratification(), 2))

    def test_unsaturated_base_rejected(self):
        g = sign_flip_group()
        lopsided = Stratification_no_mirror()
        with pytest.raises(ValueError, match="saturated"):
            invariant_subbundle(g, trivial_bundle(lopsided, 1))

    def test_non_equivariant_bundle_rejected(self):
        g = sign_flip_group()
        b = sign_flip_tangent_bundle()
        # S+ keeps zero fibers, which x -> -x carries onto nothing in S-.
        fibers = {key: Subspace.zero(1) if key[0] == "S+" else b.fiber(key)
                  for key in b.point_keys()}
        ranks = dict(b.stratum_rank, **{"S+": 0})
        broken = SampledStratifiedBundle(b.base, 1, fibers, ranks)
        with pytest.raises(ValueError, match="equivariant"):
            invariant_subbundle(g, broken)


def equivariance_gaps(g, b, perms):
    """``[i, p]``: gap between the image under element ``i`` of the fiber
    over point ``p`` and the fiber over the image point, the spectral
    norms of the audit's defects."""
    return opnorms(_equivariance_defects(g, b, perms))


def reference_gaps(g, b, perms):
    """The equivariance gaps one group element at a time."""
    proj = np.stack([basis.T @ basis for stack in b.stacks.values()
                     for basis in stack])
    return np.stack([np.linalg.norm(m @ proj @ m.T - proj[perm], 2,
                                    axis=(1, 2))
                     for m, perm in zip(g.fiber_elements, perms)])


def assert_matches_intersection_route(g, b, tilde, r_cc, same_bits=False,
                                      atol=1e-12):
    """The fibers of ``tilde``, the invariant subbundle of ``b``, against
    the intersection of each fiber of ``b`` with the fixed space of its
    stabilizer, one point at a time: the same strata and ranks, the same
    projections within ``atol`` and, with ``same_bits``, the same bases."""
    pts = b.base._cloud
    classes, of_point = _stabilizer_table(g, pts, TOL_CHECK)
    # Orbit types within each input stratum.
    partition = _partition_by_stabilizer(g, pts, classes, of_point, r_cc,
                                         b.base._owner)
    assert tilde.base.names == partition.stratification.names
    bases = [intersection(b.fiber(key), fixed_subspace(
        g, classes[c], use_fiber=True)).basis
        for key, c in zip(b.point_keys(), of_point)]
    for s, local in zip(partition.stratification.strata, partition.members):
        got, want = tilde.stacks[s.name], np.stack([bases[p] for p in local])
        assert got.shape == want.shape
        if same_bits:
            assert np.array_equal(got, want)
        gap = np.abs(got.swapaxes(1, 2) @ got - want.swapaxes(1, 2) @ want)
        assert gap.max() <= atol


class TestStackedRoute:
    """The per-class route against the per-point loop it replaces."""

    CASES = {
        "ring8": lambda: (rotation_group(8),
                          ring_tangent_bundle(8, (0.3, 0.6, 1.0)), 1.0),
        "ring12": lambda: (rotation_group(12),
                           ring_tangent_bundle(12, (0.25, 0.5, 0.75)), 1.0),
        "sign-flip": lambda: (sign_flip_group(), sign_flip_tangent_bundle(),
                              0.06),
        "dihedral-grid": lambda: (
            dihedral_square_group(with_tangent_action=True),
            trivial_bundle(Stratification(
                [Stratum("plane", 2, grid_points(step=0.25))]), 2), 0.4),
        "trivial": lambda: (
            FiniteGroupAction(1, [np.eye(1)], fiber_elements=[np.eye(2)]),
            trivial_bundle(line_stratification(), 2), 0.06),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_per_point_loop(self, name):
        g, b, r_cc = self.CASES[name]()
        keys = b.point_keys()
        pts = np.array([b.point(key) for key in keys])
        stabs = [stabilizer(g, p) for p in pts]
        classes, of_point = _stabilizer_table(g, pts, TOL_CHECK)
        assert [classes[c] for c in of_point] == stabs

        perms = _point_permutations(g, pts, TOL_CHECK)
        gaps = equivariance_gaps(g, b, perms)
        assert np.array_equal(gaps, reference_gaps(g, b, perms))

        # In every case but the dihedral grid, a stabilizer's fixed space
        # is all of R^k or meets each fiber in 0 alone, so the fibers
        # keep their bases or become rank 0, bit for bit as the
        # intersections.  The average route finds the dihedral grid's
        # invariant lines with the other sign.
        assert_matches_intersection_route(
            g, b, invariant_subbundle(g, b, r_cc=r_cc), r_cc,
            same_bits=name != "dihedral-grid")

    def test_dihedral_grid_mixes_kept_counts(self):
        g, b, r_cc = self.CASES["dihedral-grid"]()
        tilde = invariant_subbundle(g, b, r_cc=r_cc)
        assert set(tilde.stratum_rank.values()) == {0, 1, 2}

    def test_non_equivariant_message_names_reference_entry(self):
        # The tilt breaks equivariance for several elements and points;
        # the first offending (element, point) in the per-element loop is
        # the one named.
        g, b = rotation_group(8), radial_line_bundle(tilt=0.3)
        keys = b.point_keys()
        perms = _point_permutations(
            g, np.array([b.point(key) for key in keys]), TOL_CHECK)
        gaps = reference_gaps(g, b, perms)
        i, p = np.argwhere(gaps > TOL_CHECK)[0]
        message = (f"bundle is not equivariant: element {i} maps the fiber "
                   f"over {keys[p]} with gap {gaps[i, p]:.3e}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            invariant_subbundle(g, b, r_cc=1.0)


def punctured_grid_lines(kind, tilt=0.0):
    """Line fibers over the 21 x 21 grid of step 0.1 in [-1, 1]^2 without
    its origin, equivariant under ``dihedral_square_group``: spanned by x
    (``"radial"``) or by its quarter turn (``"tangential"``), the line
    over (0.5, 0) turned on by ``tilt``."""
    axis = np.arange(-10, 11) * 0.1
    pts = np.array([[x, y] for x in axis for y in axis if x or y])
    angles = np.arctan2(pts[:, 1], pts[:, 0]) + {
        "radial": 0.0, "tangential": np.pi / 2}[kind]
    angles[(pts == [0.5, 0.0]).all(axis=1)] += tilt
    base = Stratification([Stratum("plane", 2, pts)])
    lines = np.column_stack([np.cos(angles), np.sin(angles)])[:, None]
    return SampledStratifiedBundle.from_stacks(base, 2, {"plane": lines})


class TestAverageRoute:
    """Invariant fibers as the image of each fiber under the average of
    its stabilizer, on stabilizers that fix part of each fiber."""

    CASES = {
        "signed-perm-cube125": lambda: (
            FiniteGroupAction(3, _signed_permutations(),
                              fiber_elements=_signed_permutations()),
            trivial_bundle(Stratification([Stratum("cube", 3, np.array(
                list(product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3))))]), 3),
            0.6, {0, 1, 2}),
        "dihedral-radial": lambda: (
            dihedral_square_group(with_tangent_action=True),
            punctured_grid_lines("radial"), 0.12, {1}),
        "dihedral-tangential": lambda: (
            dihedral_square_group(with_tangent_action=True),
            punctured_grid_lines("tangential"), 0.12, {0, 1}),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_agrees_with_intersection_route(self, name):
        g, b, r_cc, ranks = self.CASES[name]()
        tilde = invariant_subbundle(g, b, r_cc=r_cc)
        assert set(tilde.stratum_rank.values()) == ranks
        assert_matches_intersection_route(g, b, tilde, r_cc)
        quotient = quotient_bundle(g, tilde, r_cc=r_cc)
        assert set(quotient.stratum_rank.values()) == ranks

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_tilt_at_a_fixed_line_on_both_sides_of_tol(self, factor):
        # The reflection fixing (0.5, 0) turns the line there, tilted by
        # theta, by 2 theta: the largest gap is sin(2 theta).
        g = dihedral_square_group(with_tangent_action=True)
        b = punctured_grid_lines(
            "radial", tilt=np.arcsin(factor * TOL_CHECK) / 2)
        gaps = equivariance_gaps(
            g, b, _point_permutations(g, b.base._cloud, TOL_CHECK))
        assert gaps.max() == pytest.approx(factor * TOL_CHECK, rel=1e-6)
        if factor > 1:
            with pytest.raises(ValueError,
                               match="^bundle is not equivariant: element"):
                invariant_subbundle(g, b, r_cc=0.12)
            return
        tilde = invariant_subbundle(g, b, r_cc=0.12)
        assert set(tilde.stratum_rank.values()) == {1}
        # The intersection keeps the tilted line, within tol of the fixed
        # one; the average maps it onto the fixed line itself.
        assert_matches_intersection_route(g, b, tilde, 0.12, atol=TOL_CHECK)
        at = np.flatnonzero((tilde.base._cloud == [0.5, 0.0]).all(axis=1))
        basis, = [basis for stack in tilde.stacks.values()
                  for basis in stack][at[0]]
        assert np.array_equal(np.abs(basis), [1.0, 0.0])


class TestToleranceRefused:
    """Every entry point refuses a tolerance that is not a positive finite
    number before any work: NaN would fix no point, not even by the
    identity, and a negative tolerance likewise."""

    ENTRIES = {
        "stabilizer": lambda tol: stabilizer(rotation_group(8), [0.5, 0.0],
                                             tol=tol),
        "orbit_type_partition": lambda tol: orbit_type_partition(
            rotation_group(8), [[0.5, 0.0]], tol=tol),
        "invariant_subbundle": lambda tol: invariant_subbundle(
            rotation_group(8), ring_tangent_bundle(8), tol=tol),
        "quotient_bundle": lambda tol: quotient_bundle(
            rotation_group(8), ring_tangent_bundle(8), tol=tol),
    }

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")],
                             ids=["nan", "negative", "zero", "inf"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_refused(self, entry, tol):
        with pytest.raises(ValueError, match=re.escape(
                f"tol must be a positive finite number, got {tol!r}")):
            self.ENTRIES[entry](tol)


def Stratification_no_mirror():
    from svb.strata import Stratification, Stratum
    return Stratification([
        Stratum("S0", 0, [[0.0]]),
        Stratum("S+", 1, [[0.5], [1.0]]),
    ], closure_order=[("S0", "S+")])


class TestPointPermutations:
    def test_first_unmatched_point_named(self, monkeypatch):
        monkeypatch.setattr(strata, "_CHUNK", 2)
        g = axis_reflection_group()
        pts = np.array([[0.5, 0.0], [1.0, 0.5], [2.0, 0.3], [1.0, -0.5]])
        with pytest.raises(ValueError, match=r"point \[2.0, 0.3\] off"):
            _point_permutations(g, pts, 1e-8)

    def test_first_element_and_off_sample_first(self):
        # Under x -> -x with matching radius 0.06, -0.1 lands on -0.05,
        # the image of 0.05 (a collapse), and -0.3 on nothing.
        g = sign_flip_group()
        with pytest.raises(ValueError, match="^element 1 collapses"):
            _point_permutations(g, np.array([[0.0], [0.05], [-0.05], [0.1]]),
                                0.06)
        with pytest.raises(ValueError, match=r"^sample set is not orbit "
                           r"saturated: element 1 moves point \[0.3\] off"):
            _point_permutations(g, np.array(
                [[0.0], [0.05], [-0.05], [0.1], [0.3]]), 0.06)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_as_unique_route_with_ties(self, seed, monkeypatch):
        # Integer grids with holes: an image off the sample set often
        # lies at distance exactly 1 or sqrt(2) from several samples.
        monkeypatch.setattr(strata, "_CHUNK", 5)
        rng = np.random.default_rng(seed)
        g = dihedral_square_group()
        grid = np.array(list(product(range(-2, 3), repeat=2)), dtype=float)
        for holes in (0, 1, 3):
            pts = np.delete(grid, rng.choice(len(grid), holes,
                                             replace=False), axis=0)
            pts = pts[rng.permutation(len(pts))]
            for tol in (0.5, 1.0, 1.5):
                expected = _unique_route(g, pts, tol)
                try:
                    perms = _point_permutations(g, pts, tol)
                except ValueError as err:
                    assert str(err) == expected
                else:
                    assert np.array_equal(perms, expected)

    def test_ties_go_to_the_lowest_index(self):
        # Under x -> -x, the images of 1 and -1.5 lie halfway between two
        # samples; the lower index wins, and only that choice makes a
        # permutation.
        g = sign_flip_group()
        pts = np.array([[-0.5], [2.0], [-1.5], [1.0]])
        perms = _point_permutations(g, pts, 0.6)
        assert perms.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0]]
        assert np.array_equal(perms, _unique_route(g, pts, 0.6))
        with pytest.raises(ValueError, match="^element 1 collapses"):
            _point_permutations(g, pts[::-1], 0.6)

    def test_permutation_matches_images(self, monkeypatch):
        monkeypatch.setattr(strata, "_CHUNK", 2)
        g = dihedral_square_group()
        pts = grid_points(step=0.5)
        for m, perm in zip(g.elements, _point_permutations(g, pts, 1e-8)):
            assert np.allclose(pts[perm], pts @ m.T)


def _unique_route(g, pts, tol):
    """``_point_permutations`` with each image's nearest sample picked
    through ``np.unique(..., return_index=True)``; a failure gives its
    message instead."""
    n = len(pts)
    match = np.full(g.order * n, -1)
    images = np.concatenate([pts @ m.T for m in g.elements])
    for i, j, d in strata.near_pairs(images, pts, tol):
        order = np.lexsort((j, d, i))
        nearest = order[np.unique(i[order], return_index=True)[1]]
        match[i[nearest]] = j[nearest]
    perms = match.reshape(g.order, n)
    for i, perm in enumerate(perms):
        if (perm < 0).any():
            return ("sample set is not orbit saturated: element "
                    f"{i} moves point {pts[np.argmax(perm < 0)].tolist()} "
                    "off the sample set")
        if len(set(perm.tolist())) < n:
            return (f"element {i} collapses distinct sample points; the "
                    "matching tolerance is coarser than the sample spacing")
    return perms


def closure(g, gens):
    """The elements that products of ``gens`` reach, through the group
    table."""
    members, grown = {g.identity_index}, None
    while grown != members:
        grown = set(members)
        members |= {int(g.table[a, b]) for a in grown for b in gens}
    return members


class TestGenerators:
    @pytest.fixture(scope="class")
    def cases(self):
        return table_cases()

    @pytest.mark.parametrize("name", list(table_cases()))
    def test_greedy_and_generating(self, cases, name):
        g, _ = cases[name]
        gens = _generators(g)
        assert closure(g, gens) == set(range(g.order))
        # Each generator is the lowest element the earlier ones miss.
        for k, a in enumerate(gens):
            assert a == min(set(range(g.order)) - closure(g, gens[:k]))

    def test_rotation_groups_are_cyclic(self):
        assert _generators(rotation_group(1)) == []
        assert _generators(trivial_group()) == []
        for order in range(2, 49):
            assert _generators(rotation_group(order)) == [1]

    def test_fixed_sets(self):
        # The quarter turn and a reflection; the three sign flips and two
        # transpositions.
        assert _generators(dihedral_square_group()) == [1, 4]
        assert _generators(FiniteGroupAction(3, _signed_permutations())) \
            == [1, 2, 4, 8, 16]


def ring_points(order, radii):
    return ring_tangent_bundle(order, list(radii)).base._cloud


def drifting_ring(order=16, tol=TOL_CHECK):
    """An ``order``-point unit ring whose angle k is moved by
    A sin(2 pi k / order), A set so that neighbours' moves differ by at
    most 0.9 tol: the rotation by one step carries each point within tol
    of the next, the rotation by two steps carries some point about
    1.8 tol from the point two on."""
    steps = 2.0 * np.pi * np.arange(order) / order
    angles = steps + 0.9 * tol / (2.0 * np.sin(np.pi / order)) * np.sin(steps)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def generator_route_cases():
    """(group, points, whether the generator route holds)."""
    cases = {f"rot{order}": (
        rotation_group(order, with_tangent_action=False), ring_points(
            order, np.random.default_rng(order).uniform(0.1, 1.0, 10)), True)
        for order in (5, 8, 12, 16)}
    rot8 = rotation_group(8, with_tangent_action=False)
    ring = ring_points(8, (0.5, 1.0))[1:]  # no origin
    cases.update({
        "ring2401": (rotation_group(12, with_tangent_action=False),
                     ring_points(12, np.linspace(0.2, 1.0, 200)), True),
        "rot48-ring2401": (rotation_group(48, with_tangent_action=False),
                           ring_points(48, np.linspace(0.2, 1.0, 50)), True),
        "dihedral-grid": (dihedral_square_group(), grid_points(0.25), True),
        "signed-perm3": (FiniteGroupAction(3, _signed_permutations()),
                         cube_grid(), True),
        "trivial": (trivial_group(), grid_points(0.25), False),
        "point-removed": (rot8, np.delete(ring, 11, axis=0), False),
        # Each sample has a second one 1.5 tol away, out of tol's reach.
        "pair-at-1.5-tol": (rot8, np.concatenate(
            [ring, ring * (1.0 + 1.5 * TOL_CHECK / np.linalg.norm(
                ring, axis=1, keepdims=True))]), False),
        "drift": (rotation_group(16, with_tangent_action=False),
                  drifting_ring(), False),
    })
    return cases


class TestGeneratedPermutations:
    """The generator route against the direct match of every element's
    images (``_unique_route``): the same array or the same error text,
    and the direct match wherever the route cannot show its rows."""

    @pytest.fixture(scope="class")
    def cases(self):
        return generator_route_cases()

    @pytest.mark.parametrize("name", list(generator_route_cases()))
    def test_same_as_unique_route(self, cases, name):
        g, pts, holds = cases[name]
        expected = _unique_route(g, pts, TOL_CHECK)
        generated = _generated_permutations(g, pts, TOL_CHECK)
        assert (generated is not None) is holds
        if holds:
            assert np.array_equal(generated, expected)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                _point_permutations(g, pts, TOL_CHECK)
        else:
            assert np.array_equal(_point_permutations(g, pts, TOL_CHECK),
                                  expected)

    def test_failures_keep_the_direct_texts(self, cases):
        assert "element 1 moves point" in _unique_route(
            *cases["point-removed"][:2], TOL_CHECK)
        assert not isinstance(_unique_route(
            *cases["pair-at-1.5-tol"][:2], TOL_CHECK), str)
        # The one-step rotation matches every point; its square does not.
        assert _unique_route(*cases["drift"][:2], TOL_CHECK).startswith(
            "sample set is not orbit saturated: element 2 moves point")

    def test_image_past_tol_takes_the_direct_route(self):
        # Point 3 lies 2 tol off the ring: element 1's image of point 2 is
        # the only sample near it, found by the 4-tol query but beyond tol.
        tol = 1e-8
        angles = 2.0 * np.pi * np.arange(8) / 8
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        pts[3] *= 1.0 + 2.0 * tol
        g = rotation_group(8)
        assert _generated_permutations(g, pts, tol) is None
        with pytest.raises(ValueError, match="^" + re.escape(
                "sample set is not orbit saturated: element 1 moves point "
                f"{pts[2].tolist()} off the sample set") + "$"):
            _point_permutations(g, pts, tol)

    def test_peak_memory_rot48(self, cases):
        g, pts, _ = cases["rot48-ring2401"]
        tracemalloc.start()
        try:
            _point_permutations(g, pts, TOL_CHECK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def radial_line_bundle(order=8, tilt=0.0, tilted=3):
    """Rank-1 radial lines over an ``order``-point unit ring, equivariant
    under ``rotation_group(order)`` until the line over point ``tilted``
    is turned by ``tilt``: element 1 then carries the line over point
    ``tilted - 1`` onto a line at angle ``tilt`` to the fiber there."""
    angles = 2.0 * np.pi * np.arange(order) / order
    base = Stratification([Stratum(
        "ring", 1, np.column_stack([np.cos(angles), np.sin(angles)]))])
    turn = np.where(np.arange(order) == tilted, tilt, 0.0)
    fibers = {("ring", k): span([(np.cos(a + t), np.sin(a + t))], 2)
              for k, (a, t) in enumerate(zip(angles, turn))}
    return SampledStratifiedBundle(base, 2, fibers, {"ring": 1})


class TestEquivarianceThreshold:
    CASES = [
        (invariant_subbundle, "bundle is not equivariant: element 1 maps "
         "the fiber over ('ring', 2) with gap 2.000e-08"),
        (quotient_bundle, "representative fiber mismatch across an orbit: "
         "element 1 at ('ring', 2) has gap 2.000e-08"),
    ]

    @pytest.mark.parametrize("build, message", CASES,
                             ids=["invariant", "quotient"])
    def test_tilt_above_tolerance_rejected(self, build, message):
        b = radial_line_bundle(tilt=np.arcsin(2 * TOL_CHECK))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(rotation_group(8), b, r_cc=1.0)

    @pytest.mark.parametrize("build", [c[0] for c in CASES],
                             ids=["invariant", "quotient"])
    def test_tilt_below_tolerance_accepted(self, build):
        b = radial_line_bundle(tilt=np.arcsin(TOL_CHECK / 2))
        out = build(rotation_group(8), b, r_cc=1.0)
        assert set(out.stratum_rank.values()) == {1}

    # Tilting a line by theta makes a defect of eigenvalues +-sin(theta):
    # spectral norm sin(theta), Frobenius norm sqrt(2) sin(theta).
    @pytest.mark.parametrize("build", [c[0] for c in CASES],
                             ids=["invariant", "quotient"])
    def test_frobenius_above_spectral_below_accepted(self, build,
                                                     monkeypatch):
        g = rotation_group(8)
        b = radial_line_bundle(tilt=np.arcsin(0.9 * TOL_CHECK))
        perms = _point_permutations(g, b.base._cloud, TOL_CHECK)
        defects = _equivariance_defects(g, b, perms)
        frobenius = np.sqrt((defects ** 2).sum(axis=(2, 3)))
        assert frobenius.max() > TOL_CHECK
        assert equivariance_gaps(g, b, perms).max() <= TOL_CHECK
        got = dumps(bundle_to_json(build(g, b, r_cc=1.0)))
        monkeypatch.setattr(equivariant, "_spectral_norms",
                            lambda stack, tol: opnorms(stack))
        assert dumps(bundle_to_json(build(g, b, r_cc=1.0))) == got

    @pytest.mark.parametrize("build, message", [
        (invariant_subbundle, "bundle is not equivariant: element {i} maps "
         "the fiber over {key} with gap {gap:.3e}"),
        (quotient_bundle, "representative fiber mismatch across an orbit: "
         "element {i} at {key} has gap {gap:.3e}"),
    ], ids=["invariant", "quotient"])
    def test_just_above_names_the_exact_gap(self, build, message):
        # The message is built from the exact gaps, one solve for each
        # element and fiber.
        g = rotation_group(8)
        b = radial_line_bundle(tilt=np.arcsin(1.1 * TOL_CHECK))
        gaps = equivariance_gaps(
            g, b, _point_permutations(g, b.base._cloud, TOL_CHECK))
        i, p = np.argwhere(gaps > TOL_CHECK)[0]
        want = message.format(i=i, key=b.point_keys()[p], gap=gaps[i, p])
        assert want.endswith("gap 1.100e-08")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            build(g, b, r_cc=1.0)


def z_rotation_group(order=6):
    """The ``order`` rotations of R^3 about the z-axis, acting on fibers
    in R^3 by the same matrices."""
    mats = []
    for k in range(order):
        c, s = np.cos(2.0 * np.pi * k / order), np.sin(2.0 * np.pi * k / order)
        mats.append(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
    return FiniteGroupAction(3, mats, fiber_elements=mats)


def z_axis_bundle(order=6, tilt=0.0, tilted=2):
    """Fibers in R^3 of ranks 0, 1, 2 and 1 over the origin, two points
    of the z-axis, a unit ring and a raised ring of radius 0.5, each ring
    ``order`` points: nothing, the z-axis, the plane of the tangent and
    the z-axis, and the radial line.  Equivariant under
    ``z_rotation_group(order)`` until the plane over ring point
    ``tilted`` is turned by ``tilt`` about its tangent."""
    angles = 2.0 * np.pi * np.arange(order) / order
    radial = np.column_stack([np.cos(angles), np.sin(angles),
                              np.zeros(order)])
    tangent = np.column_stack([-np.sin(angles), np.cos(angles),
                               np.zeros(order)])
    up = np.array([0.0, 0.0, 1.0])
    turn = np.where(np.arange(order) == tilted, tilt, 0.0)[:, None]
    base = Stratification([
        Stratum("origin", 0, [[0.0, 0.0, 0.0]]),
        Stratum("axis", 1, [[0.0, 0.0, -1.0], [0.0, 0.0, 0.5]]),
        Stratum("ring", 1, radial),
        Stratum("raised", 1, 0.5 * radial + 0.5 * up)])
    planes = np.stack([tangent, up * np.cos(turn) + radial * np.sin(turn)],
                      axis=1)
    fibers = {("origin", 0): Subspace.zero(3),
              ("axis", 0): span([up], 3), ("axis", 1): span([up], 3)}
    for k in range(order):
        fibers[("ring", k)] = span(planes[k], 3)
        fibers[("raised", k)] = span(radial[k:k + 1], 3)
    return SampledStratifiedBundle(base, 3, fibers, {
        "origin": 0, "axis": 1, "ring": 2, "raised": 1})


@pytest.fixture(scope="module")
def equivariance_inputs():
    """(group, bundle) pairs: rotation rings, the dihedral grid, their
    tilde bundles, and a tilted radial-line ring."""
    cases = {}
    grid = Stratification([Stratum("plane", 2, grid_points(step=0.25))])
    for name, (g, b, r_cc) in {
            "ring8": (rotation_group(8), ring_tangent_bundle(8), 1.0),
            "ring12": (rotation_group(12), ring_tangent_bundle(12), 1.0),
            "grid": (dihedral_square_group(with_tangent_action=True),
                     trivial_bundle(grid, 2), 0.4)}.items():
        cases[name] = (g, b)
        cases[f"{name}-tilde"] = (g, invariant_subbundle(g, b, r_cc=r_cc))
    cases["radial-tilted"] = (rotation_group(8),
                              radial_line_bundle(tilt=0.3))
    cases["z-axis-tilted"] = (z_rotation_group(), z_axis_bundle(tilt=0.3))
    return cases


class TestAuditReference:
    @pytest.mark.parametrize("name", ["ring8", "ring8-tilde", "ring12",
                                      "ring12-tilde", "grid", "grid-tilde",
                                      "radial-tilted", "z-axis-tilted"])
    def test_conjugated_projections_match_image_spans(
            self, equivariance_inputs, name):
        # Reference: span the image of each basis under the fiber matrix,
        # then take the gap to the fiber over the image point.
        g, b = equivariance_inputs[name]
        keys = b.point_keys()
        perms = _point_permutations(
            g, np.array([b.point(key) for key in keys]), TOL_CHECK)
        gaps = equivariance_gaps(g, b, perms)
        reference = np.array([
            [gap_distance(apply_linear_map(g.fiber_elements[i], b.fiber(key)),
                          b.fiber(keys[perm[p]]))
             for p, key in enumerate(keys)]
            for i, perm in enumerate(perms)])
        assert gaps.shape == (g.order, len(keys))
        assert np.abs(gaps - reference).max() <= 1e-12

    def test_z_axis_bundle_mixes_ranks_and_gaps(self, equivariance_inputs):
        g, b = equivariance_inputs["z-axis-tilted"]
        assert b.stratum_rank == {"origin": 0, "axis": 1, "ring": 2,
                                  "raised": 1}
        perms = _point_permutations(g, b.base._cloud, TOL_CHECK)
        gaps = equivariance_gaps(g, b, perms)
        # Only fibers moved onto or off the tilted plane have a gap.
        ring = slice(3, 9)
        assert (gaps[:, ring] > 0.1).sum() == 2 * (g.order - 1)
        assert gaps[:, :3].max() <= 1e-12 and gaps[:, 9:].max() <= 1e-12
        untilted = z_axis_bundle()
        assert equivariance_gaps(g, untilted, perms).max() <= 1e-12


def _stretched(m, defect, axis):
    """``m`` stretched along the unit vector ``axis`` so that its
    orthogonality defect ``||M M^T - I||_2`` is ``defect``."""
    u = np.asarray(axis, dtype=float)
    stretch = np.sqrt(1.0 + defect) - 1.0
    return (np.eye(len(u)) + stretch * np.outer(u, u)) @ m


class TestOrthogonalityThreshold:
    # Element 3 of the eighth-turn rotations is stretched along (0.6,
    # 0.8).  At half the tolerance its products still match the table
    # within _TOL_GROUP; at twice the tolerance it is rejected first.
    @pytest.mark.parametrize("fiber", [False, True],
                             ids=["element", "fiber-element"])
    def test_defect_flips_at_tolerance(self, fiber):
        g = rotation_group(8)
        for factor in (0.5, 2.0):
            mats = [m.copy() for m in g.elements]
            fibers = [m.copy() for m in g.fiber_elements]
            stretched = fibers if fiber else mats
            stretched[3] = _stretched(stretched[3], factor * _TOL_GROUP,
                                      (0.6, 0.8))
            defect = np.linalg.norm(stretched[3] @ stretched[3].T - np.eye(2),
                                    2)
            assert defect == pytest.approx(factor * _TOL_GROUP, rel=1e-6)
            if factor < 1.0:
                out = FiniteGroupAction(2, mats, fiber_elements=fibers)
                assert np.array_equal(out.table, g.table)
            else:
                with pytest.raises(ValueError, match=(
                        f"^{'fiber ' if fiber else ''}element 3 is not "
                        "orthogonal$")):
                    FiniteGroupAction(2, mats, fiber_elements=fibers)

    # Stretched along two orthogonal axes, element 3 has M M^T - I of
    # two equal eigenvalues: its Frobenius norm is sqrt(2) times its
    # spectral norm, so at 0.9 tolerance only the spectral norm is within.
    @pytest.mark.parametrize("fiber", [False, True],
                             ids=["element", "fiber-element"])
    def test_two_axis_defect_flips_at_tolerance(self, fiber):
        g = rotation_group(8)
        for factor in (0.9, 1.1):
            mats = [m.copy() for m in g.elements]
            fibers = [m.copy() for m in g.fiber_elements]
            stretched = fibers if fiber else mats
            for axis in ((0.6, 0.8), (-0.8, 0.6)):
                stretched[3] = _stretched(stretched[3], factor * _TOL_GROUP,
                                          axis)
            defect = stretched[3] @ stretched[3].T - np.eye(2)
            assert np.linalg.norm(defect, 2) == pytest.approx(
                factor * _TOL_GROUP, rel=1e-6)
            assert np.linalg.norm(defect) > _TOL_GROUP
            if factor < 1.0:
                out = FiniteGroupAction(2, mats, fiber_elements=fibers)
                assert np.array_equal(out.table, g.table)
                assert np.array_equal(out.fiber_elements, np.stack(fibers))
            else:
                with pytest.raises(ValueError, match=(
                        f"^{'fiber ' if fiber else ''}element 3 is not "
                        "orthogonal$")):
                    FiniteGroupAction(2, mats, fiber_elements=fibers)

    @pytest.mark.parametrize("fiber", [False, True],
                             ids=["element", "fiber-element"])
    def test_non_finite_matrix_is_not_orthogonal(self, fiber):
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        fibers = [[[1.0]], [[-1.0]]]
        if fiber:
            fibers[1] = [[np.nan]]
        else:
            mats[1] = np.diag([np.nan, -1.0])
        with pytest.raises(ValueError, match=(
                f"^{'fiber ' if fiber else ''}element 1 is not orthogonal$")):
            FiniteGroupAction(2, mats, fiber_elements=fibers)


class TestQuotientBundle:
    def test_sign_flip_quotient(self):
        g = sign_flip_group()
        tilde = invariant_subbundle(g, sign_flip_tangent_bundle(), r_cc=0.06)
        quot = quotient_bundle(g, tilde, r_cc=0.06)
        assert sorted(quot.stratum_rank.values()) == [0, 1]
        # One representative per orbit: origin plus one point per pair.
        assert sum(len(s) for s in quot.base.strata) == 21
        comparison = tangent_comparison(quot)
        assert comparison.isomorphic  # ranks (0, 1) match dims (0, 1)

    def test_trivial_group_is_identity(self):
        g = FiniteGroupAction(1, [np.eye(1)], fiber_elements=[np.eye(2)])
        b = trivial_bundle(line_stratification(), 2)
        tilde = invariant_subbundle(g, b, r_cc=0.06)
        quot = quotient_bundle(g, tilde, r_cc=0.06)
        assert sum(len(s) for s in quot.base.strata) == \
            sum(len(s) for s in b.base.strata)
        assert set(quot.stratum_rank.values()) == {2}

    def test_rotation_ring_quotient_ranks(self):
        g = rotation_group(8)
        tilde = invariant_subbundle(g, ring_tangent_bundle(8), r_cc=1.0)
        quot = quotient_bundle(g, tilde, r_cc=1.0)
        ranks = sorted(quot.stratum_rank.values())
        assert ranks == [0, 2]
        # Each 8-point ring collapses to one representative.
        assert sum(len(s) for s in quot.base.strata) == 3

    def test_square_symmetries_of_plane_tangent(self):
        # Full pipeline over all four orbit-type classes: origin keeps
        # nothing, axis and diagonal points keep their mirror line,
        # generic points keep the whole tangent plane.  For a finite
        # group the orbits are zero-dimensional, so the quotient must be
        # rank-isomorphic to the stratified tangent of its base.
        from svb.strata import Stratification, Stratum
        g = dihedral_square_group(with_tangent_action=True)
        pts = grid_points(step=0.25)
        base = Stratification([Stratum("plane", 2, pts)])
        bundle = trivial_bundle(base, 2)
        tilde = invariant_subbundle(g, bundle, r_cc=0.4)
        label_rank = {}
        for stratum in tilde.base.strata:
            label_rank.setdefault(stratum.name.split("_")[0],
                                  tilde.stratum_rank[stratum.name])
        assert label_rank == {"type0": 0, "type1": 1, "type2": 1,
                              "type3": 2}
        quot = quotient_bundle(g, tilde, r_cc=0.4)
        comparison = tangent_comparison(quot)
        assert comparison.isomorphic
        # Orbit sizes 1 (origin), 4 (axes), 4 (diagonals), 8 (generic):
        # 81 grid points collapse to 15 representatives.
        assert sum(len(s) for s in quot.base.strata) == 15


def union_find_representatives(pts, perms):
    """The reference rule for quotient representatives: the orbits as
    components of the graph that joins each point to its images, each
    represented by its lexicographically least member."""
    orbits = strata.graph_components(
        len(pts), [(np.arange(len(pts)), perm) for perm in perms])
    return np.array(sorted(min(members, key=lambda p: tuple(pts[p]))
                           for members in orbits))


def seeded_ring(order, seed=0):
    """The rotation group of ``order`` and the tilde of its tangent
    bundle on rings of 10 seeded radii."""
    g = rotation_group(order)
    radii = np.random.default_rng(seed).uniform(0.1, 1.0, 10).tolist()
    return g, invariant_subbundle(g, ring_tangent_bundle(order, radii),
                                  r_cc=0.25)


def quotient_inputs():
    """(group, tilde, r_cc) of every quotient compared with the
    reference rule."""
    cases = {f"rot{order}": (*seeded_ring(order), 0.25)
             for order in (8, 12, 16, 48)}
    g = rotation_group(12)
    ring = ring_tangent_bundle(12, np.linspace(0.2, 1.0, 200).tolist())
    cases["ring2401"] = (g, invariant_subbundle(g, ring, r_cc=0.25), 0.25)
    g = dihedral_square_group(with_tangent_action=True)
    grid = trivial_bundle(Stratification([Stratum("plane", 2,
                                                  grid_points(0.25))]), 2)
    cases["dihedral"] = (g, invariant_subbundle(g, grid, r_cc=0.4), 0.4)
    g = sign_flip_group()
    cases["sign_flip"] = (
        g, invariant_subbundle(g, sign_flip_tangent_bundle(), r_cc=0.06), 0.06)
    return cases


class TestQuotientRepresentatives:
    """``quotient_bundle`` reads each orbit off a column of the
    permutation table; its output bytes must equal those of the union
    find and per-orbit lexicographic ``min`` it replaced."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return quotient_inputs()

    @pytest.mark.parametrize("case", ["rot8", "rot12", "rot16", "rot48",
                                      "ring2401", "dihedral", "sign_flip"])
    def test_same_bytes_as_union_find(self, inputs, case, monkeypatch):
        g, tilde, r_cc = inputs[case]
        pts = tilde.base._cloud
        perms = _point_permutations(g, pts, TOL_CHECK)
        reps = equivariant._orbit_representatives(pts, perms)
        assert np.array_equal(reps, union_find_representatives(pts, perms))
        got = dumps(bundle_to_json(quotient_bundle(g, tilde, r_cc=r_cc)))
        monkeypatch.setattr(equivariant, "_orbit_representatives",
                            union_find_representatives)
        want = dumps(bundle_to_json(quotient_bundle(g, tilde, r_cc=r_cc)))
        assert got == want

    def test_ties_go_to_the_lowest_index(self):
        # Orbits {0, 3}, whose points tie on their first coordinate, and
        # {1, 2}, whose points are equal.
        pts = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.5]])
        perms = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        reps = equivariant._orbit_representatives(pts, perms)
        assert reps.tolist() == [1, 3]
        assert np.array_equal(reps, union_find_representatives(pts, perms))


class TestOrbitInvariants:
    def test_stabilizers_conjugate_along_orbits(self):
        g = dihedral_square_group()
        pts = grid_points(step=0.5)
        for p in pts:
            stab = stabilizer(g, p)
            for t in range(g.order):
                moved = g.elements[t] @ p
                assert stabilizer(g, moved) == tuple(
                    equivariant._conjugates(g, stab)[t].tolist())

    def test_fixed_subspace_is_invariant(self):
        g = dihedral_square_group()
        for sub in [(0,), (0, 4), (0, 1, 2, 3), tuple(range(8))]:
            fixed = fixed_subspace(g, sub)
            p = fixed.projection
            for h in sub:
                m = g.elements[h]
                assert np.linalg.norm(m @ p @ m.T - p, 2) <= 1e-10


class TestCircleRankTable:
    def test_rank_table(self):
        # Criterion 5's table, computed with Z_N for the circle: the same
        # for every N, and each stratum's orbit rank is one number.
        for n in (2, 3, 8, 12):
            quotient_ranks, tangent_ranks, orbit_ranks = circle_rank_table(n)
            assert quotient_ranks == {"origin": 0, "generic": 2}
            assert tangent_ranks == {"origin": 0, "generic": 1}
            assert orbit_ranks == {"origin": {0}, "generic": {1}}

