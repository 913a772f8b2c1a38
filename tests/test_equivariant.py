import re

import numpy as np
import pytest

from svb import strata
from svb.bundle import SampledStratifiedBundle, trivial_bundle
from svb.config import TOL_CHECK
from svb.equivariant import (
    FiniteGroupAction,
    _equivariance_gaps,
    _point_permutations,
    circle_action_on_plane_report,
    conjugacy_label,
    fixed_subspace,
    invariant_subbundle,
    orbit_type_partition,
    quotient_bundle,
    stabilizer,
    tangent_comparison,
)
from svb.fixtures import (
    axis_reflection_group,
    dihedral_square_group,
    line_stratification,
    ring_tangent_bundle,
    rotation_group,
    sign_flip_group,
    sign_flip_tangent_bundle,
)
from svb.grassmann import Subspace, apply_linear_map, gap_distance, span
from svb.strata import Stratification, Stratum, check_frontier


def trivial_group(n=2):
    return FiniteGroupAction(n, [np.eye(n)],
                             fiber_elements=[np.eye(n)])


def grid_points(step=0.5, extent=1.0):
    axis = np.arange(-extent, extent + step / 2, step)
    return np.array([[x, y] for x in axis for y in axis])


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

    def test_inverses_found(self):
        g = dihedral_square_group()
        for i in range(g.order):
            assert g.multiply(i, int(g.inverse[i])) == g.identity_index


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

    def test_non_closed_subset_rejected(self):
        g = dihedral_square_group()
        with pytest.raises(ValueError, match="idempotent"):
            fixed_subspace(g, (0, 1))  # identity + quarter rotation


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
            assert stratum.dim == fixed_subspace(g, label.indices).dim

    def test_declared_closure_survives_audit(self):
        # The finer grid keeps every stratum spatially extended, so the
        # conservative touch trigger fires only on genuine frontier pairs.
        g = dihedral_square_group()
        part = orbit_type_partition(g, grid_points(step=0.25), r_cc=0.4)
        report = check_frontier(part.stratification, eps_touch=0.3,
                                delta_cover=0.3)
        assert report.passed, report.violations


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
        fibers = dict(b.fibers)
        fibers[("S+", 0)] = Subspace.zero(1)
        ranks = dict(b.stratum_rank)
        broken = SampledStratifiedBundle(b.base, 1, fibers, ranks)
        with pytest.raises(ValueError, match="equivariant"):
            invariant_subbundle(g, broken)


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

    def test_permutation_matches_images(self, monkeypatch):
        monkeypatch.setattr(strata, "_CHUNK", 2)
        g = dihedral_square_group()
        pts = grid_points(step=0.5)
        for m, perm in zip(g.elements, _point_permutations(g, pts, 1e-8)):
            assert np.allclose(pts[perm], pts @ m.T)


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
    return cases


class TestAuditReference:
    @pytest.mark.parametrize("name", ["ring8", "ring8-tilde", "ring12",
                                      "ring12-tilde", "grid", "grid-tilde",
                                      "radial-tilted"])
    def test_conjugated_projections_match_image_spans(
            self, equivariance_inputs, name):
        # Reference: span the image of each basis under the fiber matrix,
        # then take the gap to the fiber over the image point.
        g, b = equivariance_inputs[name]
        keys = b.point_keys()
        perms = _point_permutations(
            g, np.array([b.point(key) for key in keys]), TOL_CHECK)
        gaps = _equivariance_gaps(g, b, keys, perms)
        reference = np.array([
            [gap_distance(apply_linear_map(g.fiber_elements[i], b.fiber(key)),
                          b.fiber(keys[perm[p]]))
             for p, key in enumerate(keys)]
            for i, perm in enumerate(perms)])
        assert gaps.shape == (g.order, len(keys))
        assert np.abs(gaps - reference).max() <= 1e-12


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


class TestOrbitInvariants:
    def test_stabilizers_conjugate_along_orbits(self):
        g = dihedral_square_group()
        pts = grid_points(step=0.5)
        for p in pts:
            stab = stabilizer(g, p)
            for t in range(g.order):
                moved = g.elements[t] @ p
                assert stabilizer(g, moved) == g.conjugate_subgroup(stab, t)

    def test_fixed_subspace_is_invariant(self):
        g = dihedral_square_group()
        for sub in [(0,), (0, 4), (0, 1, 2, 3), tuple(range(8))]:
            fixed = fixed_subspace(g, sub)
            p = fixed.projection
            for h in sub:
                m = g.elements[h]
                assert np.linalg.norm(m @ p @ m.T - p, 2) <= 1e-10


class TestCircleActionReport:
    def test_rank_table(self):
        report = circle_action_on_plane_report()
        assert report.quotient_ranks == {"origin": 0, "generic": 2}
        assert report.tangent_ranks == {"origin": 0, "generic": 1}
        assert report.isomorphic is False
