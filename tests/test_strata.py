import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svb import strata
from svb.equivariant import orbit_type_partition
from svb.fixtures import (
    cantor_stratification,
    cone_stratification,
    dihedral_square_group,
    line_stratification,
    local_line_stratification,
)
from svb.strata import (
    Stratification,
    Stratum,
    check_frontier,
    estimate_cloud_dim,
    filtration,
    graph_components,
    local_finiteness_report,
    near_pairs,
    single_linkage_components,
)


def single_stratum():
    return Stratification([Stratum("only", 1,
                                   np.linspace(0, 1, 11).reshape(-1, 1))])


class TestConstruction:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            Stratum("empty", 0, np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="'s' has a non-finite sample"):
            Stratum("s", 0, [[0.0, 1.0], [2.0, bad]])

    def test_duplicate_names_rejected(self):
        a = Stratum("s", 0, [[0.0]])
        b = Stratum("s", 0, [[1.0]])
        with pytest.raises(ValueError):
            Stratification([a, b])

    def test_overlapping_clouds_rejected(self):
        a = Stratum("a", 0, [[0.0]])
        b = Stratum("b", 1, [[0.0], [1.0]])
        with pytest.raises(ValueError, match="share a sample"):
            Stratification([a, b])

    def test_closure_cycle_rejected(self):
        a = Stratum("a", 0, [[0.0]])
        b = Stratum("b", 0, [[1.0]])
        with pytest.raises(ValueError, match="cycle"):
            Stratification([a, b], closure_order=[("a", "b"), ("b", "a")])

    def test_reflexive_pair_rejected(self):
        a = Stratum("a", 0, [[0.0]])
        with pytest.raises(ValueError, match="reflexive"):
            Stratification([a], closure_order=[("a", "a")])

    def test_unknown_name_rejected(self):
        a = Stratum("a", 0, [[0.0]])
        with pytest.raises(ValueError, match="unknown"):
            Stratification([a], closure_order=[("a", "ghost")])

    def test_transitive_queries(self):
        a = Stratum("a", 0, [[0.0]])
        b = Stratum("b", 1, [[1.0]])
        c = Stratum("c", 2, [[2.0]])
        s = Stratification([a, b, c], closure_order=[("a", "b"), ("b", "c")])
        assert s.in_closure("a", "c")
        assert not s.in_closure("c", "a")


class TestCheckFrontier:
    def test_line_fixture_passes(self):
        report = check_frontier(line_stratification(), 0.05, 0.05)
        assert report.passed
        assert report.touching_pairs == (("S0", "S+"), ("S0", "S-"))

    def test_single_stratum_vacuous(self):
        assert check_frontier(single_stratum(), 0.05, 0.05).passed

    def test_missing_declaration_fails(self):
        base = line_stratification()
        broken = Stratification(base.strata, closure_order=[("S0", "S-")])
        report = check_frontier(broken, 0.05, 0.05)
        assert not report.passed
        assert [(v.s, v.r, v.reason) for v in report.violations] == [
            ("S0", "S+", "undeclared")]
        assert report.violations[0].witness == (0.0,)

    def test_cover_failure_reported(self):
        # Declared pair whose covering fails once delta shrinks below the
        # sample spacing.
        report = check_frontier(line_stratification(), eps_touch=0.05,
                                delta_cover=0.01)
        assert not report.passed
        assert {v.reason for v in report.violations} == {"not_covered"}

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            check_frontier(line_stratification(), -1.0, 0.05)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 17])
    def test_matches_dense_reference(self, monkeypatch, chunk):
        monkeypatch.setattr(strata, "_CHUNK", chunk)
        rng = np.random.default_rng(8)
        pts = np.unique(rng.random((300, 2)).round(2), axis=0)
        label = rng.integers(0, 6, len(pts))
        s = Stratification(
            [Stratum(f"t{k}", 0, pts[label == k]) for k in range(6)],
            closure_order=[(f"t{a}", f"t{b}") for a in range(6)
                           for b in range(a + 2, 6)])
        for eps in (0.05, 0.15, 0.3, 2.0):
            touching, violations = [], []
            for a in s.strata:
                for b in s.strata:
                    d = np.sqrt(((a.points[:, None] - b.points[None]) ** 2)
                                .sum(-1)).min(axis=1)
                    if a is b or (d > eps).any():
                        continue
                    touching.append((a.name, b.name))
                    w = int(np.argmax(d))
                    reason = ("undeclared" if not s.in_closure(a.name, b.name)
                              else "not_covered" if d[w] > eps / 2 else None)
                    if reason:
                        violations.append(strata.FrontierViolation(
                            a.name, b.name, reason, tuple(a.points[w]),
                            float(d[w])))
            report = check_frontier(s, eps, eps / 2)
            assert report.touching_pairs == tuple(touching)
            assert report.violations == tuple(violations)

    @pytest.mark.parametrize("eps, delta", [(np.nan, 0.05), (0.05, np.nan)])
    def test_nan_thresholds_rejected(self, eps, delta):
        with pytest.raises(ValueError, match="must be positive"):
            check_frontier(line_stratification(), eps, delta)


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(min_value=1e-3, max_value=0.2),
       bigger=st.floats(min_value=1.0, max_value=10.0))
def test_frontier_monotone_in_delta(delta, bigger):
    s = line_stratification()
    first = check_frontier(s, eps_touch=0.05, delta_cover=delta)
    second = check_frontier(s, eps_touch=0.05, delta_cover=delta * bigger)
    if first.passed:
        assert second.passed


class TestFiltration:
    def test_line_dims(self):
        s = line_stratification()
        assert filtration(s) == [{"S0"}, {"S0", "S+", "S-"}]

    def test_top_dimensional_only(self):
        a = Stratum("a", 2, [[0.0, 0.0]])
        b = Stratum("b", 2, [[1.0, 0.0]])
        s = Stratification([a, b])
        assert filtration(s) == [set(), set(), {"a", "b"}]

    def test_cone_fixture(self):
        s = cone_stratification()
        skeleta = filtration(s)
        assert skeleta[0] == {"vertex"}
        assert skeleta[1] == {"vertex", "arc+", "arc-"}

    def test_idempotent_and_order_independent(self):
        s = line_stratification()
        reordered = Stratification(list(reversed(s.strata)),
                                   closure_order=s.closure_order)
        assert filtration(s) == filtration(reordered)
        assert filtration(s) == filtration(s)


class TestLocalFiniteness:
    def test_line_fixture(self):
        report = local_finiteness_report(local_line_stratification(), 0.1)
        assert report.max_count == 2
        assert report.passed

    def test_single_stratum_counts_one(self):
        report = local_finiteness_report(single_stratum(), 0.01)
        assert all(c == 1 for _, _, c in report.counts)

    def test_cantor_fixture_flagged(self):
        report = local_finiteness_report(cantor_stratification(6), 0.1,
                                         threshold=3)
        assert not report.passed
        assert len(report.flagged) > 0

    def test_cantor_flagged_nondecreasing_in_level(self):
        flagged = [len(local_finiteness_report(cantor_stratification(k), 0.1,
                                               threshold=3).flagged)
                   for k in range(2, 7)]
        assert all(a <= b for a, b in zip(flagged, flagged[1:]))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            local_finiteness_report(single_stratum(), 0.0)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            local_finiteness_report(single_stratum(), np.nan)
        with pytest.raises(ValueError, match="radius must be positive"):
            single_linkage_components(np.zeros((2, 1)), np.nan)


class TestCloudDim:
    def test_singleton(self):
        assert estimate_cloud_dim(np.array([[3.0, 4.0]])) == 0

    def test_line_cloud(self):
        pts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        assert estimate_cloud_dim(pts) == 1

    def test_planar_cloud(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((25, 2))
        assert estimate_cloud_dim(pts) == 2


def _kernel_results():
    grid = np.array([[x, y] for x in np.arange(-1.0, 1.01, 0.25)
                     for y in np.arange(-1.0, 1.01, 0.25)])
    part = orbit_type_partition(dihedral_square_group(), grid, r_cc=0.4)
    return (
        check_frontier(line_stratification(), 0.05, 0.05),
        check_frontier(cone_stratification(), 0.08, 0.01),
        check_frontier(cantor_stratification(4)),
        local_finiteness_report(cantor_stratification(5), 0.1, threshold=3),
        local_finiteness_report(local_line_stratification(), 0.1),
        single_linkage_components(
            np.concatenate([s.points for s in cone_stratification().strata]),
            0.05),
        single_linkage_components(grid, 0.3),
        [(s.name, s.dim, s.points.tolist())
         for s in part.stratification.strata],
        part.stratification.closure_order,
        part.labels, part.point_to_key, part.label_of_stratum,
    )


def _pairs(a, b, r):
    """All ``near_pairs`` triples as a sorted list."""
    return sorted((int(i), int(j), float(d)) for chunk in near_pairs(a, b, r)
                  for i, j, d in zip(*chunk))


def _brute_pairs(a, b, r):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return sorted((int(i), int(j), float(d[i, j]))
                  for i, j in zip(*np.nonzero(d <= r)))


class TestDistanceKernel:
    def test_chunks_cover_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(strata, "_CHUNK", 5)
        a = np.arange(12.0).reshape(6, 2)
        # Two candidates per row: two rows fit in a chunk of five.
        chunks = list(near_pairs(a, a[:2], 100.0))
        assert [sorted(set(i.tolist())) for i, _, _ in chunks] == [
            [0, 1], [2, 3], [4, 5]]
        assert _pairs(a, a[:2], 100.0) == _brute_pairs(a, a[:2], 100.0)
        hit = [d for i, j, d in _pairs(a, a[:2], 100.0) if (i, j) == (3, 1)]
        assert hit == [np.linalg.norm(a[3] - a[1])]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_near_pairs_match_brute_force(self, dim):
        rng = np.random.default_rng(dim)
        a, b = rng.random((150, dim)), rng.random((90, dim))
        for r in (0.05, 0.3, 3.0):
            assert _pairs(a, b, r) == _brute_pairs(a, b, r)

    def test_pair_at_exactly_the_radius(self):
        pts = 1e3 * np.random.default_rng(11).random((200, 3))
        for i in range(0, 200, 2):
            d = np.sqrt(((pts[i] - pts[i + 1]) ** 2).sum(-1))
            assert (i, i + 1, d) in _pairs(pts, pts, d)
            inside = _pairs(pts, pts, np.nextafter(d, 0.0))
            assert (i, i + 1) not in {(p, q) for p, q, _ in inside}

    def test_pair_on_a_cell_boundary(self):
        r = 0.1
        a = np.array([[3 * r, 0.0], [-r, 0.0]])
        b = np.array([[4 * r, 0.0], [0.0, 0.0], [3 * r + 1e-9, 0.1]])
        assert _pairs(a, b, r) == _brute_pairs(a, b, r)
        assert (0, 0) in {(i, j) for i, j, _ in _pairs(a, b, r)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6),
           st.floats(1e-3, 2.0), st.integers(0, 2 ** 16))
    def test_grid_misses_no_pair(self, n, dim, r, seed):
        pts = np.random.default_rng(seed).random((n, dim)).round(1)
        assert _pairs(pts, pts, r) == _brute_pairs(pts, pts, r)

    def test_small_chunks_match_one_chunk(self, monkeypatch):
        monkeypatch.setattr(strata, "_CHUNK", 1 << 60)
        whole = _kernel_results()
        for chunk in (1, 3):
            monkeypatch.setattr(strata, "_CHUNK", chunk)
            assert _kernel_results() == whole

    def test_first_shared_pair_named(self):
        a = Stratum("a", 0, [[0.0], [4.0]])
        b = Stratum("b", 0, [[1.0], [3.0]])
        c = Stratum("c", 0, [[2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="'a' and 'c' share"):
            Stratification([a, b, c])

    def test_negative_zero_is_shared(self):
        a = Stratum("a", 0, [[0.0, 1.0]])
        b = Stratum("b", 0, [[2.0, 2.0], [-0.0, 1.0]])
        with pytest.raises(ValueError, match="'a' and 'b' share"):
            Stratification([a, b])

    def test_distinct_points_closer_than_underflow_are_not_shared(self):
        # Their squared difference underflows, so the distance formula
        # reads 0; disjointness is decided by equality, not distance.
        a = Stratum("a", 0, [[0.0]])
        b = Stratum("b", 0, [[1e-200]])
        s = Stratification([a, b])
        assert _pairs(s._cloud, s._cloud, 1e-300) == [
            (0, 0, 0.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 0.0)]

    def test_single_linkage_memory_bounded(self):
        pts = np.random.default_rng(3).random((3000, 3))
        tracemalloc.start()
        try:
            components = single_linkage_components(pts, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(i for c in components for i in c) == list(range(3000))
        assert peak < 64 * 2 ** 20

    def test_memory_bounded_at_the_cloud_diameter(self):
        pts = np.random.default_rng(4).random((3000, 3))
        s = Stratification([Stratum(f"s{k}", 3, pts[k::3]) for k in range(3)])
        radius = 2.0  # above the unit cube's diameter, sqrt(3)
        tracemalloc.start()
        try:
            components = single_linkage_components(pts, radius)
            report = check_frontier(s, radius, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert components == [list(range(3000))]
        assert len(report.touching_pairs) == 6
        assert peak < 64 * 2 ** 20

    def test_memory_bounded_with_many_strata(self):
        # 1,000 strata share 2,000 points of the unit interval, so at
        # radius 1 each of those points is near every stratum; a private
        # outlier keeps every stratum from touching any other.
        shared = np.random.default_rng(5).random(2000)
        s = Stratification([
            Stratum(f"s{k}", 0, np.r_[shared[k::1000], 3.0 + 2.0 * k,
                                      ].reshape(-1, 1))
            for k in range(1000)])
        tracemalloc.start()
        try:
            report = check_frontier(s, 1.0, 1.0)
            finiteness = local_finiteness_report(s, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.touching_pairs == ()
        assert finiteness.max_count == 1000
        assert peak < 64 * 2 ** 20


class TestGraphComponents:
    def test_scrambled_path_is_one_component(self):
        i = np.array([0, 5, 1, 4, 2])
        j = np.array([5, 1, 4, 2, 3])
        assert graph_components(7, [(i, j)]) == [[0, 1, 2, 3, 4, 5], [6]]

    def test_edges_across_batches(self):
        batches = [(np.array([4]), np.array([2])),
                   (np.array([3]), np.array([0])),
                   (np.array([2]), np.array([0]))]
        assert graph_components(5, batches) == [[0, 2, 3, 4], [1]]

    def test_matches_breadth_first_search(self):
        pts = np.random.default_rng(7).random((120, 2))
        radius = 0.09
        adjacent = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= radius
        seen, expected = set(), []
        for start in range(len(pts)):
            if start in seen:
                continue
            todo, members = [start], {start}
            while todo:
                for k in np.flatnonzero(adjacent[todo.pop()]).tolist():
                    if k not in members:
                        members.add(k)
                        todo.append(k)
            seen |= members
            expected.append(sorted(members))
        assert single_linkage_components(pts, radius) == expected
