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
    cloud_minima,
    distance_blocks,
    estimate_cloud_dim,
    filtration,
    graph_components,
    local_finiteness_report,
    single_linkage_components,
)


def single_stratum():
    return Stratification([Stratum("only", 1,
                                   np.linspace(0, 1, 11).reshape(-1, 1))])


class TestConstruction:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            Stratum("empty", 0, np.zeros((0, 2)))

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


class TestDistanceKernel:
    def test_blocks_cover_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(strata, "_BLOCK", 5)
        a = np.arange(12.0).reshape(6, 2)
        blocks = list(distance_blocks(a, a[:2]))
        assert [start for start, _ in blocks] == list(range(6))
        d = np.concatenate([block for _, block in blocks])
        assert d.shape == (6, 2)
        assert d[3, 1] == np.linalg.norm(a[3] - a[1])

    def test_cloud_minima_per_cloud(self):
        clouds = [np.array([[0.0], [5.0]]), np.array([[2.0]]),
                  np.array([[9.0], [7.0], [4.0]])]
        minima = cloud_minima(np.array([[1.0], [8.0]]), clouds)
        assert minima.tolist() == [[1.0, 1.0, 3.0], [3.0, 6.0, 1.0]]

    def test_small_blocks_match_one_block(self, monkeypatch):
        monkeypatch.setattr(strata, "_BLOCK", 1 << 60)
        whole = _kernel_results()
        monkeypatch.setattr(strata, "_BLOCK", 3)
        assert _kernel_results() == whole

    def test_first_shared_pair_named(self, monkeypatch):
        monkeypatch.setattr(strata, "_BLOCK", 2)
        a = Stratum("a", 0, [[0.0], [4.0]])
        b = Stratum("b", 0, [[1.0], [3.0]])
        c = Stratum("c", 0, [[2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="'a' and 'c' share"):
            Stratification([a, b, c])

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
