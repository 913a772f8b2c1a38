import re
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svb.equivariant
import svb.foliation
from svb import strata
from svb.equivariant import orbit_type_partition
from svb.fixtures import (
    axis_scaling_fields_plane,
    cantor_stratification,
    cone_stratification,
    line_stratification,
    local_line_stratification,
    ring_tangent_bundle,
    rotation_group,
)
from svb.foliation import foliation_bundle
from svb.grassmann import span
from svb.strata import (
    MAX_COORD,
    Stratification,
    Stratum,
    _nearest_within,
    check_frontier,
    estimate_cloud_dim,
    graph_components,
    local_finiteness_report,
    near_pairs,
    partition_by_label,
    single_linkage_components,
)

from helpers import dihedral_square_group, violation_rows


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

    def test_stratum_row_bounds(self):
        s = Stratification([Stratum("a", 0, [[0.0]]),
                            Stratum("b", 1, [[1.0], [2.0], [3.0]]),
                            Stratum("c", 0, [[5.0], [6.0]])])
        assert s._bounds.tolist() == [0, 1, 4, 6]
        for k, st in enumerate(s.strata):
            rows = slice(s._bounds[k], s._bounds[k + 1])
            assert np.array_equal(s._cloud[rows], st.points)
            assert (s._owner[rows] == k).all()

    def test_transitive_queries(self):
        a = Stratum("a", 0, [[0.0]])
        b = Stratum("b", 1, [[1.0]])
        c = Stratum("c", 2, [[2.0]])
        s = Stratification([a, b, c], closure_order=[("a", "b"), ("b", "c")])
        assert s.in_closure("a", "c")
        assert not s.in_closure("c", "a")


def _points(n, order=()):
    """One-point strata s0, ..., s<n-1> at 0, ..., n - 1 on the line."""
    return Stratification([Stratum(f"s{k}", 0, [[float(k)]])
                           for k in range(n)], closure_order=order)


def _brute_closure(names, order):
    """The transitive closure of ``order`` as a boolean matrix over
    ``names``, by Warshall's algorithm."""
    index = {name: k for k, name in enumerate(names)}
    reach = np.zeros((len(names), len(names)), dtype=bool)
    for a, b in order:
        reach[index[a], index[b]] = True
    for k in range(len(names)):
        reach |= reach[:, k:k + 1] & reach[k]
    return reach


def _random_dags():
    rng = np.random.default_rng(39)
    for n in list(range(1, 41)) + [40] * 10:
        rank = rng.permutation(n)  # every edge goes up in rank
        density = rng.uniform(0.0, 0.3)
        yield n, [(f"s{a}", f"s{b}") for a in range(n) for b in range(n)
                  if rank[a] < rank[b] and rng.random() < density]


class TestClosureOrder:
    @pytest.mark.parametrize("name", [1, 1.5, None, b"a", ("a",)])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="stratum name must be a string"
                           f", got {type(name).__name__}$"):
            Stratum(name, 0, [[0.0]])
        with pytest.raises(ValueError, match="must be a string"):
            Stratum._of_rows(name, 0, np.zeros((1, 1)))

    def test_int_names_are_refused_not_unknown(self):
        with pytest.raises(ValueError, match="must be a string, got int"):
            Stratification([Stratum(1, 0, [[0.0]]),
                            Stratum(2, 1, [[1.0], [2.0]])],
                           closure_order=[(1, 2)])

    @pytest.mark.parametrize("pair, end", [
        ((1, 2), "1"), (("1", 2), "2"), ((b"1", "2"), "b'1'"),
        (("2", None), "None")])
    def test_ends_must_be_strings(self, pair, end):
        # An end is refused, not read through str(): "1" is a name here.
        strata = [Stratum("1", 0, [[0.0]]), Stratum("2", 1, [[1.0], [2.0]])]
        with pytest.raises(ValueError, match=re.escape(
                f"closure order end {end} is not a string")):
            Stratification(strata, closure_order=[pair])
        s = Stratification(strata, closure_order=[("1", "2")])
        assert s.in_closure("1", "2") and not s.in_closure(1, 2)

    @pytest.mark.parametrize("order, message", [
        ([("1", "x"), (1, "2")], "names unknown stratum 'x'"),
        ([(1, "2"), ("1", "x")], "end 1 is not a string")])
    def test_first_declared_pair_at_fault_raises(self, order, message):
        strata = [Stratum("1", 0, [[0.0]]), Stratum("2", 1, [[1.0], [2.0]])]
        with pytest.raises(ValueError, match=f"^closure order {message}$"):
            Stratification(strata, closure_order=order)

    def test_unknown_names_are_not_in_closure(self):
        s = _points(5, [("s0", "s4"), ("s2", "s4")])
        for other in ("s0", "s3", "s4", "ghost"):
            assert not s.in_closure("ghost", other)
            assert not s.in_closure(other, "ghost")
        # A known s with an unknown r must not read the key s * n - 1,
        # which is the declared pair (s2, s4).
        assert not s.in_closure("s3", "ghost")
        assert s.in_closure("s2", "s4")

    def test_keys_sorted_below_the_sentinel(self):
        s = _points(4, [("s3", "s1"), ("s1", "s0"), ("s2", "s0")])
        assert s._closure_keys.tolist() == [1 * 4 + 0, 2 * 4 + 0,
                                            3 * 4 + 0, 3 * 4 + 1, 16]
        assert _points(3)._closure_keys.tolist() == [9]

    def test_random_orders_match_brute_force(self):
        for n, order in _random_dags():
            s = _points(n, order)
            reach = _brute_closure(s.names, order)
            got = np.array([[s.in_closure(a, b) for b in s.names]
                            for a in s.names])
            assert np.array_equal(got, reach), (n, order)

    @pytest.mark.parametrize("s", [cantor_stratification(3),
                                   line_stratification(),
                                   cone_stratification()],
                             ids=["cantor_l3", "line", "cone"])
    def test_fixture_orders_match_brute_force(self, s):
        reach = _brute_closure(s.names, s.closure_order)
        got = np.array([[s.in_closure(a, b) for b in s.names]
                        for a in s.names])
        assert np.array_equal(got, reach)
        assert len(s._closure_keys) == reach.sum() + 1

    def test_random_orders_with_a_back_edge_are_cycles(self):
        cycles = 0
        for n, order in _random_dags():
            if order:  # close the cycle over the first declared pair
                a, b = order[0]
                with pytest.raises(ValueError, match="^closure order "
                                   "contains a cycle$"):
                    _points(n, [*order, (b, a)])
                cycles += 1
        assert cycles > 40

    def test_long_chain(self):
        chain = [(f"s{k}", f"s{k + 1}") for k in range(399)]
        with pytest.raises(ValueError, match="cycle"):
            _points(400, [*chain, ("s399", "s0")])
        s = _points(800, chain + [(f"s{k}", f"s{k + 1}")
                                  for k in range(399, 799)])
        assert s.in_closure("s0", "s799")
        assert not s.in_closure("s799", "s0")
        assert len(s._closure_keys) == 800 * 799 // 2 + 1


EDGE = 2.0 ** 500  # the largest accepted |coordinate|
BEYOND = np.nextafter(EDGE, np.inf)


class TestCoordinateBound:
    """Sample coordinates are held to ±2^500: within that bound every
    squared distance stays finite, beyond about 1.3e154 it overflows."""

    def test_the_bound(self):
        assert MAX_COORD == EDGE

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_stratification(self, sign):
        Stratification([Stratum("a", 0, [[0.0, 0.0]]),
                        Stratum("b", 0, [[1.0, 0.0], [0.0, sign * EDGE]])])
        with pytest.raises(ValueError, match=r"^stratum 'b' has a sample "
                           r"coordinate beyond ±2\^500$"):
            Stratification([Stratum("a", 0, [[0.0, 0.0]]),
                            Stratum("b", 0, [[1.0, 0.0], [0.0, sign * BEYOND]])])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_partition_routines(self, sign):
        ok = np.array([[0.0], [sign * EDGE]])
        assert single_linkage_components(ok, 0.5) == [[0], [1]]
        partition_by_label(ok, ["a", "a"], [("s", "a")],
                           dim=lambda label, cloud: 0,
                           below=lambda low, high: False, r_cc=0.5)
        far = np.array([[0.0], [sign * BEYOND]])
        message = (r"^sample point 1 has a coordinate that is not finite "
                   r"or beyond ±2\^500$")
        with pytest.raises(ValueError, match=message):
            single_linkage_components(far, 0.5)
        with pytest.raises(ValueError, match=message):
            partition_by_label(far, ["a", "a"], [("s", "a")],
                               dim=lambda label, cloud: 0,
                               below=lambda low, high: False, r_cc=0.5)

    def test_distances_at_the_bound_are_finite(self):
        # Opposite corners of the box in R^3: the largest distance.
        s = Stratification([Stratum("a", 0, [[-EDGE] * 3]),
                            Stratum("b", 0, [[EDGE] * 3])])
        assert s.diameter() == np.sqrt(3.0) * 2.0 ** 501
        (i, j, d), = near_pairs(s._cloud, s._cloud, 2.0 ** 503)
        assert np.isfinite(d).all() and d.max() == s.diameter()
        report = check_frontier(s, 2.0 ** 503, 2.0 ** 503)
        assert report.touching_pairs == (("a", "b"), ("b", "a"))

    def test_wide_cloud_still_fails(self):
        # At ±1e150 the middle stratum meets both others within eps.
        s = Stratification([Stratum(name, 0, [[x]]) for name, x
                            in zip("abc", (-1e150, 0.0, 1e150))])
        report = check_frontier(s, 1e150, 1e150)
        assert not report.passed
        assert [v[:3] for v in violation_rows(report)] == [
            ("a", "b", "undeclared"), ("b", "a", "undeclared"),
            ("b", "c", "undeclared"), ("c", "b", "undeclared")]


def _dense_frontier(s, eps, delta):
    """Touching pairs and violation rows of ``check_frontier`` from the
    full distance matrix of each stratum pair, one row at a time."""
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
                      else "not_covered" if d[w] > delta else None)
            if reason:
                violations.append((a.name, b.name, reason,
                                   a.points[w].tolist(), float(d[w])))
    touching.sort()
    violations.sort(key=lambda v: v[:2])
    return tuple(touching), violations


def _value(report):
    """What a frontier report says: its verdict, thresholds, touching
    pairs and violation rows."""
    return (report.passed, report.eps_touch, report.delta_cover,
            report.touching_pairs, violation_rows(report))


def _lowest_shared_pair(strata):
    """The first pair of strata, in list order, that share a point."""
    clouds = [set(map(tuple, s.points.tolist())) for s in strata]
    return next(((strata[i].name, strata[j].name)
                 for i, j in combinations(range(len(strata)), 2)
                 if clouds[i] & clouds[j]), None)


def _disjointness_error(strata):
    try:
        Stratification(strata)
    except ValueError as exc:
        return str(exc)
    return None


class TestDisjointness:
    """The pair named is the lowest pair of strata, in list order, that
    share a sample point; points repeated within one stratum are fine."""

    @staticmethod
    def _message(pair):
        return f"strata {pair[0]!r} and {pair[1]!r} share a sample point"

    def test_several_shared_pairs_in_every_order(self):
        # a-c, b-d and c-d share points; every shared point ties on its
        # first coordinate with a point it does not equal.
        strata = [Stratum("a", 0, [[0.0, 1.0], [5.0, 5.0], [6.0, 1.0]]),
                  Stratum("b", 0, [[2.0, 0.0], [3.0, -1.0], [5.0, -5.0]]),
                  Stratum("c", 0, [[4.0, 4.0], [5.0, 5.0], [6.0, 0.0],
                                   [4.0, 4.0]]),
                  Stratum("d", 0, [[6.0, 0.0], [3.0, -1.0], [3.0, 1.0]])]
        named = set()
        for order in permutations(strata):
            pair = _lowest_shared_pair(order)
            assert _disjointness_error(list(order)) == self._message(pair)
            named.add(frozenset(pair))
        assert len(named) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_rows_where_every_first_coordinate_ties(self, seed):
        # The 441-point grid, one stratum per row: each x is shared by
        # all 21 strata, and a repeat within a row is not shared.
        axis = np.arange(-10, 11) * 0.1
        rows = [[[x, y] for x in axis] for y in axis]
        rows[seed].append(rows[seed][3])
        assert _disjointness_error(
            [Stratum(f"y{k:02d}", 1, r) for k, r in enumerate(rows)]) is None
        rng = np.random.default_rng(seed)
        for _ in range(3):
            source, target = rng.choice(len(rows), 2, replace=False)
            rows[target].append(rows[source][rng.integers(len(axis))])
        strata = [Stratum(f"y{k:02d}", 1, r) for k, r in enumerate(rows)]
        assert _disjointness_error(strata) == self._message(
            _lowest_shared_pair(strata))


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
        assert [v[:3] for v in violation_rows(report)] == [
            ("S0", "S+", "undeclared")]
        assert violation_rows(report)[0][3] == [0.0]

    def test_cover_failure_reported(self):
        # Declared pair whose covering fails once delta shrinks below the
        # sample spacing.
        report = check_frontier(line_stratification(), eps_touch=0.05,
                                delta_cover=0.01)
        assert not report.passed
        assert {v[2] for v in violation_rows(report)} == {"not_covered"}

    @pytest.mark.parametrize("below, passed", [(False, True), (True, False)])
    def test_cover_at_the_reach_and_just_below(self, below, passed):
        # Dyadic spacing: the origin's reach to either half is exactly
        # 1/16, so a cover of exactly the reach holds and the next float
        # down does not.
        reach = 0.0625
        delta = np.nextafter(reach, 0.0) if below else reach
        report = check_frontier(line_stratification(reach), 0.125, delta)
        assert report.touching_pairs == (("S0", "S+"), ("S0", "S-"))
        assert report.distance.tolist() == [reach, reach]
        assert report.passed is passed
        assert [v[:3] for v in violation_rows(report)] == (
            [] if passed else [("S0", "S+", "not_covered"),
                               ("S0", "S-", "not_covered")])

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
            touching, violations = _dense_frontier(s, eps, eps / 2)
            report = check_frontier(s, eps, eps / 2)
            assert report.touching_pairs == touching
            assert violation_rows(report) == violations

    def test_rows_sorted_by_name_not_by_index(self):
        # Index order, numpy's and Python's string order all differ here.
        names = ["z", "a", "Z", "\u00e9", "aa", "_", "a\u00e9", "a_"]
        pts = np.unique(np.random.default_rng(9).random((48, 2)).round(2),
                        axis=0)
        label = np.arange(len(pts)) % len(names)
        s = Stratification(
            [Stratum(name, 0, pts[label == k]) for k, name in enumerate(names)],
            closure_order=[("z", "a"), ("a", "\u00e9"), ("_", "a_")])
        for eps in (0.35, 2.0):  # sound pairs at 2.0 only
            report = check_frontier(s, eps, eps / 3)
            assert (report.touching_pairs, violation_rows(report)) == \
                _dense_frontier(s, eps, eps / 3)
            assert report.touching_pairs
            assert report.passed == (not violation_rows(report))
            assert report.names == tuple(names)
            assert [(report.names[a], report.names[b]) for a, b in zip(
                report.source.tolist(), report.target.tolist())] == \
                list(report.touching_pairs)

    def test_report_arrays_and_lazy_tuples(self):
        s = Stratification(line_stratification().strata,
                           closure_order=[("S0", "S-")])
        report = check_frontier(s, 0.05, 0.01)
        assert report.source.dtype == report.target.dtype == np.int64
        assert report.reason.tolist() == [0, 1]  # S0-S+ undeclared, S0-S- far
        assert report.witness.shape == (2, 1)
        assert report.distance.dtype == float
        assert report.touching_pairs is report.touching_pairs
        assert [v[2] for v in violation_rows(report)] == list(strata.REASONS)
        assert _value(report) == _value(check_frontier(s, 0.05, 0.01))
        assert _value(report) != _value(check_frontier(s, 0.05, 0.05))

    def test_empty_report(self):
        report = check_frontier(single_stratum(), 0.05, 0.05)
        assert report.passed and report.touching_pairs == ()
        assert violation_rows(report) == []
        assert report.source.shape == (0,) and report.witness.shape == (0, 1)

    @pytest.mark.parametrize("eps, delta", [(0.05, 0.04), (None, 0.04),
                                            (0.05, None), (None, None)])
    def test_diameter_only_for_a_default(self, monkeypatch, eps, delta):
        s = line_stratification()
        default = 1e-2 * s.diameter()
        calls = []
        diameter = Stratification.diameter

        def counted(self):
            calls.append(self)
            return diameter(self)

        monkeypatch.setattr(Stratification, "diameter", counted)
        report = check_frontier(s, eps, delta)
        assert len(calls) == (eps is None or delta is None)
        assert report.eps_touch == (default if eps is None else eps)
        assert report.delta_cover == (default if delta is None else delta)

    @pytest.mark.parametrize("eps, delta", [(np.nan, 0.05), (0.05, np.nan)])
    def test_nan_thresholds_rejected(self, eps, delta):
        name = "eps_touch" if np.isnan(eps) else "delta_cover"
        with pytest.raises(ValueError, match=f"^{name} must be a positive "
                           "finite number, got nan$"):
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
        message = "^radius must be a positive finite number, got nan$"
        with pytest.raises(ValueError, match=message):
            local_finiteness_report(single_stratum(), np.nan)
        with pytest.raises(ValueError, match=message):
            single_linkage_components(np.zeros((2, 1)), np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_linkage_rejects_non_finite_points(self, bad):
        # A non-finite row used to come back as a singleton component.
        for pts, row in (([[0.0], [bad], [0.01]], 1), ([[bad], [bad]], 0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"sample point {row} has a coordinate that is not "
                    "finite or beyond ±2^500") + "$"):
                single_linkage_components(np.array(pts), 0.05)


def _dense_local_finiteness(s, radius, threshold):
    """``local_finiteness_report`` from the full distance matrix, with the
    distance formula of ``near_pairs``."""
    cloud = np.concatenate([st.points for st in s.strata])
    owner = np.repeat(np.arange(len(s.strata)), [len(st) for st in s.strata])
    d = np.sqrt(((cloud[:, None] - cloud[None]) ** 2).sum(-1))
    rows = iter(d)
    counts = tuple((st.name, i, len(set(owner[next(rows) <= radius].tolist())))
                   for st in s.strata for i in range(len(st)))
    flagged = tuple(c for c in counts if c[2] > threshold)
    return counts, flagged, max(c for _, _, c in counts), not flagged


class TestLocalFinitenessReference:
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_matches_dense_reference(self, monkeypatch, chunk):
        # Rows on a 0.02 grid, so that many distances tie with the radius.
        monkeypatch.setattr(strata, "_CHUNK", chunk)
        rng = np.random.default_rng(12)
        for trial in range(3):
            pts = np.unique((rng.random((90, 2)) * 50).round() / 50, axis=0)
            label = rng.integers(0, 6, len(pts))
            s = Stratification([Stratum(f"s{k}", 0, pts[label == k])
                                for k in range(6) if (label == k).any()])
            for radius in (0.02, 0.1, 0.3, 3.0):
                report = local_finiteness_report(s, radius, threshold=3)
                assert (report.counts, report.flagged, report.max_count,
                        report.passed) == _dense_local_finiteness(s, radius, 3)

    def test_count_at_threshold_passes(self):
        # Point 0 of "a" sees all three strata within 0.1, the others two.
        s = Stratification([Stratum("a", 0, [[0.0]]),
                            Stratum("b", 0, [[0.05], [0.3]]),
                            Stratum("c", 0, [[-0.08], [0.35]])])
        at = local_finiteness_report(s, 0.1, threshold=3)
        assert at.passed and at.flagged == () and at.max_count == 3
        below = local_finiteness_report(s, 0.1, threshold=2)
        assert not below.passed
        assert below.flagged == (("a", 0, 3),)
        assert below.counts == at.counts == (
            ("a", 0, 3), ("b", 0, 2), ("b", 1, 2), ("c", 0, 2), ("c", 1, 2))


def _dense_frontier_arrays(s, eps, delta):
    """``passed`` and the arrays of ``check_frontier`` from the full
    distance matrix of the cloud, with the distance formula of
    ``near_pairs``: every sample of every stratum searched."""
    cloud = np.concatenate([st.points for st in s.strata])
    owner = np.repeat(np.arange(len(s.strata)), [len(st) for st in s.strata])
    d = np.sqrt(((cloud[:, None] - cloud[None]) ** 2).sum(-1))
    rows = []
    for a, b in permutations(range(len(s.strata)), 2):
        points = np.flatnonzero(owner == a)
        near = d[points][:, owner == b].min(axis=1)
        if (near <= eps).all():
            w = int(np.argmax(near))
            reason = (-1 if near[w] <= delta else 1) \
                if s.in_closure(s.names[a], s.names[b]) else 0
            rows.append((s.names[a], s.names[b], a, b, reason,
                         points[w], near[w]))
    rows.sort()
    _, _, source, target, reason, worst, distance = (
        np.array(column) for column in zip(*rows)) if rows else [
        np.zeros(0, dtype=int)] * 7
    return (not (reason >= 0).any(), source, target, reason.astype(np.int8),
            cloud[worst], distance.astype(float))


def _assert_report_is(report, want):
    """``report`` has the verdict and arrays ``want`` of
    ``_dense_frontier_arrays``, dtypes included."""
    assert report.passed == want[0]
    for mine, theirs in zip((report.source, report.target, report.reason,
                             report.witness, report.distance), want[1:]):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


def _mixed_stratification(rng, dim, singles, groups, n=90):
    """Points on a 0.05 grid, so that many distances tie with eps: the
    first ``singles`` as one-sample strata, the rest dealt among
    ``groups`` strata; pairs declared between a random half of the
    index-ordered strata pairs."""
    pts = np.unique((rng.random((n, dim)) * 20).round() / 20, axis=0)
    pts = pts[rng.permutation(len(pts))]
    label = np.r_[np.arange(singles),
                  singles + rng.integers(0, groups, len(pts) - singles)]
    found = [Stratum(f"s{k:02d}", 0, pts[label == k])
             for k in range(singles + groups) if (label == k).any()]
    return Stratification(found, closure_order=[
        (a.name, b.name) for a, b in combinations(found, 2)
        if rng.random() < 0.5])


class TestFrontierGate:
    """The first sample of each stratum gates the full search: the
    report equals the one every sample gives, on both sides of the
    gate's threshold.  Strata whose first sample meets no other stratum
    are not searched again, and no first sample is searched twice."""

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_matches_brute_force(self, monkeypatch, chunk):
        monkeypatch.setattr(strata, "_CHUNK", chunk)
        rng = np.random.default_rng(21)
        for trial in range(6):
            s = _mixed_stratification(rng, 1 + trial % 3, singles=8,
                                      groups=3 + 7 * trial)
            assert {len(st) for st in s.strata} - {1}
            for eps in (0.05, 0.1, 0.25, 0.5, 2.0):
                _assert_report_is(check_frontier(s, eps, eps / 2),
                                  _dense_frontier_arrays(s, eps, eps / 2))

    @pytest.mark.parametrize("side, touches", [(1 - 1e-9, True),
                                               (1 + 1e-9, False)])
    @pytest.mark.parametrize("rest", [[0.25, 0.5], [0.25, 5.0], []],
                             ids=["rest-near", "rest-far", "one-sample"])
    def test_first_sample_at_the_threshold(self, side, touches, rest):
        eps = 0.1
        first = eps * side
        s = Stratification([
            Stratum("R", 0, [[0.0], [-1.0]]),
            Stratum("S", 0, [[first]] + [[eps * x] for x in rest])],
            closure_order=[("S", "R")])
        report = check_frontier(s, eps, eps)
        expected = touches and max(rest, default=0) <= 1
        assert report.touching_pairs == ((("S", "R"),) if expected else ())
        if expected:
            assert report.distance.tolist() == [first]
            assert report.witness.tolist() == [[first]]
        _assert_report_is(report, _dense_frontier_arrays(s, eps, eps))

    @staticmethod
    def _clusters_with_probe(near_first):
        """Eight clusters 1 apart, 40 samples within 0.2 of each centre,
        and a one-sample probe 0.01 from the host's first or last
        sample."""
        rng = np.random.default_rng(3)
        found = []
        for c, centre in enumerate(product((0.0, 1.0), repeat=3)):
            offsets = rng.normal(size=(40, 3))
            offsets *= 0.2 * rng.random((40, 1)) / np.linalg.norm(
                offsets, axis=1, keepdims=True)
            found.append(Stratum(f"cl{c}", 3, np.array(centre) + offsets))
        host = found[5].points
        anchor = host[0] if near_first else host[-1]
        probe = anchor + [0.01, 0.0, 0.0]
        assert near_first or np.linalg.norm(host[0] - probe) > 0.05
        return Stratification(found + [Stratum("probe", 0, [probe])])

    @pytest.mark.parametrize("near_first, searched", [(False, []),
                                                      (True, [39])])
    def test_only_live_strata_searched(self, monkeypatch, near_first,
                                       searched):
        rows = []
        near = strata._Grid.near

        def counted(grid, query):
            rows.append(len(query))
            return near(grid, query)

        monkeypatch.setattr(strata._Grid, "near", counted)
        s = self._clusters_with_probe(near_first)
        report = check_frontier(s, 0.05, 0.05)
        assert rows == [len(s.strata)] + searched
        assert report.touching_pairs == (("probe", "cl5"),)
        assert violation_rows(report)[0][2] == "undeclared"


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


def _cloud_with_sigmas(sigmas, n=20, ambient=3, seed=0):
    """n points whose centered matrix has the singular values sigmas,
    shifted away from the origin."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, len(sigmas)))
    u -= u.mean(axis=0)
    u = np.linalg.qr(u)[0]
    v = np.linalg.qr(rng.standard_normal((ambient, len(sigmas))))[0]
    return 0.3 + (u * sigmas) @ v.T


def _span_route_dim(pts, tol_rank):
    """The dimension as the span of the centered rows reads it."""
    scale = float(np.abs(pts).max())
    return span(pts - pts.mean(axis=0), pts.shape[1], tol_rank=tol_rank,
                tol_abs=1e-9 * max(scale, 1.0)).dim


class TestCloudDimThreshold:
    """The cloud dimension flips on the right side of the relative and
    of the absolute cutoff, as the span of the centered rows reads it."""

    @pytest.mark.parametrize("cutoff, tol_rank", [(1e-8, 1e-8),
                                                  (1e-9, 1e-12)])
    @pytest.mark.parametrize("side, dim", [(1.001, 2), (0.999, 1)])
    def test_both_sides(self, cutoff, tol_rank, side, dim):
        pts = _cloud_with_sigmas([1.0, side * cutoff])
        assert estimate_cloud_dim(pts, tol_rank) == dim
        assert _span_route_dim(pts, tol_rank) == dim
        assert type(estimate_cloud_dim(pts, tol_rank)) is int


def _kernel_results():
    grid = np.array([[x, y] for x in np.arange(-1.0, 1.01, 0.25)
                     for y in np.arange(-1.0, 1.01, 0.25)])
    part = orbit_type_partition(dihedral_square_group(), grid, r_cc=0.4)
    return (
        _value(check_frontier(line_stratification(), 0.05, 0.05)),
        _value(check_frontier(cone_stratification(), 0.08, 0.01)),
        _value(check_frontier(cantor_stratification(4))),
        local_finiteness_report(cantor_stratification(5), 0.1, threshold=3),
        local_finiteness_report(local_line_stratification(), 0.1),
        single_linkage_components(
            np.concatenate([s.points for s in cone_stratification().strata]),
            0.05),
        single_linkage_components(grid, 0.3),
        [(s.name, s.dim, s.points.tolist())
         for s in part.stratification.strata],
        part.stratification.closure_order,
        part.labels, part.members, part.label_of_stratum,
    )


def _pairs(a, b, r):
    """All ``near_pairs`` triples as a sorted list."""
    return sorted((int(i), int(j), float(d)) for chunk in near_pairs(a, b, r)
                  for i, j, d in zip(*chunk))


def _near_pairs_by_cell(a, b, r):
    """``near_pairs`` with one pair of binary searches per row and cell
    of the 3^g around it, cell keys weighing the first grid coordinate
    1: the reference for the order of its pairs and chunks."""
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
    cell = max(r * (1 + 2.0 ** -20), extent / strata._CELLS, 2.0 ** -500)
    weights = (strata._CELLS + 3) ** np.arange(g)

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
            reach, reach[q0] - per_row[q0] + strata._CHUNK, side="right")))
        c, s = counts[q0:q1].ravel(), starts[q0:q1].ravel()
        run = np.cumsum(c) - c
        j = cands[np.arange(c.sum()) + np.repeat(s - run, c)]
        i = np.repeat(rows_a[q0:q1], per_row[q0:q1])
        d = np.sqrt(((a[i] - b[j]) ** 2).sum(-1))
        keep = d <= r
        yield i[keep], j[keep], d[keep]
        q0 = q1


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

    @staticmethod
    def _order_cases(dim):
        rng = np.random.default_rng(100 + dim)
        a = rng.random((120, dim)).round(1)  # many duplicate rows
        b = rng.random((70, dim))
        r = 0.1
        # Pairs at exactly r along one axis, on cell boundaries.
        edge = np.zeros((6, dim))
        edge[:, 0] = np.arange(6) * r
        yield a, a, r
        yield a, b, 0.25
        yield b, a, 0.25
        yield a, a, 0.0
        yield np.concatenate([edge, edge]), edge, r
        yield edge, edge, np.sqrt(2) * r
        # Queries beyond b's own box, one of them by far.
        yield np.concatenate([b + 0.9, b[:5] - 1e6, a]), b, 0.25

    @pytest.mark.parametrize("chunk", [1, 3, strata._CHUNK])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_same_chunks_as_one_search_per_cell(self, monkeypatch, dim,
                                                chunk):
        monkeypatch.setattr(strata, "_CHUNK", chunk)
        for a, b, r in self._order_cases(dim):
            got = list(near_pairs(a, b, r))
            want = list(_near_pairs_by_cell(a, b, r))
            assert len(got) == len(want)
            for mine, theirs in zip(got, want):
                for x, y in zip(mine, theirs):
                    assert x.dtype == y.dtype
                    assert np.array_equal(x, y)
        assert any(i.size for i, _, _ in got)

    def test_memory_per_row_at_scale(self):
        n = 100_000
        pts = np.random.default_rng(12).random((n, 3))
        found = 0
        tracemalloc.start()
        try:
            for i, _, _ in near_pairs(pts, pts, 0.2 * n ** (-1 / 3)):
                found += i.size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found > n  # every row meets itself, some meet others
        assert peak < 700 * n

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

    def test_frontier_memory_follows_the_chunk(self, monkeypatch):
        # The strata above at a 32x smaller chunk: 999,000 candidate
        # pairs, of which the audit holds one chunk's at a time.
        monkeypatch.setattr(strata, "_CHUNK", 1 << 12)
        shared = np.random.default_rng(5).random(2000)
        s = Stratification([
            Stratum(f"s{k}", 0, np.r_[shared[k::1000], 3.0 + 2.0 * k,
                                      ].reshape(-1, 1))
            for k in range(1000)])
        tracemalloc.start()
        try:
            report = check_frontier(s, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.touching_pairs == ()
        assert peak < 8 * 2 ** 20


class TestGraphComponents:
    def test_no_vertices(self):
        assert graph_components(0, [(np.array([], int), np.array([], int))]
                                ) == []

    @pytest.mark.parametrize("points", [np.zeros((3, 0)), [[]], []],
                             ids=["three-rows", "one-row", "empty"])
    def test_cloud_without_coordinates_rejected(self, points):
        message = "^sample points need at least one coordinate$"
        with pytest.raises(ValueError, match=message):
            single_linkage_components(points, 1.0)
        with pytest.raises(ValueError, match=message):
            partition_by_label(points, [0] * len(points), [("s", 0)],
                               dim=lambda label, cloud: 0,
                               below=lambda low, high: False, r_cc=1.0)

    @pytest.mark.parametrize("i, j", [
        (np.array([-1]), np.array([0])), (np.array([0]), np.array([4])),
        (np.array([0.0]), np.array([1])), (np.array([1]), np.array([True]))],
        ids=["negative", "past-n", "float", "bool"])
    def test_edge_ends_out_of_range_rejected(self, i, j):
        # -1 would alias vertex 3: [[0, 3], [1], [2]].
        with pytest.raises(ValueError, match=re.escape(
                "edge ends must be integers in range(4)")):
            graph_components(4, [(np.array([0]), np.array([1])), (i, j)])

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


def _partition_per_class(points, labels, classes, dim, below, r_cc,
                         within=None):
    """``partition_by_label`` by the per-class route: single linkage on
    each label class's own cloud, then a second neighbour pass over the
    stacked strata for the closure pairs.  No ``within`` refinement: the
    partitions compared with it are called with ``within=None``."""
    assert within is None
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = tuple(labels)
    found, members, label_of_stratum = [], [], {}
    for prefix, label in classes:
        member_idx = [i for i, lab in enumerate(labels) if lab == label]
        for c, component in enumerate(
                single_linkage_components(pts[member_idx], r_cc)):
            name = f"{prefix}_c{c}"
            local = [member_idx[i] for i in component]
            found.append(Stratum(name, dim(label, pts[local]), pts[local]))
            label_of_stratum[name] = label
            members.append(local)
    cloud = np.concatenate([st.points for st in found])
    owner = np.repeat(np.arange(len(found)), [len(st) for st in found])
    near = set()
    for i, j, _ in near_pairs(cloud, cloud, r_cc):
        near.update(zip(owner[i].tolist(), owner[j].tolist()))
    closure = [(found[a].name, found[b].name) for a, b in sorted(near)
               if below(label_of_stratum[found[a].name],
                        label_of_stratum[found[b].name])]
    return found, closure, members, label_of_stratum


def _ring_points(order, radii):
    base = ring_tangent_bundle(order, radii).base
    return np.concatenate([st.points for st in base.strata])


class TestPartitionByLabel:
    CASES = {
        "rot8-ring": lambda: orbit_type_partition(
            rotation_group(8), _ring_points(8, (0.5, 1.0)), r_cc=0.6),
        "rot12-rings": lambda: orbit_type_partition(
            rotation_group(12), _ring_points(12, np.linspace(0.2, 1.0, 40)),
            r_cc=0.25),
        "rot16-sparse": lambda: orbit_type_partition(
            rotation_group(16), _ring_points(16, (0.3, 0.9)), r_cc=0.35),
        "dihedral-grid": lambda: orbit_type_partition(
            dihedral_square_group(), np.array(
                [[x, y] for x in np.arange(-1, 1.01, 0.25)
                 for y in np.arange(-1, 1.01, 0.25)]), r_cc=0.3),
        "foliation-grid": lambda: foliation_bundle(
            axis_scaling_fields_plane(0.1), r_cc=0.12),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_neighbour_pass_matches_per_class_route(self, case,
                                                        monkeypatch):
        calls, compared = [], []

        def counted(*args):
            calls.append(args)
            return near_pairs(*args)

        def compare(*args, **kwargs):
            del calls[:]
            part = partition_by_label(*args, **kwargs)
            assert len(calls) == 1
            found, closure, members, label_of_stratum = \
                _partition_per_class(*args, **kwargs)
            got = part.stratification
            assert got.names == [st.name for st in found]
            for mine, theirs in zip(got.strata, found):
                assert mine.dim == theirs.dim
                assert np.array_equal(mine.points, theirs.points)
            assert got.closure_order == frozenset(closure)
            assert part.members == members
            assert part.label_of_stratum == label_of_stratum
            compared.append(len(found))
            return part

        monkeypatch.setattr(strata, "near_pairs", counted)
        for module in (svb.equivariant, svb.foliation):
            monkeypatch.setattr(module, "partition_by_label", compare)
        self.CASES[case]()
        assert compared and compared[0] > 1

    @pytest.mark.parametrize("case", CASES)
    def test_strata_are_read_only_slices_at_members(self, case, monkeypatch):
        # Each stratum holds a read-only row slice of one cloud, and its
        # rows are the input points that ``members`` names.
        seen = []

        def record(points, *args, **kwargs):
            part = partition_by_label(points, *args, **kwargs)
            seen.append((np.asarray(points, dtype=float), part))
            return part

        for module in (svb.equivariant, svb.foliation):
            monkeypatch.setattr(module, "partition_by_label", record)
        self.CASES[case]()
        assert seen
        for pts, part in seen:
            found = part.stratification.strata
            assert len(part.members) == len(found)
            for mine, local in zip(found, part.members):
                assert not mine.points.flags.writeable
                assert mine.points.base is found[0].points.base
                assert np.array_equal(mine.points, pts[local])

    def test_no_points_is_no_stratification(self):
        with pytest.raises(ValueError,
                           match="^need at least one sample point$"):
            partition_by_label(np.zeros((0, 1)), [], [("s", "a")],
                               dim=lambda label, cloud: 0,
                               below=lambda low, high: False, r_cc=1.0)

    @staticmethod
    def _four_close(labels, within=None):
        return partition_by_label(
            [[0.0], [0.1], [0.2], [0.3]], labels, [("a", 0), ("b", 1)],
            dim=lambda label, cloud: 0, below=lambda low, high: False,
            r_cc=0.5, within=within)

    @pytest.mark.parametrize("labels", [[0, 0, 1], [0, 0, 1, 1, 1]],
                             ids=["fewer", "more"])
    def test_one_label_per_point(self, labels):
        with pytest.raises(ValueError, match="^labels: expected 4, one per "
                           f"point, got {len(labels)}$"):
            self._four_close(labels)

    @pytest.mark.parametrize("within", [
        [1, 1, 0, -1], [1.5, 1.0, 0.0, 0.0], [True, True, False, False],
        [1, 1, 0], [[1, 1, 0, 0]]],
        ids=["negative", "float", "bool", "short", "nested"])
    def test_within_one_nonnegative_integer_per_point(self, within):
        # With -1, point 3 (label 1) would share a key with points 0 and 1
        # (label 0, within 1) and join their stratum a_c0.
        with pytest.raises(ValueError, match="^within must hold one "
                           "nonnegative integer per point$"):
            self._four_close([0, 0, 1, 1], within)

    @pytest.mark.parametrize("labels", [[0, 0, 1, 2], ["b", 0, 0, 1]],
                             ids=["int", "str"])
    def test_label_not_in_classes(self, labels, monkeypatch):
        # Refused before any neighbour query, naming the first label
        # that ``classes`` does not list.
        monkeypatch.setattr(strata, "near_pairs", None)
        missing = [lab for lab in labels if lab not in (0, 1)][0]
        with pytest.raises(ValueError, match=re.escape(
                f"label {missing!r} is not listed in classes") + "$"):
            self._four_close(labels)

    def test_label_listed_twice(self, monkeypatch):
        # The later entry used to win: classes [("A", "a"), ("B", "a")]
        # gave B_c* strata alone.
        monkeypatch.setattr(strata, "near_pairs", None)
        with pytest.raises(ValueError,
                           match="^classes lists label 'a' twice$"):
            partition_by_label(
                [[0.0], [1.0]], ["a", "a"], [("A", "a"), ("B", "a")],
                dim=lambda label, cloud: 0, below=lambda low, high: False,
                r_cc=0.5)

    def test_within_refines(self):
        part = self._four_close([0, 0, 1, 1], np.array([1, 0, 0, 0],
                                                       dtype=np.uint8))
        assert part.members == [[0], [1], [2, 3]]

    @pytest.mark.parametrize("r_cc", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, r_cc):
        with pytest.raises(ValueError, match=re.escape(
                f"r_cc must be a positive finite number, got {r_cc!r}")):
            partition_by_label(np.zeros((2, 1)), ["a", "a"], [("s", "a")],
                               dim=lambda label, cloud: 0,
                               below=lambda low, high: False, r_cc=r_cc)


class TestInputRaises:
    def test_strata_in_different_spaces(self):
        with pytest.raises(ValueError, match=r"^stratum 'b' lives in R\^2, "
                           r"expected R\^1$"):
            Stratification([Stratum("a", 0, [[0.0]]),
                            Stratum("b", 0, [[1.0, 2.0]])])

    def test_negative_stratum_dim(self):
        with pytest.raises(ValueError,
                           match="^stratum 'a' dim must be at least 0, "
                           "got -1$"):
            Stratum("a", -1, [[0.0]])

    @pytest.mark.parametrize("radius", [-1.0], ids=["negative"])
    @pytest.mark.parametrize("self_join", [True, False],
                             ids=["self", "two-clouds"])
    def test_near_pairs_at_no_radius_yields_nothing(self, radius, self_join):
        a = np.zeros((3, 2))
        b = a if self_join else np.zeros((2, 2))
        assert list(near_pairs(a, b, radius)) == []

    @pytest.mark.parametrize("self_join", [True, False],
                             ids=["self", "two-clouds"])
    def test_near_pairs_refuses_a_nan_radius(self, self_join):
        a = np.zeros((3, 2))
        b = a if self_join else np.zeros((2, 2))
        with pytest.raises(ValueError, match="^near_pairs radius is NaN$"):
            near_pairs(a, b, float("nan"))


class TestNearPairsInput:
    """``near_pairs`` takes finite points and refuses any other, in a
    grid coordinate or past the grid, in either cloud."""

    @pytest.mark.parametrize("column", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_point_raises(self, bad, column):
        a = np.random.default_rng(5).random((6, 5))
        b = a[:4].copy()
        a[2, column] = bad
        for x, y in ((a, a), (a, b), (b, a)):
            with pytest.raises(ValueError,
                               match="^near_pairs needs finite points$"):
                near_pairs(x, y, 0.5)

    @pytest.mark.parametrize("radius", [0.5, -1.0])
    def test_non_finite_point_raises_at_any_radius(self, radius):
        a = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError, match="needs finite points"):
            near_pairs(a, a, radius)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4, 2), (5, 3)), ((4, 4), (5, 3)), ((4,), (5, 3)), ((4, 3), (5,)),
        ((4, 3), (2, 5, 3)), ((0, 2), (5, 3))],
        ids=["widths-2-3", "widths-4-3", "1-d-a", "1-d-b", "3-d-b",
             "empty-a-of-other-width"])
    @pytest.mark.parametrize("radius", [0.5, -1.0])
    def test_shapes_raise(self, a_shape, b_shape, radius):
        rng = np.random.default_rng(7)
        a, b = rng.random(a_shape), rng.random(b_shape)
        for x, y in [(a, b), (b, a)] + [(x, x) for x in (a, b)
                                         if x.ndim != 2]:
            with pytest.raises(ValueError, match="^near_pairs needs 2-D "
                               "point arrays of one width$"):
                near_pairs(x, y, radius)

    @pytest.mark.parametrize("radius", [1.0, -1.0])
    @pytest.mark.parametrize("self_join", [True, False],
                             ids=["self", "two-clouds"])
    def test_points_without_coordinates_raise(self, self_join, radius):
        a = np.zeros((3, 0))
        b = a if self_join else np.zeros((2, 0))
        with pytest.raises(ValueError, match="^near_pairs needs points with "
                           "at least one coordinate$"):
            near_pairs(a, b, radius)
        with pytest.raises(ValueError, match="^near_pairs needs points with "
                           "at least one coordinate$"):
            _nearest_within(a, b, radius)

    def test_nearest_within(self):
        # Row 1 lies 0.5 from both b[0] and b[2] (the lower wins), row 2
        # has no row of b within the radius.
        a = np.array([[0.0, 0.5], [1.0, 0.5], [9.0, 9.0], [2.0, 0.25]])
        b = np.array([[0.5, 0.5], [2.0, 0.0], [1.5, 0.5]])
        assert _nearest_within(a, b, 0.6).tolist() == [0, 0, -1, 1]
        assert _nearest_within(a, b, 0.1).tolist() == [-1, -1, -1, -1]

    def test_reads_lists_of_rows(self):
        assert [tuple(map(list, chunk)) for chunk in near_pairs(
            [[0.0]], [[0.0], [3.0]], 1.0)] == [([0], [0], [0.0])]
        rows = [[0.0, 0.0], [0.5, 0.0]]
        i, j, d = map(np.concatenate, zip(*near_pairs(rows, rows, 1.0)))
        assert sorted(zip(i.tolist(), j.tolist())) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_cloud_yields_nothing(self):
        pts = np.random.default_rng(6).random((5, 3))
        empty, other = np.empty((0, 3)), np.empty((0, 3))
        for a, b in ((empty, pts), (pts, empty), (empty, other),
                     (empty, empty)):
            assert list(near_pairs(a, b, 1.0)) == []


class TestReportTruth:
    """A report is true exactly when it passes: a frozen dataclass
    without ``__bool__`` is always true, so every FAIL would read as a
    pass."""

    def test_frontier_report(self):
        good = check_frontier(line_stratification(), 0.05, 0.05)
        bad = check_frontier(line_stratification(), 0.05, 0.01)
        assert (good.passed, bad.passed) == (True, False)
        assert (bool(good), bool(bad)) == (True, False)

    def test_frontier_report_against_another_type(self):
        report = check_frontier(line_stratification(), 0.05, 0.05)
        assert report != 1
        assert not report == "PASS"

    def test_local_finiteness_report(self):
        good = local_finiteness_report(local_line_stratification(), 0.1)
        bad = local_finiteness_report(cantor_stratification(6), 0.1,
                                      threshold=3)
        assert (good.passed, bad.passed) == (True, False)
        assert (bool(good), bool(bad)) == (True, False)
