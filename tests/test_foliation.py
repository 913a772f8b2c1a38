import json
import os
import re

import numpy as np
import pytest

from svb.bundle import validate_bundle, whitney_a_from_sections
from svb.cli import main
from svb.config import TAIL_LEN, TOL_RANK
from svb.fixtures import (
    axis_scaling_fields_plane,
    constant_field_plane,
    line_foliation_scenario,
    line_scaling_fields,
)
from svb.foliation import (
    PolynomialVectorField,
    VectorFieldSet,
    _distribution_rows,
    distribution_at,
    fields_as_sections,
    foliation_bundle,
    stratify_by_rank,
)
from svb.grassmann import gap_distance, span
from svb.jsonio import (SchemaError, fields_from_json, fields_to_json,
                        read_json, scenario_from_json, write_json)
from svb.monoid import MonoidActionSample
from svb.strata import check_frontier, partition_by_label

from helpers import assert_sections_read_fiber_check, violation_rows


class TestDistributionAt:
    def test_scaling_field_away_from_origin(self):
        vfs = line_scaling_fields()
        w = distribution_at(vfs, [2.0])
        assert w.dim == 1
        assert gap_distance(w, span([(1.0,)], 1)) <= 1e-12

    def test_scaling_field_vanishes_at_origin(self):
        assert distribution_at(line_scaling_fields(), [0.0]).dim == 0

    def test_two_fields_span_plane(self):
        fx = PolynomialVectorField(2, [{"powers": [0, 0], "vector": [1, 0]}])
        xfy = PolynomialVectorField(2, [{"powers": [1, 0], "vector": [0, 1]}])
        vfs = VectorFieldSet(2, [fx, xfy], [[1.0, 5.0]])
        assert distribution_at(vfs, [1.0, 5.0]).dim == 2


def random_fields(rng, ambient, count, max_power=3):
    fields = [PolynomialVectorField(ambient, [
        {"powers": rng.integers(0, max_power + 1, ambient).tolist(),
         "vector": rng.normal(size=ambient).tolist()}
        for _ in range(int(rng.integers(1, 4)))]) for _ in range(count)]
    points = 2.0 * rng.normal(size=(40, ambient))
    points[::5] = 0.0  # where every non-constant term vanishes
    return VectorFieldSet(ambient, fields, points)


class TestStackedDistributions:
    """One stacked SVD gives bit for bit the per-sample ``span``."""

    def test_stacked_equals_per_sample_span(self):
        rng = np.random.default_rng(3)
        for ambient, count in [(1, 1), (2, 1), (2, 3), (3, 2), (4, 4)]:
            vfs = random_fields(rng, ambient, count)
            bundle = foliation_bundle(vfs)
            keys = bundle.point_keys()
            order = np.concatenate([s.points for s in bundle.base.strata])
            for p in vfs.sample_points:
                key = keys[int(np.flatnonzero((order == p).all(axis=1))[0])]
                ref = span([f.evaluate(p) for f in vfs.fields], ambient)
                for w in (bundle.fiber(key), distribution_at(vfs, p)):
                    assert np.array_equal(w.basis, ref.basis)
                    assert np.array_equal(w.projection, ref.projection)

    def test_vectorised_evaluation_is_per_point_evaluation(self):
        rng = np.random.default_rng(4)
        vfs = random_fields(rng, 3, 2, max_power=4)
        values = vfs.evaluate(vfs.sample_points)
        assert values.shape == (40, 2, 3)
        for i, p in enumerate(vfs.sample_points):
            for j, f in enumerate(vfs.fields):
                scalar = np.zeros(3)
                for powers, vector in f.terms:
                    monomial = 1.0
                    for xi, power in zip(p, powers):
                        if power:
                            monomial *= xi ** power
                    scalar += monomial * vector
                assert np.array_equal(values[i, j], scalar)
                assert np.array_equal(f.evaluate(p), scalar)

    def test_vanishing_fields_give_zero_subspace(self):
        vfs = line_scaling_fields()
        ranks = [distribution_at(vfs, p).dim for p in ([0.0], [1.0], [-2.0])]
        assert ranks == [0, 1, 1]

    def test_sections_read_the_stacked_values(self):
        vfs = axis_scaling_fields_plane()
        b = foliation_bundle(vfs, r_cc=0.3)
        sections = fields_as_sections(vfs, b)
        assert len(sections) == len(vfs.fields)
        for j, (f, section) in enumerate(zip(vfs.fields, sections)):
            assert list(section) == list(b.stacks)
            for s in b.base.strata:
                assert section[s.name].shape == (len(s), 2)
                for value, p in zip(section[s.name], s.points):
                    assert np.array_equal(value, f.evaluate(p))
                    assert np.array_equal(value, vfs.evaluate(p)[0, j])


class TestStratifyByRank:
    def test_line_signs(self):
        s = stratify_by_rank(line_scaling_fields(), r_cc=0.015)
        assert sorted(st.name for st in s.strata) == \
            ["rank0_c0", "rank1_c0", "rank1_c1"]
        origin = s.stratum("rank0_c0")
        assert len(origin) == 1 and origin.points[0][0] == 0.0
        negative = s.stratum("rank1_c0")
        assert negative.points.max() < 0.0
        positive = s.stratum("rank1_c1")
        assert positive.points.min() > 0.0

    def test_constant_field_single_stratum(self):
        s = stratify_by_rank(constant_field_plane(), r_cc=0.3)
        assert len(s.strata) == 1
        assert s.strata[0].dim == 2

    def test_plane_axis_fields(self):
        s = stratify_by_rank(axis_scaling_fields_plane(), r_cc=0.3)
        by_rank = {}
        for st in s.strata:
            by_rank.setdefault(int(st.name[4]), []).append(st)
        assert len(by_rank[0]) == 1
        assert len(by_rank[0][0]) == 1
        # Four punctured axis rays of rank 1.
        assert len(by_rank[1]) == 4
        assert all(st.dim == 1 for st in by_rank[1])
        assert all(st.dim == 2 for st in by_rank[2])

    @pytest.mark.parametrize("tol_rank, dim", [(1e-8, 2), (1e-3, 1)])
    def test_tol_rank_sets_the_stratum_dim(self, tmp_path, capsys, tol_rank,
                                           dim):
        # d/dx on 41 samples of y = 1e-6 sin(7x): the centered cloud's
        # singular values stand about 1e-6 apart, between the two tols.
        x = np.linspace(-1.0, 1.0, 41)
        vfs = VectorFieldSet(2, [PolynomialVectorField(
            2, [{"powers": [0, 0], "vector": [1.0, 0.0]}])],
            np.column_stack([x, 1e-6 * np.sin(7.0 * x)]))
        s = stratify_by_rank(vfs, r_cc=0.1, tol_rank=tol_rank)
        assert [(st.name, st.dim) for st in s.strata] == [("rank1_c0", dim)]
        path = str(tmp_path / "fields.json")
        write_json(fields_to_json(vfs), path)
        assert main(["foliation", "stratify", "--fields", path, "--r-cc",
                     "0.1", "--tol-rank", str(tol_rank),
                     "--no-timestamp"]) == 0
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["strata"] == [{"name": "rank1_c0", "dim": dim,
                                    "points": 41}]

    def test_declared_closure_survives_audit(self):
        s = stratify_by_rank(axis_scaling_fields_plane(), r_cc=0.3)
        report = check_frontier(s, eps_touch=0.26, delta_cover=0.26)
        assert report.passed, violation_rows(report)


class TestFoliationBundle:
    def test_line_bundle_ranks_and_whitney(self):
        vfs = line_scaling_fields()
        b = foliation_bundle(vfs, r_cc=0.015)
        assert sorted(b.stratum_rank.values()) == [0, 1, 1]
        assert validate_bundle(b).passed
        sc = line_foliation_scenario(b)
        verdict = whitney_a_from_sections(b, fields_as_sections(vfs, b), sc,
                                          tol=1e-9, tail_len=4)
        assert verdict.status == "PASS"

    def test_corpus_scenario_reads_the_fiber_check(self):
        # The corpus run: fields_line.json with fol_line_scenario.json at
        # r_cc 0.015 and tol 1e-9.
        fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
        vfs = fields_from_json(read_json(
            os.path.join(fixtures, "fields_line.json")))
        b = foliation_bundle(vfs, r_cc=0.015)
        sc = scenario_from_json(read_json(
            os.path.join(fixtures, "fol_line_scenario.json")))
        verdict = assert_sections_read_fiber_check(
            b, fields_as_sections(vfs, b), sc, 1e-9, TAIL_LEN)
        assert verdict.status == "PASS"
        assert len(verdict.section_residuals) == len(vfs.fields)

    def test_constant_field_trivial_bundle(self):
        b = foliation_bundle(constant_field_plane(), r_cc=0.3)
        assert set(b.stratum_rank.values()) == {1}
        assert validate_bundle(b).passed

    def test_square_scaling_gives_same_bundle(self):
        linear = foliation_bundle(line_scaling_fields(power=1), r_cc=0.015)
        quadratic = foliation_bundle(line_scaling_fields(power=2), r_cc=0.015)
        assert linear.stratum_rank == quadratic.stratum_rank
        assert [s.name for s in linear.base.strata] == \
            [s.name for s in quadratic.base.strata]
        for a, b in zip(linear.base.strata, quadratic.base.strata):
            np.testing.assert_array_equal(a.points, b.points)
        for key in linear.point_keys():
            assert gap_distance(linear.fiber(key),
                                quadratic.fiber(key)) <= 1e-12

    def test_plane_bundle_validates(self):
        b = foliation_bundle(axis_scaling_fields_plane(), r_cc=0.3)
        assert validate_bundle(b).passed

    def test_stacks_are_the_per_point_bases(self):
        # Each stratum's stack gathers the distribution rows of its
        # points; stacking them one point at a time gives the same bits.
        vfs = axis_scaling_fields_plane(0.1)
        b = foliation_bundle(vfs, r_cc=0.12)
        vh, ranks = _distribution_rows(vfs, vfs.sample_points, TOL_RANK)
        part = partition_by_label(
            vfs.sample_points, ranks,
            [(f"rank{r}", r) for r in sorted(set(ranks))],
            dim=lambda rank, cloud: 0, below=lambda low, high: low < high,
            r_cc=0.12)
        expected = {s.name: np.stack([vh[p, :ranks[p]] for p in local])
                    for s, local in zip(part.stratification.strata,
                                        part.members)}
        assert len(ranks) == 441 and len(b.stacks) > 1
        assert list(b.stacks) == list(expected)
        for name, stack in b.stacks.items():
            assert stack.dtype == expected[name].dtype
            assert stack.tobytes() == expected[name].tobytes()


class TestProperties:
    def test_scaling_by_nonvanishing_polynomial(self):
        # (1 + x^2) x d/dx spans the same line as x d/dx wherever x != 0.
        base = line_scaling_fields(power=1)
        scaled_field = PolynomialVectorField(
            1, [{"powers": [1], "vector": [1.0]},
                {"powers": [3], "vector": [1.0]}])
        scaled = VectorFieldSet(1, [scaled_field], base.sample_points)
        for p in base.sample_points:
            w1 = distribution_at(base, p)
            w2 = distribution_at(scaled, p)
            assert gap_distance(w1, w2) <= 1e-9

    def test_sections_pass_on_every_declared_scenario(self):
        for power in (1, 2):
            vfs = line_scaling_fields(power=power)
            b = foliation_bundle(vfs, r_cc=0.015)
            sc = line_foliation_scenario(b)
            verdict = whitney_a_from_sections(b, fields_as_sections(vfs, b),
                                              sc, tol=1e-9, tail_len=4)
            assert verdict.status == "PASS"


def power_400_fields(ambient):
    """x^400 d/dx on the line or the plane: its value overflows to inf
    at x = ±10, the first sample."""
    field = PolynomialVectorField(ambient, [
        {"powers": [400] + [0] * (ambient - 1),
         "vector": [1.0] + [0.0] * (ambient - 1)}])
    xs = [-10.0, 0.0, 0.5, 10.0]
    return VectorFieldSet(ambient, [field],
                          [[x] + [0.0] * (ambient - 1) for x in xs])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # x^400 overflows
class TestNonFiniteFieldValues:
    @pytest.mark.parametrize("ambient", [1, 2])
    @pytest.mark.parametrize("build", [stratify_by_rank, foliation_bundle])
    def test_verbs_name_the_first_sample(self, ambient, build):
        vfs = power_400_fields(ambient)
        point = [-10.0] + [0.0] * (ambient - 1)
        with pytest.raises(ValueError, match=re.escape(
                f"field 0 takes a non-finite value at sample 0, {point}")):
            build(vfs)

    def test_first_sample_then_first_field(self):
        # Field 1 overflows at both samples, field 0 only at the second.
        f0 = PolynomialVectorField(1, [{"powers": [400], "vector": [1.0]}])
        f1 = PolynomialVectorField(1, [{"powers": [0], "vector": [np.inf]}])
        vfs = VectorFieldSet(1, [f0, f1], [[0.5], [10.0]])
        with pytest.raises(ValueError, match=re.escape(
                "field 1 takes a non-finite value at sample 0, [0.5]")):
            _distribution_rows(vfs, vfs.sample_points, TOL_RANK)
        with pytest.raises(ValueError, match=re.escape(
                "field 0 takes a non-finite value at sample 0, [10.0]")):
            distribution_at(VectorFieldSet(1, [f0], [[0.0]]), [10.0])

    def test_nan_value(self):
        field = PolynomialVectorField(1, [{"powers": [0], "vector": [np.nan]}])
        with pytest.raises(ValueError, match="non-finite value at sample 0"):
            foliation_bundle(VectorFieldSet(1, [field], [[0.0], [1.0]]))

    def test_sample_coordinates_are_bounded(self):
        field = PolynomialVectorField(1, [{"powers": [0], "vector": [1.0]}])
        VectorFieldSet(1, [field], [[0.0], [2.0 ** 500]])
        for bad in (np.nextafter(2.0 ** 500, np.inf), np.nan, -np.inf):
            with pytest.raises(ValueError, match=re.escape(
                    "sample point 1 has a coordinate that is not finite or "
                    "beyond ±2^500")):
                VectorFieldSet(1, [field], [[0.0], [bad]])


class TestTermValidation:
    """In-memory terms are checked, not coerced: an exponent is an
    integer, never a bool, float or str."""

    @staticmethod
    def field(powers, vector=(1.0,)):
        return PolynomialVectorField(
            len(vector), [{"powers": powers, "vector": list(vector)}])

    @staticmethod
    def action(powers):
        # One coordinate of R^1; a term has an exponent for t and for e.
        return MonoidActionSample.polynomial(
            [[{"powers": powers, "coef": 1.0}]], 1, [[1.0]])

    @pytest.mark.parametrize("exponent, kind", [
        (1.5, "float"), (True, "bool"), ("2", "str")])
    def test_non_integer_exponent_rejected(self, exponent, kind):
        message = f"term 0 powers\\[0\\]: expected int, got {kind}"
        with pytest.raises(ValueError, match=message):
            self.field([exponent])
        with pytest.raises(ValueError, match=message):
            self.action([exponent, 1])

    @pytest.mark.parametrize("make, powers, message", [
        ("field", [1, 0], r"term 0 powers: expected 1 exponents, got 2"),
        ("field", [-1], r"term 0 powers\[0\]: negative exponent -1"),
        ("action", [1], r"term 0 powers: expected 2 exponents, got 1"),
        ("action", [1, -2], r"term 0 powers\[1\]: negative exponent -2"),
    ], ids=["field-count", "field-negative", "action-count",
            "action-negative"])
    def test_exponent_count_and_sign(self, make, powers, message):
        with pytest.raises(ValueError, match=message):
            getattr(self, make)(powers)

    def test_vector_length(self):
        with pytest.raises(ValueError, match=r"term 0 vector: expected 2 "
                           r"entries, got shape \(3,\)"):
            PolynomialVectorField(2, [{"powers": [0, 1],
                                       "vector": [1.0, 0.0, 0.0]}])

    def test_numpy_integer_exponents_accepted(self):
        field = self.field([np.int64(2)])
        assert field.terms[0][0] == (2,)
        assert type(field.terms[0][0][0]) is int
        np.testing.assert_array_equal(field.evaluate([[3.0]]), [[9.0]])
        assert self.action(list(np.array([1, 1]))).evaluate(
            2.0, np.array([[3.0]])).tolist() == [[6.0]]


class TestVectorFieldSetInput:
    FIELD = PolynomialVectorField(1, [{"powers": [1], "vector": [1.0]}])

    @pytest.mark.parametrize("build, message", [
        (lambda f: VectorFieldSet(0, [PolynomialVectorField(
            0, [{"powers": [], "vector": []}])], [[]]),
         "ambient_dim must be positive"),
        (lambda f: VectorFieldSet(-1, [f], [[0.0]]),
         "ambient_dim must be positive"),
        (lambda f: VectorFieldSet(1, [], [[0.0]]),
         "need at least one vector field"),
        (lambda f: VectorFieldSet(2, [f], [[0.0, 0.0]]),
         "field ambient dimension mismatch"),
        (lambda f: VectorFieldSet(1, [f], [[0.0, 1.0]]),
         "sample points have the wrong ambient dimension"),
        (lambda f: VectorFieldSet(1, [f], np.zeros((0, 1))),
         "need at least one sample point"),
        # The samples are checked before the fields.
        (lambda f: VectorFieldSet(1, [], [[0.0, 1.0]]),
         "sample points have the wrong ambient dimension"),
    ], ids=["ambient-zero", "ambient-negative", "no-fields",
            "field-ambient", "sample-width", "no-samples",
            "samples-before-fields"])
    def test_constructor_rejects(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(self.FIELD)

    def test_reader_rejects_ambient_zero(self):
        obj = {"schema": "svb/1", "ambient": 0, "samples": [[]],
               "fields": [{"coeffs": [{"powers": [], "vector": []}]}]}
        with pytest.raises(SchemaError,
                           match=r"^\$: ambient_dim must be positive$"):
            fields_from_json(obj)


class TestJsonRoundTrip:
    def test_vector_field_set(self):
        vfs = axis_scaling_fields_plane()
        again = fields_from_json(fields_to_json(vfs))
        np.testing.assert_array_equal(vfs.sample_points, again.sample_points)
        for p in vfs.sample_points[:5]:
            assert gap_distance(distribution_at(vfs, p),
                                distribution_at(again, p)) <= 1e-15
