import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svb import jsonio
from svb.fixtures import (
    cone_bundle,
    cone_scenario,
    line_stratification,
    rotation_group,
    sign_flip_group,
)
from svb.grassmann import Subspace, gap_distance
from svb.jsonio import (
    SCHEMA,
    SchemaError,
    action_from_json,
    action_to_json,
    bundle_from_json,
    bundle_to_json,
    dumps,
    fields_from_json,
    group_from_json,
    group_to_json,
    read_json,
    scenario_from_json,
    scenario_to_json,
    stratification_from_json,
    stratification_to_json,
    subspace_from_json,
    write_json,
)
from svb.monoid import MonoidActionSample
from svb.strata import Stratification


class TestRoundTrips:
    def test_stratification(self):
        s = line_stratification()
        again = stratification_from_json(stratification_to_json(s))
        assert again.names == s.names
        assert again.closure_order == s.closure_order
        for a, b in zip(s.strata, again.strata):
            np.testing.assert_array_equal(a.points, b.points)
            assert a.dim == b.dim

    def test_strata_are_read_only_views_of_one_cloud(self):
        s = stratification_from_json(read_json(os.path.join(FIXTURES,
                                                            "line.json")))
        cloud = np.concatenate([st.points for st in s.strata])
        start = 0
        for st in s.strata:
            assert not st.points.flags.writeable
            assert st.points.base is not None
            assert st.points.base is s.strata[0].points.base
            np.testing.assert_array_equal(st.points,
                                          cloud[start:start + len(st)])
            start += len(st)
        with pytest.raises(ValueError, match="read-only"):
            s.strata[1].points[0, 0] = 5.0

    def test_bundle(self):
        b = cone_bundle("pass", depth=8)
        again = bundle_from_json(bundle_to_json(b))
        assert again.fiber_ambient == b.fiber_ambient
        assert again.stratum_rank == b.stratum_rank
        for key in b.point_keys():
            assert gap_distance(again.fiber(key), b.fiber(key)) == 0.0

    def test_shuffled_rank0_bundle_file(self, tmp_path):
        # Fiber entries in a seeded random order across the strata of
        # cone_rank0, whose origin stratum has rank 0.
        canonical = os.path.join(FIXTURES, "cone_rank0.json")
        obj = read_json(canonical)
        order = np.random.default_rng(9).permutation(len(obj["fibers"]))
        obj["fibers"] = [obj["fibers"][i] for i in order]
        assert [f["point_index"] for f in obj["fibers"]] != \
            [f["point_index"] for f in read_json(canonical)["fibers"]]
        b = bundle_from_json(obj)
        assert b.stacks["S0"].shape == (1, 0, 2)
        for item in obj["fibers"]:
            key = tuple(item["point_index"])
            w = Subspace(2, item["basis"])
            assert np.array_equal(b.fiber(key).basis, w.basis)
            assert np.array_equal(b.fiber(key).projection, w.projection)
        out = tmp_path / "again.json"
        write_json(bundle_to_json(b), str(out))
        with open(canonical, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_scenario(self):
        sc = cone_scenario(8)
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_group(self):
        g = rotation_group(8)
        again = group_from_json(group_to_json(g))
        assert again.order == g.order
        np.testing.assert_array_equal(again.table, g.table)

    def test_action(self):
        a = MonoidActionSample.builtin("scalar", 2, [[1.0, 2.0], [0.0, 0.0]])
        again = action_from_json(action_to_json(a))
        for t in (-1.0, 0.0, 2.0):
            np.testing.assert_allclose(again.evaluate(t, [1.0, 2.0]),
                                       a.evaluate(t, [1.0, 2.0]))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "line.json"
        write_json(stratification_to_json(line_stratification()), str(path))
        loaded = stratification_from_json(read_json(str(path)))
        assert loaded.names == line_stratification().names


class TestSchemaErrors:
    def test_missing_schema_tag(self):
        obj = stratification_to_json(line_stratification())
        del obj["schema"]
        with pytest.raises(SchemaError, match=r"\$\.schema"):
            stratification_from_json(obj)

    def test_wrong_schema_version(self):
        obj = stratification_to_json(line_stratification())
        obj["schema"] = "svb/7"
        with pytest.raises(SchemaError, match="svb/1"):
            stratification_from_json(obj)

    def test_error_paths_are_specific(self):
        obj = stratification_to_json(line_stratification())
        del obj["strata"][1]["points"]
        with pytest.raises(SchemaError, match=r"\$\.strata\[1\]\.points"):
            stratification_from_json(obj)

    def test_ragged_points_rejected(self):
        obj = stratification_to_json(line_stratification())
        obj["strata"][0]["points"] = [[0.0], [1.0, 2.0]]
        with pytest.raises(SchemaError, match="strata\\[0\\]"):
            stratification_from_json(obj)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_boolean_stratum_among_float_strata(self, i):
        obj = stratification_to_json(line_stratification())
        obj["strata"][i]["points"] = [[k % 2 == 0]
                                      for k in range(len(
                                          obj["strata"][i]["points"]))]
        with pytest.raises(SchemaError, match=re.escape(
                f"$.strata[{i}].points: expected a numeric list")):
            stratification_from_json(obj)

    @pytest.mark.parametrize("edit, where", [
        (lambda strata: strata[2].update(points=[[False]]),
         "$.strata[1].dim: expected int"),
        (lambda strata: strata[0].update(points=[[False]]),
         "$.strata[0].points: expected a numeric list"),
        (lambda strata: strata[0].update(points=[[0.0, 1.0]]),
         "$.strata[0].points: rows of length 2, ambient is 1"),
        (lambda strata: strata[2].update(dim=-2),
         "$.strata[1].dim: expected int"),
    ], ids=["boolean-later", "boolean-first", "width-first", "negative-later"])
    def test_lowest_offending_stratum_named(self, edit, where):
        obj = stratification_to_json(line_stratification())
        obj["strata"][1]["dim"] = "1"
        edit(obj["strata"])
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}"):
            stratification_from_json(obj)

    def test_empty_point_rows_rejected(self):
        obj = stratification_to_json(line_stratification())
        obj["ambient"] = 0
        for stratum in obj["strata"]:
            stratum["points"] = [[]]
        with pytest.raises(SchemaError, match=re.escape(
                "$.strata[0].points: empty point cloud")):
            stratification_from_json(obj)

    @pytest.mark.parametrize("bad", [1, True, None, ["1"]],
                             ids=["int", "bool", "null", "list"])
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("in_bundle", [False, True],
                             ids=["stratification", "bundle-base"])
    def test_closure_names_must_be_strings(self, bad, end, in_bundle):
        # A stratum named "1" would make str(1) a valid name.
        if in_bundle:
            obj = bundle_to_json(cone_bundle("pass", depth=4))
            base, path, read = obj["base"], "$.base", bundle_from_json
        else:
            obj = base = stratification_to_json(line_stratification())
            path, read = "$", stratification_from_json
        base["strata"][1]["name"] = "1"
        base["closure"] = [["S0", "1"], ["S0", "S-"]]
        base["closure"][1][end] = bad
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}"
                           r"\.closure\[1\]: expected a name pair$"):
            read(obj)

    def test_bundle_bad_point_index(self):
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        obj["fibers"][0]["point_index"] = ["S+"]
        with pytest.raises(SchemaError, match="point_index"):
            bundle_from_json(obj)

    @pytest.mark.parametrize("first", [1, 1.0, None])
    def test_point_index_name_must_be_a_string(self, first):
        # Over a stratum named "1", [1, 0] is refused, not read as "1".
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        name = obj["fibers"][0]["point_index"][0]
        for stratum in obj["base"]["strata"]:
            if stratum["name"] == name:
                stratum["name"] = "1"
        obj["base"]["closure"] = [[a if a != name else "1" for a in pair]
                                  for pair in obj["base"]["closure"]]
        obj["ranks"]["1"] = obj["ranks"].pop(name)
        for fiber in obj["fibers"]:
            if fiber["point_index"][0] == name:
                fiber["point_index"][0] = "1"
        bundle_from_json(obj)
        obj["fibers"][0]["point_index"][0] = first
        with pytest.raises(SchemaError, match=re.escape(
                "$.fibers[0].point_index: expected [stratum, i]")):
            bundle_from_json(obj)

    def test_non_orthonormal_fiber_basis_rejected(self):
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        obj["fibers"][0]["basis"] = [[1.0, 1.0]]
        with pytest.raises(SchemaError, match="orthonormal"):
            bundle_from_json(obj)

    @pytest.mark.parametrize("first, second, where", [
        (3, 7, "$.fibers[3].basis: basis is not orthonormal"),
        (7, 3, "$.fibers[3].basis: non-finite value"),
    ], ids=["audit-first", "structure-first"])
    def test_lowest_offending_entry_named(self, first, second, where):
        # One entry fails the stacked audit, another a per-entry check:
        # the error names whichever comes first in the file.
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        obj["fibers"][first]["basis"] = [[1.0, 1.0]]
        obj["fibers"][second]["basis"] = [[float("nan"), 0.0]]
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}"):
            bundle_from_json(obj)

    def test_negative_subspace_ambient_rejected(self):
        with pytest.raises(SchemaError,
                           match=r"^\$: ambient_dim must be nonnegative$"):
            subspace_from_json({"ambient": -1, "basis": []})

    def test_action_unknown_kind(self):
        obj = action_to_json(MonoidActionSample.builtin("scalar", 1, [[1.0]]))
        obj["kind"] = "neural"
        with pytest.raises(SchemaError, match="builtin"):
            action_from_json(obj)

    def test_group_json_closure_failure(self):
        obj = group_to_json(sign_flip_group())
        obj["elements"] = obj["elements"][1:]
        with pytest.raises(SchemaError, match="identity"):
            group_from_json(obj)

    def test_group_null_fiber_elements_is_no_fiber_action(self):
        obj = group_to_json(rotation_group(8))
        obj["fiber_elements"] = None
        g = group_from_json(obj)
        assert g.fiber_elements is None
        np.testing.assert_array_equal(g.elements, rotation_group(8).elements)

    @pytest.mark.parametrize("edits, where", [
        ({"n": 2.0, "elements": 5, "fiber_elements": 5}, "$.n: expected int"),
        ({"elements": 5, "fiber_elements": 5}, "$.elements: expected list"),
        ({"elements": [[[1.0, 0.0], [0.0, "1"]]], "fiber_elements": [[1.0]]},
         "$.elements[0]: expected a numeric list"),
        ({"fiber_elements": [[[1.0, 0.0]], [1.0]]},
         "$.fiber_elements[1]: expected a numeric list"),
        ({"fiber_elements": 5}, "$.fiber_elements: expected list, got int"),
    ], ids=["n", "elements", "element", "fiber-element", "fiber-elements"])
    def test_group_errors_in_field_order(self, edits, where):
        obj = group_to_json(rotation_group(8))
        obj.update(edits)
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}"):
            group_from_json(obj)

    def test_fields_missing_key(self):
        with pytest.raises(SchemaError, match="ambient"):
            fields_from_json({"schema": SCHEMA, "fields": [], "samples": []})
        term = {"vector": [1.0]}
        with pytest.raises(SchemaError,
                           match=r"\$\.fields\[0\]\.coeffs\[0\]\.powers: missing"):
            fields_from_json({"schema": SCHEMA, "ambient": 1,
                              "fields": [{"coeffs": [term]}],
                              "samples": [[0.0]]})

    def test_unreadable_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(SchemaError, match="not found"):
            read_json(str(missing))

    def test_parse_diagnostics_carry_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"schema\": }\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_json(str(bad))


def _fields(ambient):
    return {"schema": SCHEMA, "ambient": ambient, "samples": [[0.0]],
            "fields": [{"coeffs": [{"powers": [1], "vector": [1.0]}]}]}


def _polynomial_action(ambient):
    return {"schema": SCHEMA, "ambient": ambient, "kind": "polynomial",
            "samples": [[0.0]], "t_grid": [0.0, 1.0],
            "coeffs": [[{"powers": [1, 1], "coef": 1.0}]]}


class TestNonPositiveAmbient:
    """A non-positive ambient is reported before any term is read, where
    the exponent counts of the terms would otherwise be blamed."""

    @pytest.mark.parametrize("ambient", [-1, 0])
    @pytest.mark.parametrize("read, make", [
        (fields_from_json, _fields), (action_from_json, _polynomial_action),
    ], ids=["fields", "action"])
    def test_reader(self, read, make, ambient):
        with pytest.raises(SchemaError,
                           match=r"^\$: ambient_dim must be positive$"):
            read(make(ambient))

    @pytest.mark.parametrize("argv, make", [
        (["foliation", "stratify", "--fields"], _fields),
        (["foliation", "bundle", "--fields"], _fields),
        (["monoid", "analyze", "--action"], _polynomial_action),
    ], ids=["foliation-stratify", "foliation-bundle", "monoid-analyze"])
    def test_cli_line(self, tmp_path, argv, make):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(make(-1)))
        src = os.path.dirname(os.path.dirname(jsonio.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from svb.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "svb: error: $: ambient_dim must be positive\n"


class TestReaderRaises:
    def test_non_object_stratum(self):
        obj = stratification_to_json(line_stratification())
        obj["strata"][1] = 5
        with pytest.raises(SchemaError,
                           match=r"^\$\.strata\[1\]: expected an object$"):
            stratification_from_json(obj)

    def test_empty_scenario_sequence(self):
        obj = scenario_to_json(cone_scenario(depth=4))
        obj["sequence_indices"] = []
        with pytest.raises(SchemaError, match=r"^\$: scenario needs a "
                           "nonempty sequence$"):
            scenario_from_json(obj)

    @pytest.mark.parametrize("edit, error", [
        ({"t_grid": [0.0, 0.5]}, "$: t_grid must contain both 0 and 1"),
        ({"name": "warp"}, "$: unknown builtin action 'warp'"),
    ], ids=["t-grid", "builtin"])
    def test_action_rejected_by_constructor(self, edit, error):
        obj = action_to_json(MonoidActionSample.builtin("scalar", 1, [[1.0]]))
        obj.update(edit)
        with pytest.raises(SchemaError, match=f"^{re.escape(error)}$"):
            action_from_json(obj)

    @pytest.mark.parametrize("edit, error", [
        (lambda obj: obj.update(coeffs=[5]),
         "$.coeffs[0]: expected a list"),
        (lambda obj: obj["coeffs"][0][0].update(coef="1"),
         "$.coeffs[0][0].coef: expected int/float, got str"),
    ], ids=["coordinate-terms", "coef"])
    def test_action_terms(self, edit, error):
        obj = _polynomial_action(1)
        edit(obj)
        with pytest.raises(SchemaError, match=f"^{re.escape(error)}$"):
            action_from_json(obj)


def _read_per_stratum(obj):
    """``stratification_from_json`` with every stratum parsed and checked
    on its own, as the one-parse reader falls back to."""
    try:
        strata = [jsonio._stratum(item, obj["ambient"], f"$.strata[{i}]")
                  for i, item in enumerate(obj["strata"])]
        return Stratification(strata)
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"$: {exc}") from None


def _outcome(read, obj):
    try:
        s = read(obj)
    except SchemaError as exc:
        return str(exc)
    return ([(st.name, st.dim, st.points.dtype, st.points.tobytes())
             for st in s.strata], s.ambient_dim)


class TestOneParseReader:
    """The one-parse reader agrees with the per-stratum route on every
    input: the same strata, bit for bit, or the same error."""

    entries = (st.floats(-4, 4, allow_nan=False) | st.integers(-3, 3)
               | st.booleans()
               | st.sampled_from([None, "0.5", 2 ** 70, 10 ** 400,
                                  float("nan"), float("inf")]))
    pairs = st.lists(st.floats(-4, 4, allow_nan=False) | st.integers(-3, 3),
                     min_size=2, max_size=2)
    flags = st.lists(st.booleans(), min_size=2, max_size=2)
    points = (st.lists(pairs, min_size=1, max_size=4)
              | st.lists(pairs, min_size=1, max_size=4)
              | st.lists(flags, min_size=1, max_size=3)
              | st.lists(pairs | flags, min_size=1, max_size=3)
              | st.lists(st.lists(entries, max_size=3), max_size=3)
              | entries)
    strata = st.lists(st.fixed_dictionaries({
        "dim": st.integers(0, 2) | st.sampled_from([-1, True]),
        "points": points}), max_size=4)

    @settings(max_examples=400, deadline=None)
    @given(strata=strata, ambient=st.sampled_from([2, 2, 2, 1, 0]),
           names=st.sampled_from(["unique", "unique", "repeated", "missing"]))
    def test_same_as_per_stratum_route(self, strata, ambient, names):
        for k, item in enumerate(strata):
            item["name"] = f"s{k}"
        if strata and names != "unique":
            strata[-1]["name"] = "s0" if names == "repeated" else None
        obj = {"schema": SCHEMA, "ambient": ambient, "strata": strata}
        assert _outcome(stratification_from_json, obj) == \
            _outcome(_read_per_stratum, obj)

    def test_rows_of_one_width_other_than_ambient(self):
        # Every stratum looks ordinary and the cloud parses whole, but its
        # rows are not as wide as "ambient" says.
        obj = stratification_to_json(line_stratification())
        obj["ambient"] = 2
        with pytest.raises(SchemaError, match=re.escape(
                "$.strata[0].points: rows of length 1, ambient is 2") + "$"):
            stratification_from_json(obj)


class TestCoordinateBound:
    """Files with a sample coordinate beyond ±2^500 are refused by every
    reader that builds a stratification or a field set."""

    EDGE = 2.0 ** 500
    BEYOND = float(np.nextafter(2.0 ** 500, np.inf))

    def stratification(self, x, first=0.0):
        # A boolean first coordinate sends the reader down the
        # per-stratum route.
        return {"schema": SCHEMA, "ambient": 2, "strata": [
            {"name": "a", "dim": 0, "points": [[0.0, 0.0]]},
            {"name": "b", "dim": 0, "points": [[first, 1.0], [0.5, x]]}]}

    @pytest.mark.parametrize("first", [0.0, True], ids=["one-parse",
                                                        "per-stratum"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_stratification(self, first, sign):
        s = stratification_from_json(
            self.stratification(sign * self.EDGE, first))
        assert s.stratum("b").points[1, 1] == sign * self.EDGE
        with pytest.raises(SchemaError, match=re.escape(
                "$: stratum 'b' has a sample coordinate beyond ±2^500")):
            stratification_from_json(
                self.stratification(sign * self.BEYOND, first))

    def test_bundle_base(self):
        def bundle(x):
            return {"schema": SCHEMA, "base": self.stratification(x),
                    "fiber_ambient": 1, "ranks": {"a": 0, "b": 0},
                    "fibers": [{"point_index": [name, i], "basis": []}
                               for name, i in (("a", 0), ("b", 0),
                                               ("b", 1))]}

        assert bundle_from_json(bundle(self.EDGE)).base.diameter() > 0
        with pytest.raises(SchemaError, match=re.escape(
                "$.base: stratum 'b' has a sample coordinate beyond "
                "±2^500")):
            bundle_from_json(bundle(self.BEYOND))

    def test_field_samples(self):
        def fields(x):
            return {"schema": SCHEMA, "ambient": 1, "samples": [[0.0], [x]],
                    "fields": [{"coeffs": [{"powers": [0],
                                            "vector": [1.0]}]}]}

        assert fields_from_json(fields(-self.EDGE)).sample_points[1, 0] == \
            -self.EDGE
        with pytest.raises(SchemaError, match=re.escape(
                "$: sample point 1 has a coordinate that is not finite or "
                "beyond ±2^500")):
            fields_from_json(fields(-self.BEYOND))


def _bundle_outcome(obj):
    try:
        b = bundle_from_json(obj)
    except SchemaError as exc:
        return str(exc)
    return ([(name, stack.shape, stack.dtype, stack.tobytes())
             for name, stack in b.stacks.items()], b.stratum_rank)


_NAN = float("nan")
# Orthonormal bases in R^2 by rank, floats and integers.
_BASES = {0: [[]],
          1: [[[1.0, 0.0]], [[0.6, -0.8]], [[0, 1]], [[-1, 0.0]]],
          2: [[[0.6, 0.8], [-0.8, 0.6]], [[1, 0], [0, 1]], [[0.0, 1], [1, 0]]]}
# Bases the per-entry route may reject: wrong widths or ranks, ragged or
# empty rows, non-numbers, NaN, and non-orthonormal rows.
_ODD_BASES = [[[1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0]],
              [[1, 0], [0, 1], [0, 0]], [[]], [[], []], [1.0, 0.0],
              [[[1.0, 0.0]]], [[1.0, None]], [["1", 0]], "basis", None,
              [[_NAN, 0.0]], [[2 ** 70, 0]], [[1.0, 1.0]],
              [[0.6, 0.8], [0.6, 0.8]], [[1.0 + 1e-6, 0.0]]]


def _edit_index(value):
    def edit(fibers, i, j):
        fibers[i]["point_index"] = value
    return edit


def _repeat_index(fibers, i, j):
    fibers[i]["point_index"] = fibers[j].get("point_index")


def _drop_entry(fibers, i, j):
    del fibers[i]


def _drop_key(key):
    def edit(fibers, i, j):
        fibers[i].pop(key, None)
    return edit


def _odd_basis(basis):
    def edit(fibers, i, j):
        fibers[i]["basis"] = basis
    return edit


def _boolean_basis(fibers, i, j):
    # All-boolean: [[0, 1]] becomes the orthonormal [[False, True]].
    basis = fibers[i].get("basis")
    if isinstance(basis, list) and all(isinstance(row, list) for row in basis):
        fibers[i]["basis"] = [[x != 0 for x in row] for row in basis]


def _boolean_first(fibers, i, j):
    # Only the first entry: [[True, 0.0]] parses as floats.
    basis = fibers[i].get("basis")
    if isinstance(basis, list) and basis and isinstance(basis[0], list) \
            and basis[0]:
        fibers[i]["basis"] = [[bool(basis[0][0])] + basis[0][1:]] + basis[1:]


_EDITS = {
    "entry": [_repeat_index, _drop_entry, _drop_key("basis"),
              _drop_key("point_index")],
    "index": [_edit_index(value) for value in (
        ["a", 2], ["c", -1], ["a", -9], ["a", True], ["b", 0.0], ["z", 0],
        [0, 0], [["a"], 0], ["a"], ["a", 0, 0], "a0", None)],
    "basis": [_odd_basis(basis) for basis in _ODD_BASES],
    "boolean": [_boolean_basis, _boolean_first],
}
_ALL_EDITS = [edit for kind in sorted(_EDITS) for edit in _EDITS[kind]]


class TestOneParseBundleReader:
    """The one-parse bundle reader agrees with the per-entry route on
    every input: the same stacks and ranks, bit for bit, or the same
    error."""

    SIZES = {"a": 2, "b": 1, "c": 3}

    @classmethod
    def _file(cls, ambient, ranks, bases):
        """A bundle over three strata of 2, 1 and 3 points on the line,
        with the fiber entries ``bases`` in point order."""
        points = iter(range(100))
        base = {"ambient": 1, "strata": [
            {"name": name, "dim": 0,
             "points": [[float(next(points))] for _ in range(n)]}
            for name, n in cls.SIZES.items()]}
        keys = [[name, j] for name, n in cls.SIZES.items() for j in range(n)]
        return {"schema": SCHEMA, "base": base, "fiber_ambient": ambient,
                "fibers": [{"point_index": key, "basis": basis}
                           for key, basis in zip(keys, bases)],
                "ranks": ranks}

    @staticmethod
    def _per_entry(obj):
        with mock.patch.object(jsonio, "_stacked_fibers",
                               lambda *args: None):
            return _bundle_outcome(obj)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_as_per_entry_route(self, data):
        ranks = {name: data.draw(st.integers(0, 2)) for name in self.SIZES}
        obj = self._file(
            data.draw(st.sampled_from([2, 2, 2, 2, 1, 0, -1])), ranks,
            [data.draw(st.sampled_from(_BASES[ranks[name]]))
             for name, n in self.SIZES.items() for _ in range(n)])
        fibers = obj["fibers"]
        for _ in range(data.draw(st.integers(0, 2))):
            if not fibers:
                break
            at = st.integers(0, len(fibers) - 1)
            kind = data.draw(st.sampled_from(sorted(_EDITS)))
            data.draw(st.sampled_from(_EDITS[kind]))(
                fibers, data.draw(at), data.draw(at))
        if fibers and data.draw(st.integers(0, 9)) == 0:
            fibers[-1] = [fibers[-1]]  # an entry that is not an object
        obj["fibers"] = data.draw(st.permutations(fibers))
        assert _bundle_outcome(obj) == self._per_entry(obj)

    @pytest.mark.parametrize("edit", range(len(_ALL_EDITS)))
    @pytest.mark.parametrize("at", [(0, 1), (5, 2)])
    def test_each_edit_of_a_readable_file(self, edit, at):
        # Integer bases of ranks 1, 0 and 2: each boolean edit leaves an
        # orthonormal basis, so only the parse can tell.
        obj = self._file(2, {"a": 1, "b": 0, "c": 2},
                         [[[0, 1]], [[-1, 0]], []]
                         + [[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                            [[0.6, 0.8], [-0.8, 0.6]]])
        assert not isinstance(_bundle_outcome(obj), str)
        _ALL_EDITS[edit](obj["fibers"], *at)
        assert _bundle_outcome(obj) == self._per_entry(obj)

    @pytest.mark.parametrize("ambient", [-1, 0, 2])
    def test_rank0_files(self, ambient):
        obj = self._file(ambient, {"a": 0, "b": 0, "c": 0}, [[]] * 6)
        assert _bundle_outcome(obj) == self._per_entry(obj)

    @pytest.mark.parametrize("name", ["cone_pass.json", "cone_rank0.json",
                                      "ring_tangent.json", "step_rank.json"])
    def test_bundle_files_take_one_parse(self, name):
        obj = read_json(os.path.join(FIXTURES, name))
        base = stratification_from_json(dict(obj["base"], schema=SCHEMA))
        stacks = jsonio._stacked_fibers(base, obj["fiber_ambient"],
                                        obj["fibers"], "$")
        assert stacks is not None
        assert _bundle_outcome(obj) == self._per_entry(obj)

    @pytest.mark.parametrize("first, second, where", [
        (3, 7, "$.fibers[3].basis: basis is not orthonormal"),
        (7, 3, "$.fibers[3].point_index: repeated fiber over point"),
    ], ids=["audit-first", "structure-first"])
    def test_audit_and_structure_errors_in_file_order(self, first, second,
                                                      where):
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        obj["fibers"][first]["basis"] = [[1.0, 1.0]]
        obj["fibers"][second]["point_index"] = obj["fibers"][0]["point_index"]
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}"):
            bundle_from_json(obj)
        assert self._per_entry(obj).startswith(where)

    def test_rank_is_checked_before_the_audit(self):
        # An entry of the wrong rank whose basis also fails the audit.
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        i = next(i for i, item in enumerate(obj["fibers"])
                 if item["point_index"][1] > 0)
        name = obj["fibers"][i]["point_index"][0]
        rank = obj["ranks"][name]
        obj["fibers"][i]["basis"] = [[1.0, 1.0]] * (rank + 1)
        where = (f"$.fibers[{i}].basis: rank {rank + 1}, but an earlier fiber "
                 f"over stratum {name!r} has rank {rank}")
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}$"):
            bundle_from_json(obj)
        assert self._per_entry(obj) == where

    def test_audit_before_a_missing_point(self):
        obj = bundle_to_json(cone_bundle("pass", depth=4))
        obj["fibers"][3]["basis"] = [[1.0, 1.0]]
        del obj["fibers"][-1]
        where = "$.fibers[3].basis: basis is not orthonormal within tolerance"
        with pytest.raises(SchemaError, match=f"^{re.escape(where)}$"):
            bundle_from_json(obj)
        assert self._per_entry(obj) == where


def test_written_files_end_with_newline(tmp_path):
    path = tmp_path / "x.json"
    write_json({"schema": SCHEMA}, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    json.loads(text)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _record_lists(values, keys):
    """Lists of dicts sharing one key set, and lists of dicts whose key
    sets may differ."""
    shared = st.lists(keys, min_size=1, max_size=3, unique=True).flatmap(
        lambda names: st.lists(st.fixed_dictionaries(
            dict.fromkeys(names, values)), min_size=1, max_size=4))
    return shared | st.lists(st.dictionaries(keys, values, max_size=3),
                             max_size=4)


class TestWriter:
    """``dumps`` is the standard library's indented encoder without NaN
    and infinity, byte for byte, and raises where it raises."""

    @staticmethod
    def _stdlib(obj):
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)

    def _same_as_stdlib(self, obj):
        try:
            expected = self._stdlib(obj)
        except ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                dumps(obj)
        else:
            assert dumps(obj) == expected

    @pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
    def test_fixture(self, name):
        obj = read_json(os.path.join(FIXTURES, name))
        assert dumps(obj) == self._stdlib(obj)

    @pytest.mark.parametrize("obj", [
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 10 ** 40],
        [True, False, None, 0, -1, 2.5],
        ["a, b", 1, "[", '"q", r', "\u00e9, \u4e2d", None],
        ["plain", "words"], [[], {}, [[]], [{}]], {"": [], "k": {}},
        [1, [2, [3, "x, y"]], {"z": [4.0, "w"]}], "top, level", -0.0,
        [[1.0, 2.0], [3.0, -0.0]], [[1, None, True], [float("nan")]],
        [[1.0], []], [[1.0, "a, b"], [2.0]], [[[1.0]], [[2.0]]],
        [[{}], [1.0]], [[{"a": [1, 2]}], [2.0]],
        (1, (2.0, "t")), {"b": 1, "a": [1, 2], "c": {"e": None, "d": 1}},
        [{1: "int", 2.5: "float", -0.0: "zero"}, {None: "null"},
         {True: "t", False: "f"}, {float("nan"): "nan"}],
        [{"S": "pt001", "R": "gap1_00", "reason": "undeclared",
          "witness": [0.25, -0.0], "distance": 1e-300},
         {"S": "pt002", "R": "gap1_00", "reason": "not_covered",
          "witness": [1, True], "distance": 2}],
        [{"name": "a", "dim": 1, "points": 3}, {"name": "b", "dim": None,
                                                "points": False}],
        [{"a": 1, "b": 2}, {"a": 1, "c": 2}], [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{"%s": 1, "100%": [1, "%d"], "%%": "%"},
         {"%s": 2, "100%": [3], "%%": "%s"}],
        [{1: "x", 2.5: [1]}, {1: "y", 2.5: [2, 3]}],
        [{1: "a"}, {1.0: "b"}, {True: "c"}],
        [{"a": [[1]]}, {"a": [2]}], [{"a": [1]}, {"a": [[2]]}],
        [{"a": [1, [2]]}, {"a": [3]}], [{"a": [1]}, {"a": [2, {}]}],
        [{"a": {"b": 1}}, {"a": {"b": 2}}], [{"a": 1}, {"a": {"b": 2}}],
        [{"a": [1]}, {"a": (2, 3)}], [{"a": 1}, {"a": [2]}],
        [{"a": []}, {"a": [1]}], [{"a": [1]}, {"a": []}], [{}, {}],
        [{"a": {}}, {"a": {}}], [{"a": [float("nan")]}, {"a": [1.0]}],
        [{"a": "x, y", "b": ["q"]}, {"a": "z", "b": ["w"]}],
        [{"a": "x", "b": ["], [", "q"]}, {"a": "z", "b": ["w"]}],
        [{"a": "x", "b": ['"', "[", "]"]}, {"a": "{", "b": ["}", "[]"]}],
        [["a", "b"], ["c", "d"]], [["a, b", "c"], ["d"]],
        [["[", "]"], ["x"]], [["], [", 1], [2]], [["{", 1], [2]],
        [["[]"], ["y"]], [["a", {}], ["b"]], [["a", {"k": 1}], ["b"]],
        [["a", {"k": 1, "l": [2]}], ["b"]], [['"', "\\"], ["\u00e9"]],
    ], ids=["non-finite", "bools-ints", "separator-in-string", "strings",
            "empty-containers", "empty-values", "nested", "scalar",
            "negative-zero", "matrix", "matrix-mixed", "matrix-empty-row",
            "matrix-string", "matrix-deeper", "matrix-empty-object",
            "matrix-object", "tuples", "sorted-keys", "non-string-keys",
            "records-shared", "records-scalars", "records-mixed-keys",
            "records-fewer-keys", "records-more-keys", "records-percent-keys",
            "records-non-string-keys", "records-equal-number-keys",
            "records-nested-first",
            "records-nested-later", "records-nested-in-row",
            "records-object-in-row", "records-object-values",
            "records-object-later", "records-tuple-later",
            "records-list-later", "records-empty-first",
            "records-empty-later", "records-empty", "records-empty-objects",
            "records-non-finite", "records-separator-in-scalar",
            "records-separator-in-row", "records-brackets-in-strings",
            "rows-strings", "rows-separator", "rows-brackets",
            "rows-row-separator", "rows-brace", "rows-empty-list-string",
            "rows-empty-object", "rows-object", "rows-object-two-keys",
            "rows-escapes"])
    def test_edge_cases(self, obj):
        self._same_as_stdlib(obj)

    scalars = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308])
               | st.text()
               | st.sampled_from([", ", "a, b", "[1, 2]", '"x", "y"', "], [",
                                 "[]", "{", "}", "%s", "%"])
               | st.text(alphabet=st.sampled_from(
                   [",", " ", "[", "]", "{", "}", '"', "\\", ":", "\n",
                    "\u00e9", "\u4e2d", "\U0001f600", "a"])))
    keys = st.text(alphabet=st.sampled_from(["a", "b", "%", "s", '"', ","]),
                   max_size=3)
    rows = st.lists(st.lists(scalars, min_size=1, max_size=4), min_size=1,
                    max_size=5)
    documents = st.recursive(
        scalars | rows,
        lambda inner, scalars=scalars, keys=keys: (
            st.lists(inner, max_size=6)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(max_size=5), inner, max_size=5)
            | _record_lists(inner | st.lists(scalars, min_size=1, max_size=4),
                            keys)),
        max_leaves=40)

    @settings(max_examples=300, deadline=None)
    @given(obj=documents)
    def test_generated_documents(self, obj):
        self._same_as_stdlib(obj)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    def test_non_finite_values_raise(self, value, tmp_path):
        with pytest.raises(ValueError):
            dumps({"r": value})
        with pytest.raises(ValueError):
            dumps({"r": [[1.0, value]]})
        with pytest.raises(ValueError):
            write_json({"r": [value]}, str(tmp_path / "r.json"))

    def test_unserializable_raises_like_stdlib(self):
        for obj in ([object()], {"k": {1, 2}}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                self._stdlib(obj)
            with pytest.raises(TypeError):
                dumps(obj)

    def test_write_json_is_dumps_plus_newline(self, tmp_path):
        obj = bundle_to_json(cone_bundle("fail", depth=6))
        path = tmp_path / "b.json"
        write_json(obj, str(path))
        assert path.read_text() == dumps(obj) + "\n"


REPO = os.path.join(os.path.dirname(__file__), "..")


def _assert_committed_corpus(directory):
    committed = os.path.join(REPO, "fixtures")
    names = sorted(os.listdir(committed))
    assert sorted(os.listdir(directory)) == names
    for name in names:
        with open(os.path.join(committed, name), "rb") as fh:
            assert (directory / name).read_bytes() == fh.read(), name


def test_make_fixtures_reproduces_committed_corpus(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(REPO, "scripts", "make_fixtures.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(str(tmp_path))
    _assert_committed_corpus(tmp_path)


class TestMakeFixturesCommandLine:
    """The script run as a program, from a copy whose default output
    directory is ``tmp_path/fixtures``, so that the committed corpus is
    never written."""

    @pytest.fixture
    def script(self, tmp_path):
        os.mkdir(tmp_path / "scripts")
        os.symlink(os.path.abspath(os.path.join(REPO, "src")), tmp_path / "src")
        shutil.copy(os.path.join(REPO, "scripts", "make_fixtures.py"),
                    tmp_path / "scripts")
        return lambda *argv: subprocess.run(
            [sys.executable, str(tmp_path / "scripts" / "make_fixtures.py"),
             *argv], capture_output=True, text=True, cwd=tmp_path)

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["--bogus"], 2), (["out", "extra"], 2)],
        ids=["help", "unknown-flag", "extra-argument"])
    def test_usage_writes_nothing(self, tmp_path, script, argv, code):
        done = script(*argv)
        assert done.returncode == code
        assert "usage: make_fixtures.py" in done.stdout + done.stderr
        assert "wrote" not in done.stdout
        assert not (tmp_path / "fixtures").exists()
        assert not (tmp_path / "out").exists()

    def test_regenerates_into_named_directory(self, tmp_path, script):
        done = script(str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert not (tmp_path / "fixtures").exists()
        _assert_committed_corpus(tmp_path / "out")
