import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import svb.bundle
from svb.bundle import SampledStratifiedBundle
from svb.cli import TOLERANCES, build_parser, main
from svb.fixtures import cone_bundle, line_stratification
from svb.functors import SymPower, check_orthogonality
from svb.grassmann import Subspace, span
from svb.jsonio import (bundle_from_json, bundle_to_json, read_json,
                        stratification_from_json, write_json)
from svb.strata import check_frontier

from helpers import violation_rows

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def edited(fixture, entry, value):
    """The fixture document with the item at the key path ``entry`` set
    to ``value``."""
    obj = read_json(fx(fixture))
    target = obj
    for step in entry[:-1]:
        target = target[step]
    target[entry[-1]] = value
    return obj


# Each verb, inputs it runs on, and the tolerance flags its handler reads.
VERB_TOLERANCES = [
    ("check frontier", ["--stratification", fx("line.json")],
     {"--eps-touch", "--delta-cover"}),
    ("check whitney-a", ["--bundle", fx("cone_pass.json"),
                         "--scenario", fx("cone_scenario.json")],
     {"--tol-check", "--tail-len"}),
    ("check orthogonality", ["--functor", "wedge:2",
                             "--subspace", fx("plane_in_r3.json")],
     {"--tol-check"}),
    ("apply-functor", ["--functor", "id", "--bundle", fx("trivial3.json")],
     set()),
    ("monoid analyze", ["--action", fx("action_scalar.json")],
     {"--tol-check", "--step"}),
    ("equivariant tilde", ["--group", fx("sign_flip_group.json"),
                           "--bundle", fx("sign_flip_tangent.json")],
     {"--tol-check", "--r-cc"}),
    ("equivariant quotient", ["--group", fx("sign_flip_group.json"),
                              "--bundle", fx("sign_flip_tangent.json")],
     {"--tol-check", "--r-cc"}),
    ("foliation stratify", ["--fields", fx("fields_line.json"),
                            "--r-cc", "0.015"],
     {"--r-cc", "--tol-rank", "--eps-touch", "--delta-cover"}),
    ("foliation bundle", ["--fields", fx("fields_line.json"),
                          "--r-cc", "0.015"],
     {"--r-cc", "--tol-rank", "--tol-check", "--tail-len"}),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "svb" in capsys.readouterr().out

    def test_missing_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["check", "frontier", "--stratification", fx("line.json")],
         "--tol-ortho"),
        (["check", "frontier", "--stratification", fx("line.json")],
         "--cluster-radius"),
        (["check", "frontier", "--stratification", fx("line.json")],
         "--tol-rank"),
        (["apply-functor", "--functor", "id", "--bundle",
          fx("trivial3.json")], "--tol-check"),
    ], ids=["--tol-ortho", "--cluster-radius", "frontier--tol-rank",
            "apply-functor--tol-check"])
    def test_removed_tolerance_flag_is_usage_error(self, capsys, argv, flag):
        # Removed flags, and flags of other verbs, are no flags at all.
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1e-9"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "frontier", "--help"])
        assert exc.value.code == 0
        assert "--eps-touch" in capsys.readouterr().out

    @pytest.mark.parametrize("verb, inputs, flags", VERB_TOLERANCES,
                             ids=[case[0] for case in VERB_TOLERANCES])
    def test_verb_takes_the_tolerances_it_reads(self, capsys, verb, inputs,
                                                flags):
        # --help lists exactly these tolerance flags, and the report's
        # config holds exactly their values.
        with pytest.raises(SystemExit) as exc:
            main(verb.split() + ["--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        tolerances = {"--" + name.replace("_", "-") for name in TOLERANCES}
        assert listed & tolerances == flags
        code, out = run(capsys, *verb.split(), *inputs, "--no-timestamp")
        assert code == 0
        assert set(json.loads(out)["config"]) == {
            flag[2:].replace("-", "_") for flag in flags}


class TestParserReuse:
    """One parser serves every call of a process; no call leaks into
    the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "frontier"])
        assert exc.value.code == 1
        capsys.readouterr()
        code, out = run(capsys, "check", "frontier",
                        "--stratification", fx("line.json"))
        assert code == 0
        assert json.loads(out)["command"] == "check frontier"

    def test_flag_does_not_leak_into_next_call(self, capsys):
        args = ("check", "frontier", "--stratification", fx("line.json"))
        _, first = run(capsys, *args, "--eps-touch", "0.05")
        _, second = run(capsys, *args)
        assert json.loads(first)["config"]["eps_touch"] == 0.05
        assert json.loads(second)["config"]["eps_touch"] == 0.02

    @pytest.mark.parametrize("argv, text", [
        (["--version"], "svb"),
        (["check", "frontier", "--help"], "--eps-touch"),
    ], ids=["version", "help"])
    def test_help_and_version_print_to_current_stdout(self, capsys, argv,
                                                      text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert text in capsys.readouterr().out
        swapped = io.StringIO()
        with contextlib.redirect_stdout(swapped), \
                pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert text in swapped.getvalue()
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _ = run(capsys, "check", "whitney-a",
                      "--bundle", fx("cone_pass.json"),
                      "--scenario", fx("cone_scenario.json"))
        assert code == 0

    def test_fail_is_two(self, capsys):
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", fx("cone_fail.json"),
                        "--scenario", fx("cone_scenario.json"))
        assert code == 2
        report = json.loads(out)
        whitney = [c for c in report["checks"] if c["name"] == "whitney-a"][0]
        assert whitney["residual"] == pytest.approx(1.0, abs=1e-6)

    def test_inconclusive_is_three(self, capsys, tmp_path):
        b = cone_bundle("pass", depth=12)
        fibers = {key: b.fiber(key) for key in b.point_keys()}
        stratum = b.base.stratum("S+")
        for i in range(len(stratum)):
            fibers[("S+", i)] = span([(1.0, 0.0)], 2) if i % 2 else \
                span([(0.0, 1.0)], 2)
        flip = SampledStratifiedBundle(b.base, 2, fibers, b.stratum_rank)
        bundle_path = tmp_path / "flip.json"
        write_json(bundle_to_json(flip), str(bundle_path))
        sc = tmp_path / "sc.json"
        write_json({"schema": "svb/1", "S": "S0", "R": "S+", "x0_index": 0,
                    "sequence_indices": list(range(13))}, str(sc))
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", str(bundle_path), "--scenario", str(sc),
                        "--tol-check", "1e-2")
        assert code == 3
        assert json.loads(out)["overall"] == "INCONCLUSIVE"

    def test_malformed_json_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["check", "frontier", "--stratification", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "invalid JSON" in err

    def test_unreadable_input_is_one(self, capsys, tmp_path):
        code = main(["check", "frontier", "--stratification", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"svb: error: {tmp_path}: cannot read: ")

    @pytest.mark.parametrize("argv", [
        ["check", "frontier", "--stratification", fx("line.json")],
        ["apply-functor", "--functor", "id", "--bundle", fx("trivial3.json")],
    ], ids=["report", "artifact"])
    def test_unwritable_out_is_one(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "r.json"
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"svb: error: {out}: cannot write: ")

    @pytest.mark.parametrize("bad", [1, True, None, ["S+"]],
                             ids=["int", "bool", "null", "list"])
    def test_closure_name_not_a_string_is_one(self, capsys, tmp_path, bad):
        obj = read_json(fx("line.json"))
        obj["closure"][0][1] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["check", "frontier", "--stratification", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "svb: error: $.closure[0]: expected a name pair" in \
            captured.err

    def test_unknown_stratum_in_scenario_is_one(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        write_json({"schema": "svb/1", "S": "ghost", "R": "S+",
                    "x0_index": 0, "sequence_indices": [0, 1]}, str(sc))
        code = main(["check", "whitney-a", "--bundle", fx("cone_pass.json"),
                     "--scenario", str(sc)])
        assert code == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["ranks"].update(bulk="two"),
         "$.ranks.bulk: expected int, got str"),
        (lambda obj: obj["fibers"].pop(16),
         "$.fibers: missing fiber over point ('bulk', 15)"),
        (lambda obj: obj["fibers"][2].update(point_index=["bulk", "x"]),
         "$.fibers[2].point_index: expected [stratum, i]"),
        (lambda obj: obj["fibers"].append(
            dict(obj["fibers"][3], point_index=["ghost", 0])),
         "$.fibers[17].point_index: no sample point ('ghost', 0)"),
        (lambda obj: obj["fibers"][5].update(point_index=["bulk", 16]),
         "$.fibers[5].point_index: no sample point ('bulk', 16)"),
        (lambda obj: obj["fibers"][5].update(point_index=["bulk", -1]),
         "$.fibers[5].point_index: no sample point ('bulk', -1)"),
        (lambda obj: obj["fibers"][5].update(point_index=["origin", 1]),
         "$.fibers[5].point_index: no sample point ('origin', 1)"),
        (lambda obj: obj["fibers"].append(dict(obj["fibers"][2])),
         "$.fibers[17].point_index: repeated fiber over point ('bulk', 1)"),
    ], ids=["rank-not-int", "fiber-missing", "point-index-not-int",
            "unknown-stratum", "index-past-end", "index-negative",
            "index-past-singleton", "fiber-repeated"])
    def test_malformed_bundle_is_one(self, capsys, tmp_path, edit, message):
        obj = read_json(fx("ring_tangent.json"))
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["equivariant", "tilde", "--group",
                     fx("rotation8_group.json"), "--bundle", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"svb: error: {message}" in captured.err


class TestNonFiniteInput:
    def test_nan_point_is_one(self, capsys, tmp_path):
        obj = read_json(fx("line.json"))
        obj["strata"][1]["points"][2][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        code = main(["check", "frontier", "--stratification", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "$.strata[1].points: non-finite value" in captured.err

    def test_inf_bundle_basis_is_one(self, capsys, tmp_path):
        obj = read_json(fx("cone_pass.json"))
        obj["fibers"][3]["basis"][0][0] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(obj))
        code = main(["check", "whitney-a", "--bundle", str(bad),
                     "--scenario", fx("cone_scenario.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "$.fibers[3].basis: non-finite value" in err

    def test_inf_subspace_basis_is_one(self, capsys, tmp_path):
        obj = read_json(fx("plane_in_r3.json"))
        obj["basis"][1][2] = float("-inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(obj))
        code = main(["check", "orthogonality", "--functor", "wedge:2",
                     "--subspace", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "$.basis: non-finite value" in err

    @pytest.mark.parametrize("fixture, entry, where, argv", [
        ("fields_line.json", ("samples", 3, 0), "$.samples",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "vector", 0),
         "$.fields[0].coeffs[0].vector",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("action_scalar.json", ("t_grid", 1), "$.t_grid",
         ["monoid", "analyze", "--action"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "coef"),
         "$.coeffs[1][0].coef", ["monoid", "analyze", "--action"]),
        ("sign_flip_group.json", ("elements", 1, 0, 0), "$.elements[1]",
         ["equivariant", "tilde", "--bundle", fx("sign_flip_tangent.json"),
          "--group"]),
        ("sign_flip_group.json", ("fiber_elements", 1, 0, 0),
         "$.fiber_elements[1]",
         ["equivariant", "tilde", "--bundle", fx("sign_flip_tangent.json"),
          "--group"]),
    ], ids=["fields-sample", "fields-vector", "action-t-grid", "action-coef",
            "group-element", "group-fiber-element"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_reader_input_is_one(self, capsys, tmp_path, fixture,
                                            entry, where, argv, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(fixture, entry, value)))
        code = main(argv + [str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{where}: non-finite value" in captured.err

    @pytest.mark.parametrize("fixture, entry, value, message, argv", [
        ("line.json", ("strata", 1, "points", 2, 0), 10 ** 400,
         "$.strata[1].points: number beyond the float range",
         ["check", "frontier", "--stratification"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "coef"), 10 ** 400,
         "$.coeffs[1][0].coef: number beyond the float range",
         ["monoid", "analyze", "--action"]),
        ("ring_tangent.json", ("fibers", 3, "basis", 0, 0), 10 ** 400,
         "$.fibers[3].basis: number beyond the float range",
         ["equivariant", "tilde", "--group", fx("rotation8_group.json"),
          "--bundle"]),
        ("ring_tangent.json", ("fibers", 3, "basis", 1), [0.0],
         "$.fibers[3].basis: expected a numeric list of equal-length rows",
         ["equivariant", "tilde", "--group", fx("rotation8_group.json"),
          "--bundle"]),
        ("plane_in_r3.json", ("basis", 1), [0.0, 1.0],
         "$.basis: expected a numeric list of equal-length rows",
         ["check", "orthogonality", "--functor", "wedge:2", "--subspace"]),
        ("line.json", ("strata", 0, "points", 0, 0), "0.0",
         "$.strata[0].points: expected a numeric list of equal-length rows",
         ["check", "frontier", "--stratification"]),
        ("line.json", ("strata", 0, "points", 0), [False],
         "$.strata[0].points: expected a numeric list of equal-length rows",
         ["check", "frontier", "--stratification"]),
        ("fields_line.json", ("samples", 3, 0), "0.5",
         "$.samples: expected a numeric list of equal-length rows",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("line.json", ("ambient",), True, "$.ambient: expected int, got bool",
         ["check", "frontier", "--stratification"]),
        ("line.json", ("strata", 1, "dim"), True,
         "$.strata[1].dim: expected int, got bool",
         ["check", "frontier", "--stratification"]),
        ("ring_tangent.json", ("fiber_ambient",), True,
         "$.fiber_ambient: expected int, got bool",
         ["equivariant", "tilde", "--group", fx("rotation8_group.json"),
          "--bundle"]),
        ("ring_tangent.json", ("fibers", 5, "point_index", 1), True,
         "$.fibers[5].point_index: expected [stratum, i]",
         ["equivariant", "tilde", "--group", fx("rotation8_group.json"),
          "--bundle"]),
        ("cone_scenario.json", ("x0_index",), False,
         "$.x0_index: expected int, got bool",
         ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario"]),
        ("line.json", ("strata", 0, "dim"), -1,
         "$.strata[0].dim: negative dimension -1",
         ["check", "frontier", "--stratification"]),
        ("line.json", ("strata", 1, "points"), [[True], [False], [True]],
         "$.strata[1].points: expected a numeric list of equal-length rows",
         ["check", "frontier", "--stratification"]),
        ("cone_scenario.json", ("sequence_indices", 0), True,
         "$.sequence_indices[0]: expected int, got bool",
         ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario"]),
        ("cone_scenario.json", ("sequence_indices", 1), "0",
         "$.sequence_indices[1]: expected int, got str",
         ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario"]),
        ("cone_scenario.json", ("sequence_indices", 2), 0.0,
         "$.sequence_indices[2]: expected int, got float",
         ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario"]),
        ("cone_scenario.json", ("sequence_indices", 0), 0.7,
         "$.sequence_indices[0]: expected int, got float",
         ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario"]),
        ("line.json", ("closure",), 5, "$.closure: expected list, got int",
         ["check", "frontier", "--stratification"]),
        ("line.json", ("closure",), None,
         "$.closure: expected list, got NoneType",
         ["check", "frontier", "--stratification"]),
        ("rotation8_group.json", ("fiber_elements",), 5,
         "$.fiber_elements: expected list, got int",
         ["equivariant", "tilde", "--bundle", fx("ring_tangent.json"),
          "--group"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "powers", 0), 1.5,
         "$.fields[0].coeffs[0].powers[0]: expected int, got float",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "powers", 0), True,
         "$.fields[0].coeffs[0].powers[0]: expected int, got bool",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "powers", 2), 1.0,
         "$.coeffs[1][0].powers[2]: expected int, got float",
         ["monoid", "analyze", "--action"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "powers", 2), True,
         "$.coeffs[1][0].powers[2]: expected int, got bool",
         ["monoid", "analyze", "--action"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "powers", 0), -1,
         "$.fields[0].coeffs[0].powers[0]: negative exponent -1",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "powers"), [1, 0],
         "$.fields[0].coeffs[0].powers: expected 1 exponents, got 2",
         ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("fields_line.json", ("fields", 0, "coeffs", 0, "vector"),
         [1.0, 2.0], "$.fields[0].coeffs[0].vector: expected 1 entries, "
         "got 2", ["foliation", "stratify", "--r-cc", "0.015", "--fields"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "powers", 2), -1,
         "$.coeffs[1][0].powers[2]: negative exponent -1",
         ["monoid", "analyze", "--action"]),
        ("action_cone_scalar.json", ("coeffs", 1, 0, "powers"), [1, 0, 1],
         "$.coeffs[1][0].powers: expected 4 exponents, got 3",
         ["monoid", "analyze", "--action"]),
    ], ids=["point-overflow", "coef-overflow", "basis-overflow",
            "bundle-basis-ragged", "subspace-basis-ragged", "point-string",
            "points-boolean", "sample-string", "ambient-boolean",
            "dim-boolean", "fiber-ambient-boolean", "point-index-boolean",
            "x0-index-boolean", "dim-negative", "stratum-boolean-rows",
            "sequence-index-boolean", "sequence-index-string",
            "sequence-index-float", "sequence-index-fraction",
            "closure-int", "closure-null", "fiber-elements-int",
            "field-power-fraction", "field-power-boolean",
            "action-power-float", "action-power-boolean",
            "field-power-negative", "field-power-count",
            "field-vector-length", "action-power-negative",
            "action-power-count"])
    def test_unrepresentable_reader_input_is_one(self, capsys, tmp_path,
                                                 fixture, entry, value,
                                                 message, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(fixture, entry, value)))
        code = main(argv + [str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err

    def test_overflowing_action_is_one(self, capsys, tmp_path):
        # A finite coefficient whose values overflow during the audits.
        obj = read_json(fx("action_cone_scalar.json"))
        obj["coeffs"][0][0]["coef"] = 1e308
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["monoid", "analyze", "--action", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "svb: error: action: evaluator returned a non-finite value" \
            in captured.err

    def test_overflowing_residual_is_one(self, capsys, tmp_path):
        # Every value is finite, but each composition residual (about
        # 1e200) overflows when its norm squares it.
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({
            "schema": "svb/1", "ambient": 1, "kind": "polynomial",
            "samples": [[1.0]], "t_grid": [-1.0, 0.0, 1.0, 2.0],
            "coeffs": [[{"powers": [1, 0], "coef": 1e200}]]}))
        code = main(["monoid", "analyze", "--action", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("svb: error: action: non-finite "
                                       "residual")

    @staticmethod
    def three_points(tmp_path, x):
        """Three one-point strata in R^1, at -x, 0 and x."""
        path = tmp_path / "three.json"
        path.write_text(json.dumps({
            "schema": "svb/1", "ambient": 1, "closure": [],
            "strata": [{"name": name, "dim": 0, "points": [[p]]}
                       for name, p in zip("abc", (-x, 0.0, x))]}))
        return str(path)

    @pytest.mark.parametrize("thresholds", [
        [], ["--eps-touch", "1e200", "--delta-cover", "1e200"]],
        ids=["default", "explicit"])
    def test_coordinates_beyond_the_bound_are_one(self, capsys, tmp_path,
                                                   thresholds):
        # The squared distances of this cloud overflow to inf.
        code = main(["check", "frontier", "--stratification",
                     self.three_points(tmp_path, 1e200)] + thresholds)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("svb: error: $: stratum 'a' has a sample "
                                "coordinate beyond ±2^500\n")

    def test_wide_cloud_within_the_bound_fails(self, capsys, tmp_path):
        code, out = run(capsys, "check", "frontier", "--stratification",
                        self.three_points(tmp_path, 1e150),
                        "--eps-touch", "1e150", "--delta-cover", "1e150")
        assert code == 2
        (check,) = json.loads(out)["checks"]
        assert [(v["S"], v["R"], v["reason"]) for v in check["violations"]] \
            == [("a", "b", "undeclared"), ("b", "a", "undeclared"),
                ("b", "c", "undeclared"), ("c", "b", "undeclared")]

    @pytest.mark.parametrize("verb", ["stratify", "bundle"])
    @pytest.mark.parametrize("ambient", [1, 2])
    def test_non_finite_field_value_is_one(self, capsys, tmp_path, verb,
                                           ambient):
        pad = [0] * (ambient - 1)
        fields = tmp_path / "fields.json"
        fields.write_text(json.dumps({
            "schema": "svb/1", "ambient": ambient,
            "fields": [{"coeffs": [{"powers": [400] + pad,
                                    "vector": [1.0] + pad}]}],
            "samples": [[x] + pad for x in (-10.0, 0.0, 0.5, 10.0)]}))
        out = tmp_path / "out.json"
        code = main(["foliation", verb, "--fields", str(fields),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "svb: error: fields: field 0 takes a non-finite value at "
            f"sample 0, {[-10.0] + [0.0] * (ambient - 1)}\n")
        assert not out.exists()

    OVERFLOWING = {
        "fields": {"schema": "svb/1", "ambient": 1,
                   "fields": [{"coeffs": [{"powers": [400],
                                           "vector": [1.0]}]}],
                   "samples": [[-10.0], [0.0], [10.0]]},
        "action": {"schema": "svb/1", "ambient": 1, "kind": "polynomial",
                   "samples": [[10.0]], "t_grid": [-1.0, 0.0, 1.0, 2.0],
                   "coeffs": [[{"powers": [0, 400], "coef": 1.0}]]},
        "builtin": {"schema": "svb/1", "ambient": 1, "kind": "builtin",
                    "name": "scalar", "samples": [[1e308]],
                    "t_grid": [-1.0, 0.0, 1.0, 2.0]},
        # Finite values throughout, but a norm squares 1e300.
        "norm": {"schema": "svb/1", "ambient": 2, "kind": "builtin",
                 "name": "scalar",
                 "samples": [[1.0, 0.0], [1e300, 1e300], [3.0, 4.0]],
                 "t_grid": [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]},
        # Finite entries whose orthogonality products overflow.
        "bundle-basis": edited("cone_pass.json", ("fibers", 3, "basis", 0, 0),
                               1e200),
        "subspace-basis": edited("plane_in_r3.json", ("basis", 1, 2), 1e200),
        "group-element": edited("sign_flip_group.json",
                                ("elements", 1, 0, 0), -1e200),
        "group-fiber-element": edited("sign_flip_group.json",
                                      ("fiber_elements", 1, 0, 0), 1e200),
    }

    @pytest.mark.parametrize("kind, argv, error", [
        ("fields", ["foliation", "stratify", "--fields"], "fields: field 0 "
         "takes a non-finite value at sample 0, [-10.0]"),
        ("fields", ["foliation", "bundle", "--fields"], "fields: field 0 "
         "takes a non-finite value at sample 0, [-10.0]"),
        ("action", ["monoid", "analyze", "--action"], "action: evaluator "
         "returned a non-finite value at t=1.0"),
        ("builtin", ["monoid", "analyze", "--action"], "action: evaluator "
         "returned a non-finite value at t=2.0"),
        ("norm", ["monoid", "analyze", "--action"], "action: non-finite "
         "residual at sample 1: a norm overflows"),
        ("bundle-basis", ["check", "orthogonality", "--functor", "wedge:2",
                          "--bundle"],
         "$.fibers[3].basis: basis is not orthonormal within tolerance"),
        ("bundle-basis", ["check", "whitney-a", "--scenario",
                          fx("cone_scenario.json"), "--bundle"],
         "$.fibers[3].basis: basis is not orthonormal within tolerance"),
        ("subspace-basis", ["check", "orthogonality", "--functor", "wedge:2",
                            "--subspace"],
         "$: basis is not orthonormal within tolerance"),
        ("group-element", ["equivariant", "tilde", "--bundle",
                           fx("sign_flip_tangent.json"), "--group"],
         "$: element 1 is not orthogonal"),
        ("group-fiber-element", ["equivariant", "tilde", "--bundle",
                                 fx("sign_flip_tangent.json"), "--group"],
         "$: fiber element 1 is not orthogonal"),
    ], ids=["foliation-stratify", "foliation-bundle", "monoid-analyze",
            "monoid-analyze-builtin", "monoid-analyze-norm",
            "orthogonality-bundle", "whitney-a-bundle",
            "orthogonality-subspace", "tilde-element",
            "tilde-fiber-element"])
    def test_overflow_prints_one_line(self, tmp_path, kind, argv, error):
        # x^400 overflows at x = 10, and so does 2 x at x = 1e308; numpy
        # must not warn on stderr ahead of the error line, so the CLI runs
        # in a process of its own.
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(self.OVERFLOWING[kind]))
        src = os.path.dirname(os.path.dirname(svb.bundle.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from svb.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"svb: error: {error}\n"

    def test_over_long_integer_in_file_is_one(self, capsys, tmp_path):
        # json.load refuses integers of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError.
        obj = read_json(fx("line.json"))
        obj["ambient"] = "AMBIENT"
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(obj).replace('"AMBIENT"', "1" * 5000))
        code = main(["check", "frontier", "--stratification", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"svb: error: {bad}: unreadable JSON: Exceeds the limit")

    def test_over_long_auto_sequence_index_is_one(self, capsys):
        code = main(["check", "whitney-a", "--bundle", fx("cone_pass.json"),
                     "--source-stratum", "S+", "--auto-sequence",
                     f"radial:S0[{'1' * 5000}],3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("svb: error: auto-sequence index of 5000 "
                                "digits is out of range\n")


class TestDeepNesting:
    """Input nested past Python's recursion limit is one error line."""

    @staticmethod
    def nested_functor(depth):
        functor = "id"
        for _ in range(depth):
            functor = f"compose(id,{functor})"
        return functor

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a":' * 100_000 + "1" + "}" * 100_000],
                             ids=["arrays", "objects"])
    def test_deep_json_is_one(self, capsys, tmp_path, text):
        bad = tmp_path / "deep.json"
        bad.write_text(text)
        code = main(["check", "frontier", "--stratification", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            f"svb: error: {bad}: unreadable JSON: maximum recursion depth "
            "exceeded")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["check", "orthogonality", "--subspace", fx("plane_in_r3.json")],
        ["apply-functor", "--bundle", fx("trivial3.json")]],
        ids=["orthogonality", "apply-functor"])
    def test_deep_functor_is_one(self, capsys, argv):
        code = main(argv + ["--functor", self.nested_functor(2000)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("svb: error: functor string is nested too "
                                "deeply\n")

    def test_four_hundred_levels_parse(self, capsys):
        code = main(["check", "orthogonality", "--subspace",
                     fx("plane_in_r3.json"), "--functor",
                     self.nested_functor(400)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "PASS"


class TestErrorTexts:
    """Each input error is one stderr line, the library's message with no
    quotes around it, and exit 1."""

    @staticmethod
    def whitney(*argv):
        return ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
                *argv]

    @staticmethod
    def auto(spec, *argv):
        return TestErrorTexts.whitney("--auto-sequence", spec, *argv)

    @staticmethod
    def scenario(tmp_path, **edit):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(dict(read_json(fx("cone_scenario.json")),
                                        **edit)))
        return str(path)

    @staticmethod
    def one_sample(tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(dict(read_json(fx("fields_line.json")),
                                        samples=[[0.0]])))
        return str(path)

    @pytest.mark.parametrize("argv, error", [
        (lambda tmp: TestErrorTexts.whitney(
            "--scenario", TestErrorTexts.scenario(tmp, x0_index=7)),
         "scenario: point index 7 out of range for stratum 'S0'"),
        (lambda tmp: TestErrorTexts.whitney(
            "--scenario", TestErrorTexts.scenario(tmp, S="ghost")),
         "scenario: no stratum named 'ghost'"),
        (lambda tmp: TestErrorTexts.auto("radial:nope[0],3",
                                         "--source-stratum", "S+"),
         "no stratum named 'nope'"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[0],3",
                                         "--source-stratum", "nope"),
         "no stratum named 'nope'"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[4],3",
                                         "--source-stratum", "S+"),
         "point index 4 out of range for stratum 'S0'"),
        (lambda tmp: ["foliation", "bundle", "--fields",
                      TestErrorTexts.one_sample(tmp), "--scenario",
                      fx("fol_line_scenario.json")],
         "scenario: no stratum named 'rank1_c1'"),
        (lambda tmp: TestErrorTexts.whitney(),
         "check whitney-a needs --scenario or --auto-sequence"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[0]",
                                         "--source-stratum", "S+"),
         "--auto-sequence 'radial:S0[0]' does not match radial:S[i],count"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[0],3"),
         "--auto-sequence needs --source-stratum"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[0],0",
                                         "--source-stratum", "S+"),
         "auto-sequence count 0 out of range"),
        (lambda tmp: TestErrorTexts.auto("radial:S0[0],42",
                                         "--source-stratum", "S+"),
         "auto-sequence count 42 out of range"),
        # A sequence in S itself may end at x0, as radial: does here, and
        # then could never FAIL.
        (lambda tmp: TestErrorTexts.whitney(
            "--scenario", TestErrorTexts.scenario(
                tmp, R="S0", sequence_indices=[0, 0, 0, 0, 0])),
         "$: scenario needs two distinct strata, got 'S0' as both S and R"),
        (lambda tmp: TestErrorTexts.auto("radial:S+[0],5",
                                         "--source-stratum", "S+"),
         "scenario needs two distinct strata, got 'S+' as both S and R"),
    ], ids=["x0-index", "scenario-stratum", "auto-target", "auto-source",
            "auto-index", "sections-stratum", "no-scenario", "auto-spec",
            "auto-no-source", "auto-count-zero", "auto-count-above",
            "scenario-one-stratum", "auto-one-stratum"])
    def test_stderr_line(self, capsys, tmp_path, argv, error):
        code = main(argv(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"svb: error: {error}\n"

    def test_auto_count_at_source_size_runs(self, capsys):
        code, out = run(capsys, *self.auto("radial:S0[0],41",
                                           "--source-stratum", "S+"))
        assert code == 0
        whitney = json.loads(out)["checks"][1]
        assert len(whitney["scenario"]["sequence_indices"]) == 41

    @pytest.mark.parametrize("verb", ["stratify", "bundle"])
    def test_fields_without_coordinates(self, capsys, tmp_path, verb):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({
            "schema": "svb/1", "ambient": 0, "samples": [[]],
            "fields": [{"coeffs": [{"powers": [], "vector": []}]}]}))
        code = main(["foliation", verb, "--fields", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "svb: error: $: ambient_dim must be positive\n"


class TestCheckingReportOut:
    """A checking verb writes its report to --out instead of stdout."""

    @pytest.mark.parametrize("bundle, code", [("cone_pass.json", 0),
                                              ("cone_fail.json", 2)],
                             ids=["pass", "fail"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_goes_to_the_file(self, capsys, tmp_path, bundle, code,
                                     fmt):
        argv = ["check", "whitney-a", "--bundle", fx(bundle), "--scenario",
                fx("cone_scenario.json"), "--format", fmt, "--no-timestamp"]
        want_code, want = run(capsys, *argv)
        out = tmp_path / "report.out"
        got_code, stdout = run(capsys, *argv, "--out", str(out))
        assert (want_code, got_code) == (code, code)
        assert stdout == ""
        assert out.read_text(encoding="utf-8") == want

    def test_text_residual_line(self, capsys):
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", fx("cone_fail.json"),
                        "--scenario", fx("cone_scenario.json"),
                        "--format", "text", "--no-timestamp")
        assert code == 2
        assert out == ("command: check whitney-a\n"
                       "CHECK validate-bundle: PASS\n"
                       "CHECK whitney-a: FAIL (residual=1.000e+00)\n"
                       "overall: FAIL\n")


class TestVerbs:
    def test_frontier_pass(self, capsys):
        code, out = run(capsys, "check", "frontier",
                        "--stratification", fx("line.json"),
                        "--eps-touch", "0.05", "--delta-cover", "0.05")
        assert code == 0
        assert json.loads(out)["overall"] == "PASS"

    @pytest.mark.parametrize("flags", [(), ("--eps-touch", "0.02",
                                            "--delta-cover", "0.001")],
                             ids=["default", "not-covered"])
    def test_frontier_renders_without_violation_objects(self, capsys, flags):
        path = fx("cantor_level6.json")
        code, out = run(capsys, "check", "frontier", "--stratification",
                        path, "--no-timestamp", *flags)
        assert code == 2
        check = json.loads(out)["checks"][0]
        # The violations as built one pair at a time from the touching
        # pairs, the declared order and the cover distance.
        strat = stratification_from_json(read_json(path))
        report = check_frontier(strat, check["eps_touch"],
                                check["delta_cover"])
        expected = []
        for (a, b), witness, d in zip(report.touching_pairs,
                                      report.witness.tolist(),
                                      report.distance.tolist()):
            if not strat.in_closure(a, b):
                expected.append((a, b, "undeclared", witness, d))
            elif d > report.delta_cover:
                expected.append((a, b, "not_covered", witness, d))
        expected.sort(key=lambda v: v[:2])
        assert violation_rows(report) == expected
        assert len(expected) > 1000
        assert check["violations"] == [
            {"S": a, "R": b, "reason": reason, "witness": witness,
             "distance": d} for a, b, reason, witness, d in expected]
        assert check["touching_pairs"] == [list(p)
                                           for p in report.touching_pairs]
        assert report.touching_pairs == tuple(sorted(report.touching_pairs))

    def test_apply_functor_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "wedged.json"
        code, out = run(capsys, "apply-functor", "--functor", "wedge:2",
                        "--bundle", fx("trivial3.json"),
                        "--out", str(out_path))
        assert code == 0
        produced = bundle_from_json(read_json(str(out_path)))
        assert set(produced.stratum_rank.values()) == {3}
        report = json.loads(out)
        assert report["artifacts"]["bundle"] == str(out_path)

    @pytest.mark.parametrize("declared, verdicts", [
        (3, {"validate-input": "PASS", "validate-output": "PASS"}),
        (2, {"validate-input": "FAIL"}),
    ], ids=["valid", "rank-mismatch"])
    def test_apply_functor_validates_input_once(self, capsys, tmp_path,
                                                monkeypatch, declared,
                                                verdicts):
        calls = []
        validate = svb.bundle.validate_bundle
        monkeypatch.setattr(svb.bundle, "validate_bundle",
                            lambda b: calls.append(b) or validate(b))
        obj = read_json(fx("trivial3.json"))
        obj["ranks"]["S0"] = declared
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, "apply-functor", "--functor", "sym:2",
                        "--bundle", str(path))
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert {n: c["verdict"] for n, c in checks.items()} == verdicts
        assert len(calls) == 1
        if declared == 3:
            assert code == 0
            assert checks["validate-output"]["ranks"] == \
                {"S0": 6, "S+": 6, "S-": 6}
        else:
            assert code == 2
            assert checks["validate-input"]["problems"] == \
                ["stratum 'S0' declares rank 2, its fibers have rank 3"]

    @pytest.mark.parametrize("argv", [
        ["apply-functor", "--functor", "sym:2", "--bundle", "BAD_RANK"],
        ["equivariant", "tilde", "--group", fx("sign_flip_group.json"),
         "--bundle", fx("trivial3.json")],
        ["foliation", "stratify", "--fields", fx("fields_plane_axes.json"),
         "--r-cc", "0.05", "--eps-touch", "0.5", "--delta-cover", "0.5"],
    ], ids=["apply-functor", "equivariant-tilde", "foliation-stratify"])
    def test_failed_producing_verb_reports_to_stdout(self, capsys, tmp_path,
                                                     argv):
        obj = read_json(fx("trivial3.json"))
        obj["ranks"]["S0"] = 2
        bad_rank = tmp_path / "in.json"
        bad_rank.write_text(json.dumps(obj))
        argv = [str(bad_rank) if a == "BAD_RANK" else a for a in argv]
        out_path = tmp_path / "artifact.json"
        code, out = run(capsys, *argv, "--out", str(out_path))
        report = json.loads(out)
        assert code == 2
        assert report["overall"] == "FAIL"
        assert "artifacts" not in report
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, check", [
        (["apply-functor", "--functor", "wedge:2", "--bundle",
          fx("trivial3.json"), "--out", "ARTIFACT"], "validate-input"),
        (["check", "whitney-a", "--bundle", fx("cone_pass.json"),
          "--scenario", fx("cone_scenario.json")], "validate-bundle"),
    ], ids=["apply-functor", "whitney-a"])
    def test_rank_for_unknown_stratum_fails(self, capsys, tmp_path, argv,
                                            check):
        bundle = argv.index("--bundle") + 1
        obj = read_json(argv[bundle])
        obj["ranks"]["ghost"] = 7
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        argv[bundle] = str(path)
        out_path = tmp_path / "artifact.json"
        argv = [str(out_path) if a == "ARTIFACT" else a for a in argv]
        code, out = run(capsys, *argv)
        report = json.loads(out)
        checks = {c["name"]: c for c in report["checks"]}
        assert code == 2
        assert checks[check]["verdict"] == "FAIL"
        assert checks[check]["problems"] == [
            "rank declared for unknown stratum 'ghost'"]
        assert "artifacts" not in report
        assert not out_path.exists()

    def test_oversized_functor_is_one(self, capsys):
        code = main(["check", "orthogonality",
                     "--functor", "compose(tensor:3,tensor:3)",
                     "--subspace", fx("plane_in_r3.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "svb: error: functor compose(tensor:3,tensor:3) on R^3 builds "
            "a space of dimension 19683, above the limit 2048\n")

    @pytest.mark.parametrize("argv", [
        ["apply-functor", "--bundle", fx("trivial3.json")],
        ["check", "orthogonality", "--bundle", fx("trivial3.json")],
    ], ids=["apply-functor", "orthogonality-bundle"])
    def test_oversized_functor_on_bundle_is_one(self, capsys, tmp_path,
                                                argv):
        out_path = tmp_path / "image.json"
        code = main(argv + ["--functor", "tensor:7", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "dimension 2187, above the limit 2048" in captured.err
        assert not out_path.exists()

    def test_orthogonality_on_bundle(self, capsys):
        code, out = run(capsys, "check", "orthogonality",
                        "--functor", "sym:2",
                        "--bundle", fx("step_rank.json"),
                        "--tol-check", "1e-9")
        assert code == 0
        report = json.loads(out)
        assert all(c["verdict"] == "PASS" for c in report["checks"])

    def test_orthogonality_on_bundle_of_mixed_ranks(self, capsys, tmp_path):
        # A stratum whose fibers differ in rank is rejected at read.
        obj = read_json(fx("trivial3.json"))
        obj["fibers"][4]["basis"] = [[0.0, 0.6, 0.8]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(obj))
        code = main(["check", "orthogonality", "--functor", "sym:3",
                     "--bundle", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "svb: error: $.fibers[4].basis: rank 1, but an earlier fiber "
            "over stratum 'S+' has rank 3\n")

    def test_orthogonality_needs_one_input(self, capsys):
        code = main(["check", "orthogonality", "--functor", "wedge:2"])
        assert code == 1

    def test_monoid_analyze_regular(self, capsys):
        code, out = run(capsys, "monoid", "analyze",
                        "--action", fx("action_scalar.json"),
                        "--tol-check", "1e-8")
        assert code == 0

    def test_monoid_analyze_not_regular_lists_points(self, capsys):
        code, out = run(capsys, "monoid", "analyze",
                        "--action", fx("action_square_scale.json"),
                        "--tol-check", "1e-6")
        assert code == 2
        report = json.loads(out)
        reg = [c for c in report["checks"] if c["name"] == "regularity"][0]
        assert reg["classification"] == "NOT_REGULAR"
        assert len(reg["violating_points"]) == 3

    def test_equivariant_pipeline(self, capsys, tmp_path):
        tilde = tmp_path / "tilde.json"
        code, _ = run(capsys, "equivariant", "tilde",
                      "--group", fx("sign_flip_group.json"),
                      "--bundle", fx("sign_flip_tangent.json"),
                      "--r-cc", "0.06", "--out", str(tilde))
        assert code == 0
        quot = tmp_path / "quot.json"
        code, out = run(capsys, "equivariant", "quotient",
                        "--group", fx("sign_flip_group.json"),
                        "--bundle", str(tilde),
                        "--r-cc", "0.06", "--out", str(quot))
        assert code == 0
        report = json.loads(out)
        comparison = [c for c in report["checks"]
                      if c["name"] == "tangent-comparison"][0]
        assert comparison["isomorphic"] is True

    @pytest.mark.parametrize("verb", ["tilde", "quotient"])
    @pytest.mark.parametrize("group, bundle, message", [
        ("sign_flip_group.json", "ring_tangent.json",
         "group acts on R^1, but the bundle base lies in R^2"),
        ("sign_flip_group.json", "trivial3.json",
         "fiber elements are 1 x 1, but the bundle fibers lie in R^3"),
        ("rotation8_group.json", "trivial3.json",
         "group acts on R^2, but the bundle base lies in R^1"),
    ], ids=["base", "fiber", "base-before-fiber"])
    def test_equivariant_size_mismatch_fails(self, capsys, verb, group,
                                             bundle, message):
        code, out = run(capsys, "equivariant", verb, "--group", fx(group),
                        "--bundle", fx(bundle))
        assert code == 2
        (check,) = json.loads(out)["checks"]
        assert check == {"name": verb, "verdict": "FAIL", "error": message}

    def test_foliation_stratify_and_bundle(self, capsys, tmp_path):
        strat = tmp_path / "strat.json"
        code, out = run(capsys, "foliation", "stratify",
                        "--fields", fx("fields_line.json"),
                        "--r-cc", "0.015", "--out", str(strat))
        assert code == 0
        report = json.loads(out)
        names = [s["name"] for s in report["checks"][0]["strata"]]
        assert names == ["rank0_c0", "rank1_c0", "rank1_c1"]

        bundle_path = tmp_path / "fol.json"
        code, out = run(capsys, "foliation", "bundle",
                        "--fields", fx("fields_line.json"),
                        "--scenario", fx("fol_line_scenario.json"),
                        "--r-cc", "0.015", "--tol-check", "1e-9",
                        "--out", str(bundle_path))
        assert code == 0
        produced = bundle_from_json(read_json(str(bundle_path)))
        assert sorted(produced.stratum_rank.values()) == [0, 1, 1]

    # File positions of two fibers over the middle stratum S+ (S0 holds
    # one point and comes first).
    INSIDE, OUTSIDE = ("S+", 4), ("S+", 12)

    @classmethod
    def _gram_defect_bundle(cls, tmp_path, rank, outside=False):
        """Exact constant fibers, except that the basis over INSIDE has
        Gram defect 9e-11, just inside the orthonormality tolerance 1e-10,
        and with ``outside`` the one over OUTSIDE has 1.1e-10."""
        base = line_stratification()
        fibers = {(s.name, i): Subspace(3, np.eye(3)[:rank])
                  for s in base.strata for i in range(len(s))}
        fibers[cls.INSIDE] = Subspace(3, np.eye(3)[:rank] * (1 + 4.5e-11))
        obj = bundle_to_json(SampledStratifiedBundle(
            base, 3, fibers, {s.name: rank for s in base.strata}))
        if outside:
            obj["fibers"][1 + cls.OUTSIDE[1]]["basis"] = \
                (np.eye(3)[:rank] * (1 + 5.5e-11)).tolist()
        path = tmp_path / f"rank{rank}.json"
        write_json(obj, str(path))
        return str(path)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_reader_accepts_gram_defect_inside_tolerance(self, tmp_path,
                                                         rank):
        bundle = bundle_from_json(read_json(
            self._gram_defect_bundle(tmp_path, rank)))
        assert np.array_equal(bundle.fiber(self.INSIDE).basis,
                              np.eye(3)[:rank] * (1 + 4.5e-11))

    @pytest.mark.parametrize("argv", [
        ["apply-functor", "--functor", "sym:3"],
        ["check", "orthogonality", "--functor", "wedge:2"],
        ["check", "whitney-a", "--auto-sequence", "radial:S0[0],10",
         "--source-stratum", "S+"],
    ], ids=["apply-functor", "orthogonality", "whitney-a"])
    def test_reader_rejects_gram_defect_beyond_tolerance(self, capsys,
                                                         tmp_path, argv):
        code = main(argv + ["--bundle", self._gram_defect_bundle(
            tmp_path, 2, outside=True)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"svb: error: $.fibers[{1 + self.OUTSIDE[1]}].basis: basis is "
            "not orthonormal within tolerance\n")

    def test_apply_functor_accepts_gram_defect_at_tolerance(self, capsys,
                                                            tmp_path):
        code, out = run(capsys, "apply-functor", "--functor", "sym:3",
                        "--bundle", self._gram_defect_bundle(tmp_path, 1))
        assert code == 0
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert verdicts == {"validate-input": "PASS",
                            "validate-output": "PASS"}

    def test_whitney_a_accepts_gram_defect_at_tolerance(self, capsys,
                                                        tmp_path):
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", self._gram_defect_bundle(tmp_path, 2),
                        "--auto-sequence", "radial:S0[0],10",
                        "--source-stratum", "S+")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["validate-bundle"]["verdict"] == "PASS"
        assert checks["validate-bundle"]["problems"] == []

    def test_auto_sequence(self, capsys):
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", fx("cone_pass.json"),
                        "--auto-sequence", "radial:S0[0],12",
                        "--source-stratum", "S+")
        assert code == 0
        report = json.loads(out)
        whitney = [c for c in report["checks"] if c["name"] == "whitney-a"][0]
        seq = whitney["scenario"]["sequence_indices"]
        assert len(seq) == 12

    def test_text_format(self, capsys):
        code, out = run(capsys, "check", "frontier",
                        "--stratification", fx("line.json"),
                        "--format", "text")
        assert code == 0
        assert out.startswith("command: check frontier")
        assert "overall: PASS" in out


class TestDeterminism:
    def test_reports_byte_identical_without_timestamp(self, capsys):
        args = ("check", "whitney-a", "--bundle", fx("cone_pass.json"),
                "--scenario", fx("cone_scenario.json"), "--no-timestamp")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_timestamp_only_difference(self, capsys):
        args = ("check", "frontier", "--stratification", fx("line.json"))
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        a, b = json.loads(first), json.loads(second)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b


    @pytest.mark.parametrize("fmt, tree", [("json", "corpus"),
                                           ("text", "corpus_text")],
                             ids=["json", "text"])
    def test_corpus_dump_matches_golden(self, tmp_path, capsys, fmt, tree):
        repo = os.path.join(os.path.dirname(__file__), "..")
        spec = importlib.util.spec_from_file_location(
            "run_corpus", os.path.join(repo, "scripts", "run_corpus.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--format", fmt, "--dump", str(tmp_path)]) == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", tree)
        names = sorted(os.listdir(golden))
        made = sorted(os.listdir(tmp_path))
        if fmt == "text":  # the JSON tree pins the artifacts
            made = [name for name in made if name.endswith(".text")]
        assert made == names
        for name in names:
            with open(os.path.join(golden, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


# Runs every call of scripts/run_corpus.py's plan in this interpreter and
# exits naming the first one after which numpy.ma has been imported.
NO_MASKED_ARRAYS = """
import contextlib, importlib.util, io, sys
spec = importlib.util.spec_from_file_location("run_corpus", sys.argv[1])
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
for k, (_, argv) in enumerate(corpus.plan(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()):
        corpus.cli_main(argv + ["--no-timestamp"])
    if "numpy.ma" in sys.modules:
        sys.exit(f"numpy.ma imported by {k} {' '.join(argv[:2])}")
"""


def test_corpus_does_not_import_numpy_ma(tmp_path):
    # numpy's hash-based unique imports numpy.ma on its first call, some
    # 15 ms of a fresh process.
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "run_corpus.py")
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, script, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestFrontierReportLayout:
    """Reports holding frontier violations, written by column, read as
    the standard library's indented, key-sorted JSON."""

    @pytest.mark.parametrize("argv", [
        ["check", "frontier", "--stratification", fx("cantor_level6.json")],
        ["check", "frontier", "--stratification", fx("cantor_level6.json"),
         "--eps-touch", "1e-4", "--delta-cover", "1e-5"],
        ["foliation", "stratify", "--fields", fx("fields_plane_axes.json"),
         "--r-cc", "0.05", "--eps-touch", "0.5", "--delta-cover", "0.5"],
    ], ids=["cantor6", "cantor6-tight", "foliation-stratify"])
    def test_stdout_is_stdlib_layout(self, capsys, argv):
        code = main(argv + ["--no-timestamp"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"


class TestEnvOverrides:
    """Tolerances come from flags only; a bad value is an input error."""

    WHITNEY = ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
               "--scenario", fx("cone_scenario.json")]

    @pytest.mark.parametrize("argv, message", [
        (WHITNEY + ["--tol-check", "-1"], "tol_check must be positive"),
        (WHITNEY + ["--tol-check", "nan"], "tol_check must be positive"),
        (WHITNEY + ["--tail-len", "0"], "tail_len must be at least 1"),
        (["equivariant", "tilde", "--group", fx("sign_flip_group.json"),
          "--bundle", fx("sign_flip_tangent.json"), "--r-cc", "0"],
         "r_cc must be positive"),
        (["check", "frontier", "--stratification", fx("line.json"),
          "--delta-cover", "-0.5"], "delta_cover must be positive when set"),
        (WHITNEY + ["--tol-check", "inf", "--format", "text"],
         "tol_check must be finite"),
        (["check", "frontier", "--stratification", fx("line.json"),
          "--eps-touch", "inf"], "eps_touch must be finite"),
    ], ids=["flag-negative", "flag-nan", "tail-len-zero", "r-cc-zero",
            "delta-cover-negative", "flag-inf", "flag-inf-eps-touch"])
    def test_bad_tolerance_is_one(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"svb: error: {message}" in captured.err
