import json
import os

import numpy as np
import pytest

from svb.bundle import SampledStratifiedBundle
from svb.cli import main
from svb.fixtures import cone_bundle, line_stratification
from svb.grassmann import Subspace, span
from svb.jsonio import bundle_from_json, bundle_to_json, read_json, write_json

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


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

    @pytest.mark.parametrize("flag", ["--tol-ortho", "--cluster-radius"])
    def test_removed_tolerance_flag_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", "frontier", "--stratification", fx("line.json"),
                  flag, "1e-9"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "frontier", "--help"])
        assert exc.value.code == 0
        assert "--tol-check" in capsys.readouterr().out


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
        fibers = dict(b.fibers)
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
    ], ids=["rank-not-int", "fiber-missing", "point-index-not-int"])
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
        obj = read_json(fx(fixture))
        target = obj
        for step in entry[:-1]:
            target = target[step]
        target[entry[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
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
    ], ids=["point-overflow", "coef-overflow", "basis-overflow",
            "bundle-basis-ragged", "subspace-basis-ragged"])
    def test_unrepresentable_reader_input_is_one(self, capsys, tmp_path,
                                                 fixture, entry, value,
                                                 message, argv):
        obj = read_json(fx(fixture))
        target = obj
        for step in entry[:-1]:
            target = target[step]
        target[entry[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
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


class TestVerbs:
    def test_frontier_pass(self, capsys):
        code, out = run(capsys, "check", "frontier",
                        "--stratification", fx("line.json"),
                        "--eps-touch", "0.05", "--delta-cover", "0.05")
        assert code == 0
        assert json.loads(out)["overall"] == "PASS"

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

    def test_orthogonality_on_bundle(self, capsys):
        code, out = run(capsys, "check", "orthogonality",
                        "--functor", "sym:2",
                        "--bundle", fx("step_rank.json"),
                        "--tol-check", "1e-9")
        assert code == 0
        report = json.loads(out)
        assert all(c["verdict"] == "PASS" for c in report["checks"])

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

    @staticmethod
    def _gram_defect_bundle(tmp_path, rank):
        """Constant fibers whose basis has Gram defect 9e-11, just inside
        the orthonormality tolerance of Subspace."""
        base = line_stratification()
        w = Subspace(3, np.eye(3)[:rank] * (1 + 4.5e-11))
        fibers = {(s.name, i): w for s in base.strata for i in range(len(s))}
        path = tmp_path / f"rank{rank}.json"
        write_json(bundle_to_json(SampledStratifiedBundle(
            base, 3, fibers, {s.name: rank for s in base.strata})),
            str(path))
        return str(path)

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


class TestEnvOverrides:
    def test_env_sets_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("SVB_TOL_CHECK", "1e-3")
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", fx("cone_pass.json"),
                        "--scenario", fx("cone_scenario.json"))
        assert code == 0
        assert json.loads(out)["config"]["tol_check"] == 1e-3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SVB_TOL_CHECK", "1e-3")
        code, out = run(capsys, "check", "whitney-a",
                        "--bundle", fx("cone_pass.json"),
                        "--scenario", fx("cone_scenario.json"),
                        "--tol-check", "1e-7")
        assert json.loads(out)["config"]["tol_check"] == 1e-7

    @pytest.mark.parametrize("env, flags, message", [
        ({}, ["--tol-check", "-1"], "tol_check must be positive"),
        ({}, ["--tol-check", "nan"], "tol_check must be positive"),
        ({"SVB_TAIL_LEN": "abc"}, [], "SVB_TAIL_LEN: expected int, got 'abc'"),
        ({"SVB_R_CC": "0"}, [], "r_cc must be positive"),
    ], ids=["flag-negative", "flag-nan", "env-unparsable", "env-zero"])
    def test_bad_tolerance_is_one(self, capsys, monkeypatch, env, flags,
                                  message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code = main(["check", "frontier", "--stratification", fx("line.json")]
                    + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"svb: error: {message}" in captured.err
