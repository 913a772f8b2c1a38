"""The pairing and the summary of ``scripts/bench_snapshot.py --against``,
on synthetic runs, its arguments, its ``git archive`` copies of a small
repository, and one kernel timed in this process: no perfbench process
is started."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_s.p50", "better": "lower", "bound": 0.25}]


@pytest.fixture(scope="module")
def snapshot():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", os.path.join(REPO, "scripts", "bench_snapshot.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sides_alternate_from_seed_to_seed(snapshot):
    assert snapshot.pair_order((7, 8, 9, 10)) == [
        (7, ("parent", "change")), (8, ("change", "parent")),
        (9, ("parent", "change")), (10, ("change", "parent"))]


def test_pair_seeds_are_fixed(snapshot):
    assert set(snapshot.PAIR_SEEDS) == set(snapshot.WORKLOADS)
    assert all(len(snapshot.PAIR_SEEDS[w]) == 10
               for w in ("cloud", "fibers", "orbits"))
    assert all(len(seeds) >= 5 for seeds in snapshot.PAIR_SEEDS.values())


def _runs(parent, change):
    return {side: [{"ops_per_s": ops, "op_s.p50": p50} for ops, p50 in runs]
            for side, runs in (("parent", parent), ("change", change))}


def test_summary(snapshot):
    runs = _runs([(100, 1.8), (110, 2.2), (90, 1.7), (100, 2.0), (105, 2.3)],
                 [(120, 2.1), (100, 2.3), (125, 2.2), (130, 2.4), (99, 2.0)])
    summary = snapshot.summarize(runs, END_TO_END)
    ops, p50 = summary["ops_per_s"], summary["op_s.p50"]
    assert ops["parent"] == {"median": 100, "iqr": 5}
    assert ops["change"] == {"median": 120, "iqr": 25}
    assert ops["ratio"] == 1.2
    assert (ops["wins"], ops["pairs"]) == (3, 5)
    assert (ops["better"], ops["bound"]) == ("higher", 0.25)
    assert ops["resolved"] and not ops["beyond_bound"]
    # Lower is better: a higher time wins nothing.
    assert p50["parent"]["median"] == 2.0
    assert p50["change"]["median"] == pytest.approx(2.2)
    assert (p50["wins"], p50["pairs"]) == (1, 5)
    assert p50["parent"]["iqr"] == pytest.approx(0.4)
    assert not p50["resolved"]  # 0.2 apart, within the parent's IQR
    assert not p50["beyond_bound"]


@pytest.mark.parametrize("better, change, beyond", [
    ("higher", 74.0, True), ("higher", 76.0, False),
    ("lower", 126.0, True), ("lower", 124.0, False),
])
def test_bound(snapshot, better, change, beyond):
    runs = {"parent": [{"m": 100.0}], "change": [{"m": change}]}
    spec = [{"name": "m", "better": better, "bound": 0.25}]
    assert snapshot.summarize(runs, spec)["m"]["beyond_bound"] is beyond


def test_compare_runs_each_pair_in_order(snapshot, monkeypatch, tmp_path):
    calls = []

    def perfbench(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        metrics = dict.fromkeys(snapshot.METRICS, 1.0)
        metrics["ops_per_s"] = 100.0 + seed + 5.0 * (checkout != "old")
        return metrics, {"commit": checkout, "fail_ratio": 0.0}

    monkeypatch.setattr(snapshot, "perfbench", perfbench)
    monkeypatch.setattr(snapshot, "PAIR_SEEDS", {
        workload: (1, 2, 3) for workload in snapshot.WORKLOADS})
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    # compare reads the bounds from the checkout it measures, and only reads.
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = fh.read()
    (tmp_path / "BENCHMARK.json").write_text(declared)
    (tmp_path / "src" / "svb").mkdir(parents=True)
    (tmp_path / "src" / "svb" / "core.py").write_text("a = 1\nb = 2\n")
    new = str(tmp_path)
    result = snapshot.compare("old", new, {"parent": "c0", "change": "c1"})
    assert (tmp_path / "BENCHMARK.json").read_text() == declared
    assert calls[:6] == [("old", "corpus", 1), (new, "corpus", 1),
                         (new, "corpus", 2), ("old", "corpus", 2),
                         ("old", "corpus", 3), (new, "corpus", 3)]
    assert len(calls) == 6 * len(snapshot.WORKLOADS)
    assert result["context"]["malloc"]["MALLOC_ARENA_MAX"] == "2"
    assert result["context"]["parent"]["commit"] == "c0"
    assert result["context"]["change"]["commit"] == "c1"
    assert result["context"]["parent"]["src_lines"] is None
    assert result["context"]["change"]["src_lines"] == 2
    assert result["context"]["parent"]["src_lines_by_module"] is None
    assert result["context"]["change"]["src_lines_by_module"] == {
        "core.py": 2}
    orbits = result["workloads"]["orbits"]
    assert [run["first"] for run in orbits["runs"]["parent"]] == [
        True, False, True]
    assert orbits["metrics"]["ops_per_s"]["ratio"] == 107.0 / 102.0
    assert orbits["fail_ratio"] == {"parent": 0.0, "change": 0.0}
    json.dumps(result, allow_nan=False)


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=svb", "-c", "user.email=svb@example.invalid",
         *args], cwd=repo, capture_output=True, text=True,
        check=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_runs_archived_commits(snapshot, monkeypatch, tmp_path):
    """``--against REV`` measures ``git archive`` copies of REV and HEAD
    in one temporary directory, removed at the end, and records each
    side's full commit hash; the working tree's edits are not measured."""
    repo = tmp_path / "repo"
    (repo / "src" / "svb").mkdir(parents=True)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), repo)
    core = repo / "src" / "svb" / "core.py"
    _git(repo, "init", "-q")
    for text in ("a = 1\n", "a = 1\nb = 2\n"):
        core.write_text(text)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "step")
    core.write_text("uncommitted\n" * 5)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    seen = []

    def perfbench(checkout, workload, seed):
        assert checkout.startswith(str(scratch))
        with open(os.path.join(checkout, "src", "svb", "core.py")) as fh:
            seen.append((os.path.basename(checkout), fh.read()))
        return (dict.fromkeys(snapshot.METRICS, 1.0),
                {"commit": None, "fail_ratio": 0.0})

    monkeypatch.setattr(snapshot, "HERE", str(repo))
    monkeypatch.setattr(snapshot, "perfbench", perfbench)
    monkeypatch.setattr(snapshot, "PAIR_SEEDS", {
        workload: (1,) for workload in snapshot.WORKLOADS})
    monkeypatch.setattr(snapshot, "KERNELS", ())
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    out = tmp_path / "pairs.json"
    assert snapshot.main(["--out", str(out), "--against", "HEAD~1"]) == 0
    assert os.listdir(scratch) == []
    assert set(seen) == {("parent", "a = 1\n"), ("change", "a = 1\nb = 2\n")}
    context = json.loads(out.read_text())["context"]
    assert context["parent"]["commit"] == _git(repo, "rev-parse", "HEAD~1")
    assert context["change"]["commit"] == _git(repo, "rev-parse", "HEAD")
    assert len(context["change"]["commit"]) == 40
    assert (context["parent"]["src_lines"],
            context["change"]["src_lines"]) == (1, 2)
    assert context["change"]["src_lines_by_module"] == {"core.py": 2}
    assert "src_modified" not in context["parent"]


def test_checkout_is_hidden(snapshot, capsys):
    with pytest.raises(SystemExit):
        snapshot.parse_args(["--help"])
    assert "--checkout" not in capsys.readouterr().out
    args = snapshot.parse_args(["--out", os.devnull, "--kernel",
                                "cli_main_frontier_line", "--checkout", "x"])
    assert (args.kernel, args.checkout) == ("cli_main_frontier_line", "x")


def test_src_lines(snapshot, tmp_path):
    """The newlines of each ``src/svb/*.py``, as ``wc -l`` counts them:
    other files and subdirectories do not count."""
    package = tmp_path / "src" / "svb"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (package / "notes.txt").write_text("one\ntwo\n")
    (package / "sub" / "c.py").write_text("v = 5\n")
    assert snapshot.src_lines_by_module(str(tmp_path)) == {"a.py": 3,
                                                           "b.py": 1}
    assert snapshot.src_lines_by_module(str(tmp_path / "src")) is None


def test_kernel_list(snapshot):
    assert snapshot.KERNEL_ROUNDS >= 5
    assert len(set(snapshot.KERNELS)) == len(snapshot.KERNELS)


def test_kernel_child_in_process(snapshot, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert snapshot.main(["--kernel", "cli_main_frontier_line",
                          "--out", os.devnull, "--checkout", REPO]) == 0
    timing = json.loads(capsys.readouterr().out)
    assert set(timing) == {"median_s", "min_s", "repeats", "size"}
    assert 0 < timing["min_s"] <= timing["median_s"]
    assert timing["repeats"] == snapshot.REPEATS
    assert timing["size"] == {"verb": "check frontier"}


@pytest.mark.parametrize("argv", [
    [], ["--against", "old", "--kernel", "cli_main_frontier_line"]],
    ids=["neither", "both"])
def test_one_mode_exactly(snapshot, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        snapshot.parse_args(["--out", os.devnull] + argv)
    assert exit_.value.code == 2
    assert "--against" in capsys.readouterr().err


def test_kernels_alternate_round_by_round(snapshot, monkeypatch):
    timings = {("old", "a"): [1.0, 1.2, 1.1, 1.3, 1.0],
               ("new", "a"): [0.9, 1.0, 1.2, 1.0, 0.8],
               ("old", "b"): [2.0] * 5, ("new", "b"): [3.0] * 5}
    calls = []

    def run(checkout, name):
        calls.append((checkout, name))
        seconds = timings[checkout, name].pop(0)
        return {"median_s": seconds, "min_s": seconds / 2, "repeats": 5,
                "size": {"kernel": name}}

    monkeypatch.setattr(snapshot, "KERNELS", ("a", "b"))
    monkeypatch.setattr(snapshot, "KERNEL_ROUNDS", 5)
    out = snapshot.compare_kernels("old", "new", run=run)
    assert calls[:10] == [("old", "a"), ("new", "a"), ("new", "a"),
                          ("old", "a"), ("old", "a"), ("new", "a"),
                          ("new", "a"), ("old", "a"), ("old", "a"),
                          ("new", "a")]
    assert calls[10:] == [(side, "b") for side, _ in calls[:10]]
    a = out["a"]
    assert a["parent"]["median"] == 1.1 and a["change"]["median"] == 1.0
    assert a["parent"]["iqr"] == pytest.approx(0.2)
    assert a["change"]["iqr"] == pytest.approx(0.1)
    assert a["ratio"] == 1.0 / 1.1
    assert (a["wins"], a["pairs"], a["better"]) == (4, 5, "lower")
    assert not a["resolved"]  # 0.1 apart, within the parent's IQR
    assert a["bound"] is None and a["beyond_bound"] is None
    assert a["size"] == {"kernel": "a"}
    assert [run["round"] for run in a["runs"]["change"]] == [0, 1, 2, 3, 4]
    assert [run["first"] for run in a["runs"]["change"]] == [
        False, True, False, True, False]
    b = out["b"]
    assert (b["wins"], b["ratio"], b["resolved"]) == (0, 1.5, True)
    json.dumps(out, allow_nan=False)


def test_kernel_minimum_is_summarized(snapshot, monkeypatch):
    # The medians tie, pair by pair; the minimums win every pair.
    def run(checkout, name):
        return {"median_s": 1.0, "min_s": 0.5 if checkout == "new" else 0.8,
                "repeats": 5, "size": {"kernel": name}}

    monkeypatch.setattr(snapshot, "KERNELS", ("a",))
    monkeypatch.setattr(snapshot, "KERNEL_ROUNDS", 5)
    a = snapshot.compare_kernels("old", "new", run=run)["a"]
    assert a["parent"]["median"] == a["change"]["median"] == 1.0
    assert (a["wins"], a["resolved"]) == (0, False)
    low = a["min_s"]
    assert low["parent"] == {"median": 0.8, "iqr": 0.0}
    assert low["change"] == {"median": 0.5, "iqr": 0.0}
    assert (low["wins"], low["pairs"], low["better"]) == (5, 5, "lower")
    assert low["ratio"] == 0.5 / 0.8 and low["resolved"]
    assert low["bound"] is None and low["beyond_bound"] is None
