#!/usr/bin/env python3
"""Drive every CLI verb over the committed fixture corpus and print a
one-line verdict per run.  Known-bad fixtures (the failing Whitney cone,
the non-regular square scaling, the broken translation action) are
expected to exit 2; anything off-script trips the final exit code.

    python3 scripts/run_corpus.py [--format text|json] [--dump DIR]

``--dump DIR`` also writes each run's report to ``DIR/report<NN>.<format>``
and the artifacts of the producing verbs into DIR, so two checkouts can
be diffed for byte-identical output.  The reports name DIR as ``<dump>``
so that the tree does not depend on where it was written;
``tests/golden/corpus`` holds the JSON tree that the test suite compares
against.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from svb.cli import main as cli_main

ROOT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(ROOT, name)


def plan(tmp):
    tilde = os.path.join(tmp, "tilde.json")
    return [
        (0, ["check", "frontier", "--stratification", fx("line.json"),
             "--eps-touch", "0.05", "--delta-cover", "0.05"]),
        (0, ["check", "frontier", "--stratification", fx("cone_base.json"),
             "--eps-touch", "0.08", "--delta-cover", "0.08"]),
        (0, ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
             "--scenario", fx("cone_scenario.json")]),
        (2, ["check", "whitney-a", "--bundle", fx("cone_fail.json"),
             "--scenario", fx("cone_scenario.json")]),
        (0, ["check", "whitney-a", "--bundle", fx("cone_rank0.json"),
             "--scenario", fx("cone_scenario.json")]),
        (0, ["check", "orthogonality", "--functor", "wedge:2",
             "--subspace", fx("plane_in_r3.json")]),
        (0, ["check", "orthogonality", "--functor", "sym:2",
             "--bundle", fx("step_rank.json")]),
        (0, ["apply-functor", "--functor", "wedge:2",
             "--bundle", fx("trivial3.json"),
             "--out", os.path.join(tmp, "image.json")]),
        (0, ["monoid", "analyze", "--action", fx("action_scalar.json")]),
        (2, ["monoid", "analyze", "--action", fx("action_square_scale.json"),
             "--tol-check", "1e-6"]),
        (2, ["monoid", "analyze", "--action", fx("action_translate.json")]),
        (0, ["monoid", "analyze", "--action", fx("action_scale_last.json")]),
        (0, ["equivariant", "tilde", "--group", fx("sign_flip_group.json"),
             "--bundle", fx("sign_flip_tangent.json"),
             "--r-cc", "0.06", "--out", tilde]),
        (0, ["equivariant", "quotient", "--group", fx("sign_flip_group.json"),
             "--bundle", tilde, "--r-cc", "0.06",
             "--out", os.path.join(tmp, "quot.json")]),
        (0, ["foliation", "stratify", "--fields", fx("fields_line.json"),
             "--r-cc", "0.015"]),
        (0, ["foliation", "stratify", "--fields", fx("fields_plane_axes.json"),
             "--r-cc", "0.3"]),
        (0, ["foliation", "bundle", "--fields", fx("fields_line.json"),
             "--scenario", fx("fol_line_scenario.json"),
             "--r-cc", "0.015", "--tol-check", "1e-9"]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--dump", metavar="DIR",
                        help="write every report and artifact into DIR")
    args = parser.parse_args(argv)

    surprises = 0
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        workdir = contextlib.nullcontext(os.path.abspath(args.dump))
    else:
        workdir = tempfile.TemporaryDirectory()
    with workdir as tmp:
        runs = plan(tmp)
        for k, (expected, argv) in enumerate(runs):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(argv + ["--format", args.format,
                                        "--no-timestamp"])
            if args.dump:
                with open(os.path.join(tmp, f"report{k:02d}.{args.format}"),
                          "w", encoding="utf-8") as fh:
                    fh.write(buffer.getvalue().replace(tmp, "<dump>"))
            verb = " ".join(a for a in argv[:2] if not a.startswith("-"))
            target = os.path.basename(
                next((a for a in argv if a.endswith(".json")), ""))
            status = "ok" if code == expected else "UNEXPECTED"
            print(f"[{status}] exit={code} (expected {expected}) "
                  f"{verb} {target}")
            if code != expected:
                surprises += 1
                print(buffer.getvalue())
    print(f"{len(runs)} runs, {surprises} unexpected exit codes")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
