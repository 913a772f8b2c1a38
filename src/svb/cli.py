"""Batch front door: load JSON scenes, run checks, emit reports.

Exit codes: 0 when every check passes, 2 when any check fails, 3 when
some check is inconclusive and none fails, 1 on input errors (unreadable
files, schema violations, bad flags or tolerance values).

Reports are deterministic for fixed inputs and configuration; the
timestamp is the only varying field and ``--no-timestamp`` drops it.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import re
import sys

import numpy as np

from . import __version__
from .bundle import (
    ConvergenceScenario,
    InvalidBundleError,
    apply_functor_to_bundle,
    fiber_stacks,
    validate_bundle,
    whitney_a_check,
    whitney_a_from_sections,
)
from .config import Tolerances
from .equivariant import invariant_subbundle, quotient_bundle, tangent_comparison
from .foliation import fields_as_sections, foliation_bundle, stratify_by_rank
from .functors import (check_orthogonality, orthogonality_residuals,
                       parse_functor)
from .monoid import audit_axioms, regularity_check
from .strata import check_frontier
from . import jsonio

__all__ = ["main"]


class CliError(Exception):
    """Input-level problem: reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; argparse's own 2 would read as a FAIL."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("tolerances")
    group.add_argument("--tol-rank", type=float, default=None)
    group.add_argument("--tol-check", type=float, default=None)
    group.add_argument("--step", type=float, default=None)
    group.add_argument("--r-cc", type=float, default=None)
    group.add_argument("--eps-touch", type=float, default=None)
    group.add_argument("--delta-cover", type=float, default=None)
    group.add_argument("--tail-len", type=int, default=None)


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help="artifact file for producing verbs, report "
                             "destination for checking verbs")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable reports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svb",
        description="checks and constructions on sampled stratified "
                    "vector bundles")
    parser.add_argument("--version", action="version",
                        version=f"svb {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run a verification")
    check_sub = check.add_subparsers(dest="subcommand", required=True)

    frontier = check_sub.add_parser("frontier")
    frontier.add_argument("--stratification", required=True)
    _tolerance_flags(frontier)
    _output_flags(frontier)

    whitney = check_sub.add_parser("whitney-a")
    whitney.add_argument("--bundle", required=True)
    whitney.add_argument("--scenario")
    whitney.add_argument("--auto-sequence", metavar="radial:S[i],count",
                         help="generate the scenario by radial "
                              "nearest-neighbour selection toward S[i]")
    whitney.add_argument("--source-stratum",
                         help="stratum the auto-generated sequence runs in")
    _tolerance_flags(whitney)
    _output_flags(whitney)

    ortho = check_sub.add_parser("orthogonality")
    ortho.add_argument("--functor", required=True)
    ortho.add_argument("--subspace")
    ortho.add_argument("--bundle")
    _tolerance_flags(ortho)
    _output_flags(ortho)

    apply_f = commands.add_parser("apply-functor",
                                  help="apply a functor fibrewise")
    apply_f.add_argument("--functor", required=True)
    apply_f.add_argument("--bundle", required=True)
    _tolerance_flags(apply_f)
    _output_flags(apply_f)

    monoid = commands.add_parser("monoid")
    monoid_sub = monoid.add_subparsers(dest="subcommand", required=True)
    analyze = monoid_sub.add_parser("analyze")
    analyze.add_argument("--action", required=True)
    _tolerance_flags(analyze)
    _output_flags(analyze)

    equiv = commands.add_parser("equivariant")
    equiv_sub = equiv.add_subparsers(dest="subcommand", required=True)
    for name in ("tilde", "quotient"):
        sub = equiv_sub.add_parser(name)
        sub.add_argument("--group", required=True)
        sub.add_argument("--bundle", required=True)
        _tolerance_flags(sub)
        _output_flags(sub)

    fol = commands.add_parser("foliation")
    fol_sub = fol.add_subparsers(dest="subcommand", required=True)
    stratify = fol_sub.add_parser("stratify")
    stratify.add_argument("--fields", required=True)
    _tolerance_flags(stratify)
    _output_flags(stratify)
    fbundle = fol_sub.add_parser("bundle")
    fbundle.add_argument("--fields", required=True)
    fbundle.add_argument("--scenario",
                         help="optionally check Whitney A via the "
                              "generating fields as sections")
    _tolerance_flags(fbundle)
    _output_flags(fbundle)

    return parser


def _config(args: argparse.Namespace) -> Tolerances:
    try:
        return Tolerances.from_env().replace(
            tol_rank=args.tol_rank, tol_check=args.tol_check,
            step=args.step, r_cc=args.r_cc, eps_touch=args.eps_touch,
            delta_cover=args.delta_cover, tail_len=args.tail_len)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _verb(args) -> str:
    sub = getattr(args, "subcommand", None)
    return f"{args.command} {sub}" if sub else args.command


def _auto_scenario(bundle, spec: str, source: str | None
                   ) -> ConvergenceScenario:
    match = re.fullmatch(r"radial:([^\[\]]+)\[(\d+)\],(\d+)", spec.strip())
    if not match:
        raise CliError(
            f"--auto-sequence {spec!r} does not match radial:S[i],count")
    if not source:
        raise CliError("--auto-sequence needs --source-stratum")
    target, x0_index, count = match.group(1), int(match.group(2)), \
        int(match.group(3))
    try:
        x0 = bundle.base.stratum(target).points[x0_index]
        cloud = bundle.base.stratum(source).points
    except (KeyError, IndexError) as exc:
        raise CliError(str(exc)) from None
    if count < 1 or count > len(cloud):
        raise CliError(f"auto-sequence count {count} out of range")
    dists = np.linalg.norm(cloud - x0, axis=1)
    nearest = np.argsort(dists, kind="stable")[:count]
    ordered = [int(i) for i in nearest[::-1]]  # approach x0 from afar
    return ConvergenceScenario(target, source, x0_index, tuple(ordered))


def _run_checks(args, cfg: Tolerances) -> tuple[list[dict], dict]:
    """Execute the verb; returns (checks, artifacts-written)."""
    checks: list[dict] = []
    artifacts: dict[str, str] = {}
    verb = _verb(args)

    def add(name, verdict, **data):
        checks.append({"name": name, "verdict": verdict, **data})

    if verb == "check frontier":
        strat = jsonio.stratification_from_json(
            jsonio.read_json(args.stratification))
        report = check_frontier(strat, cfg.eps_touch, cfg.delta_cover)
        add("frontier", "PASS" if report.passed else "FAIL",
            eps_touch=report.eps_touch, delta_cover=report.delta_cover,
            touching_pairs=[list(p) for p in report.touching_pairs],
            violations=[{"S": v.s, "R": v.r, "reason": v.reason,
                         "witness": list(v.witness),
                         "distance": v.distance}
                        for v in report.violations])

    elif verb == "check whitney-a":
        bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
        validation = validate_bundle(bundle)
        add("validate-bundle", "PASS" if validation.passed else "FAIL",
            problems=list(validation.problems))
        if args.scenario:
            scenario = jsonio.scenario_from_json(jsonio.read_json(args.scenario))
        elif args.auto_sequence:
            scenario = _auto_scenario(bundle, args.auto_sequence,
                                      args.source_stratum)
        else:
            raise CliError("check whitney-a needs --scenario or "
                           "--auto-sequence")
        try:
            verdict = whitney_a_check(bundle, scenario, tol=cfg.tol_check,
                                      tail_len=cfg.tail_len)
        except (KeyError, ValueError) as exc:
            raise CliError(f"scenario: {exc}") from None
        add("whitney-a", verdict.status, residual=verdict.residual,
            scenario=scenario.to_json())

    elif verb == "check orthogonality":
        functor = _parse_functor_arg(args.functor)
        if bool(args.subspace) == bool(args.bundle):
            raise CliError(
                "check orthogonality needs exactly one of --subspace or "
                "--bundle")
        if args.subspace:
            w = jsonio.subspace_file_from_json(jsonio.read_json(args.subspace))
            ok, residual = check_orthogonality(functor, w, cfg.tol_check)
            add("orthogonality", "PASS" if ok else "FAIL", residual=residual)
        else:
            bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
            residuals = {}
            for keys, bases in fiber_stacks(bundle):
                residuals.update(zip(
                    keys, orthogonality_residuals(functor, bases).tolist()))
            for key in bundle.point_keys():
                residual = residuals[key]
                add(f"orthogonality[{key[0]}:{key[1]}]",
                    "PASS" if residual <= cfg.tol_check else "FAIL",
                    residual=residual)

    elif verb == "apply-functor":
        functor = _parse_functor_arg(args.functor)
        bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
        try:
            image = apply_functor_to_bundle(functor, bundle)
        except InvalidBundleError as exc:
            add("validate-input", "FAIL",
                problems=list(exc.validation.problems))
        else:
            add("validate-input", "PASS", problems=[])
            # Every image fiber passed its Subspace audit, with the rank
            # and ambient dimension that dim_map gives for its stratum.
            add("validate-output", "PASS",
                ranks=dict(sorted(image.stratum_rank.items())),
                fiber_ambient=image.fiber_ambient)
            if args.out:
                jsonio.write_json(jsonio.bundle_to_json(image), args.out)
                artifacts["bundle"] = args.out

    elif verb == "monoid analyze":
        action = jsonio.action_from_json(jsonio.read_json(args.action))
        try:
            audit = audit_axioms(action, cfg.tol_check)
            regularity = regularity_check(action, tol=cfg.tol_check,
                                          step=cfg.step)
        except ValueError as exc:  # non-finite evaluator value
            raise CliError(f"action: {exc}") from None
        add("axioms", "PASS" if audit.passed else "FAIL",
            identity_violations=[list(v) for v in audit.identity_violations],
            composition_violations=[list(v) for v in
                                    audit.composition_violations])
        add("regularity",
            "PASS" if regularity.overall == "REGULAR" else "FAIL",
            classification=regularity.overall,
            violating_points=[
                {"index": i,
                 "point": action.sample_points[i].tolist()}
                for i in regularity.violating_indices])

    elif verb in ("equivariant tilde", "equivariant quotient"):
        group = jsonio.group_from_json(jsonio.read_json(args.group))
        bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
        try:
            if verb == "equivariant tilde":
                result = invariant_subbundle(group, bundle,
                                             tol=cfg.tol_check, r_cc=cfg.r_cc)
                add("invariant-subbundle", "PASS",
                    ranks=dict(sorted(result.stratum_rank.items())))
            else:
                result = quotient_bundle(group, bundle, tol=cfg.tol_check,
                                         r_cc=cfg.r_cc)
                add("quotient-bundle", "PASS",
                    ranks=dict(sorted(result.stratum_rank.items())))
                comparison = tangent_comparison(result)
                add("tangent-comparison", "PASS",
                    isomorphic=comparison.isomorphic,
                    statement=("isomorphic to the stratified tangent"
                               if comparison.isomorphic else
                               "NOT isomorphic to the stratified tangent"),
                    per_stratum=[{"stratum": n, "rank": r, "tangent_rank": d}
                                 for n, r, d in comparison.per_stratum])
        except ValueError as exc:
            add(verb.split()[1], "FAIL", error=str(exc))
        else:
            if args.out:
                jsonio.write_json(jsonio.bundle_to_json(result), args.out)
                artifacts["bundle"] = args.out

    elif verb == "foliation stratify":
        vfs = jsonio.fields_from_json(jsonio.read_json(args.fields))
        strat = stratify_by_rank(vfs, r_cc=cfg.r_cc, tol_rank=cfg.tol_rank)
        report = check_frontier(strat, cfg.eps_touch, cfg.delta_cover)
        add("stratify", "PASS",
            strata=[{"name": s.name, "dim": s.dim, "points": len(s)}
                    for s in strat.strata])
        add("frontier-audit", "PASS" if report.passed else "FAIL",
            violations=[{"S": v.s, "R": v.r, "reason": v.reason}
                        for v in report.violations])
        if args.out:
            jsonio.write_json(jsonio.stratification_to_json(strat), args.out)
            artifacts["stratification"] = args.out

    elif verb == "foliation bundle":
        vfs = jsonio.fields_from_json(jsonio.read_json(args.fields))
        bundle = foliation_bundle(vfs, r_cc=cfg.r_cc, tol_rank=cfg.tol_rank)
        validation = validate_bundle(bundle)
        add("validate-bundle", "PASS" if validation.passed else "FAIL",
            ranks=dict(sorted(bundle.stratum_rank.items())),
            problems=list(validation.problems))
        if args.scenario:
            scenario = jsonio.scenario_from_json(
                jsonio.read_json(args.scenario))
            try:
                verdict = whitney_a_from_sections(
                    bundle, fields_as_sections(vfs, bundle), scenario,
                    tol=cfg.tol_check, tail_len=cfg.tail_len)
            except (KeyError, ValueError) as exc:
                raise CliError(f"scenario: {exc}") from None
            add("whitney-a-sections", verdict.status,
                residual=verdict.residual,
                section_residuals=list(verdict.section_residuals))
        if args.out:
            jsonio.write_json(jsonio.bundle_to_json(bundle), args.out)
            artifacts["bundle"] = args.out

    else:
        raise CliError(f"unknown command {verb!r}")

    return checks, artifacts


def _parse_functor_arg(text: str):
    try:
        return parse_functor(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _overall(checks) -> tuple[str, int]:
    verdicts = {c["verdict"] for c in checks}
    if "FAIL" in verdicts:
        return "FAIL", 2
    if "INCONCLUSIVE" in verdicts:
        return "INCONCLUSIVE", 3
    return "PASS", 0


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for check in report["checks"]:
        extra = ""
        if check.get("residual") is not None:
            extra = f" (residual={check['residual']:.3e})"
        lines.append(f"CHECK {check['name']}: {check['verdict']}{extra}")
    lines.append(f"overall: {report['overall']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        checks, artifacts = _run_checks(args, cfg)
    except (CliError, jsonio.SchemaError) as exc:
        print(f"svb: error: {exc}", file=sys.stderr)
        return 1

    overall, code = _overall(checks)
    report = {
        "schema": jsonio.SCHEMA,
        "tool": {"name": "svb", "version": __version__},
        "command": _verb(args),
        "config": dataclasses.asdict(cfg),
        "checks": checks,
        "overall": overall,
    }
    if artifacts:
        report["artifacts"] = artifacts
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()

    rendered = _render_text(report) if args.format == "text" else \
        jsonio.dumps(report) + "\n"
    # Checking verbs treat --out as the report destination; producing
    # verbs already used it for their artifact and report to stdout.
    if args.out and not artifacts:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
