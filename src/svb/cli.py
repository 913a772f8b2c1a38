"""Batch front door: load JSON scenes, run checks, emit reports.

Every verb is registered once, in ``build_parser``: its subparser, its
flags, the tolerances its handler reads (from ``TOLERANCES``, and no
others) and its handler ``run(args, add)``, which records checks through
``add`` and returns the artifacts it produced.  The parser is built once
per process; ``main`` checks the tolerance values, calls ``args.run``
and echoes the verb's tolerances in the report's ``config``.

Exit codes: 0 when every check passes, 2 when any check fails, 3 when
some check is inconclusive and none fails, 1 on input errors (unreadable
files, schema violations, bad flags or tolerance values) and when
``--out`` cannot be written.

Reports are deterministic for fixed inputs and configuration; the
timestamp is the only varying field and ``--no-timestamp`` drops it.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .bundle import (
    ConvergenceScenario,
    InvalidBundleError,
    apply_functor_to_bundle,
    validate_bundle,
    whitney_a_check,
    whitney_a_from_sections,
)
from .config import R_CC, STEP, TAIL_LEN, TOL_CHECK, TOL_RANK
from .equivariant import (StrataNotInvariantError, invariant_subbundle,
                          quotient_bundle, tangent_comparison)
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


# Every tolerance flag: name -> (type, default).  A default of None is
# scale-relative: check_frontier resolves it to 1e-2 times the cloud
# diameter.
TOLERANCES = {
    "tol_rank": (float, TOL_RANK),
    "tol_check": (float, TOL_CHECK),
    "step": (float, STEP),
    "r_cc": (float, R_CC),
    "eps_touch": (float, None),
    "delta_cover": (float, None),
    "tail_len": (int, TAIL_LEN),
}


def _check_tolerances(args: argparse.Namespace) -> None:
    for name in args.tolerances:
        value = getattr(args, name)
        if name == "tail_len" and value < 1:
            raise CliError("tail_len must be at least 1")
        if value is not None and not value > 0:  # NaN fails too
            when = " when set" if TOLERANCES[name][1] is None else ""
            raise CliError(f"{name} must be positive{when}")
        if value == math.inf:
            raise CliError(f"{name} must be finite")


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help="artifact file for producing verbs, report "
                             "destination for checking verbs")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable reports")


def _auto_scenario(bundle, spec: str, source: str | None
                   ) -> ConvergenceScenario:
    match = re.fullmatch(r"radial:([^\[\]]+)\[(\d+)\],(\d+)", spec.strip())
    if not match:
        raise CliError(
            f"--auto-sequence {spec!r} does not match radial:S[i],count")
    if not source:
        raise CliError("--auto-sequence needs --source-stratum")
    target = match.group(1)
    x0_index = _auto_sequence_number(match.group(2), "index")
    count = _auto_sequence_number(match.group(3), "count")
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


def _auto_sequence_number(digits: str, what: str) -> int:
    digits = digits.lstrip("0") or "0"
    if len(digits) > 9:  # beyond every sample count, and perhaps beyond int()
        raise CliError(f"auto-sequence {what} of {len(digits)} digits is out "
                       "of range")
    return int(digits)


def _parse_functor_arg(text: str):
    try:
        return parse_functor(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# Handlers: run(args, add) records checks through add; producing verbs
# return their artifacts, {"bundle" or "stratification": object}, or {}
# when a check failed.  The frontier handlers store the thresholds
# check_frontier resolved back into args, for the report's config.

def _check_frontier(args, add):
    strat = jsonio.stratification_from_json(
        jsonio.read_json(args.stratification))
    report = check_frontier(strat, args.eps_touch, args.delta_cover)
    args.eps_touch, args.delta_cover = report.eps_touch, report.delta_cover
    add("frontier", "PASS" if report.passed else "FAIL",
        eps_touch=report.eps_touch, delta_cover=report.delta_cover,
        touching_pairs=list(map(list, zip(*report.pair_names()))),
        violations=[{"S": a, "R": b, "reason": reason, "witness": witness,
                     "distance": d} for a, b, reason, witness, d
                    in zip(*report.violation_columns())])


def _check_whitney_a(args, add):
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
        raise CliError("check whitney-a needs --scenario or --auto-sequence")
    try:
        verdict = whitney_a_check(bundle, scenario, tol=args.tol_check,
                                  tail_len=args.tail_len)
    except (KeyError, ValueError) as exc:
        raise CliError(f"scenario: {exc}") from None
    add("whitney-a", verdict.status, residual=verdict.residual,
        scenario=scenario.to_json())


def _check_orthogonality(args, add):
    functor = _parse_functor_arg(args.functor)
    if bool(args.subspace) == bool(args.bundle):
        raise CliError("check orthogonality needs exactly one of --subspace "
                       "or --bundle")
    try:  # also F(R^k) above functors.MAX_DIM
        if args.subspace:
            w = jsonio.subspace_file_from_json(jsonio.read_json(args.subspace))
            ok, residual = check_orthogonality(functor, w, args.tol_check)
            add("orthogonality", "PASS" if ok else "FAIL", residual=residual)
            return
        bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
        residuals = np.concatenate([orthogonality_residuals(functor, stack)
                                    for stack in bundle.stacks.values()])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for (name, i), residual in zip(bundle.point_keys(), residuals.tolist()):
        add(f"orthogonality[{name}:{i}]",
            "PASS" if residual <= args.tol_check else "FAIL",
            residual=residual)


def _apply_functor(args, add):
    functor = _parse_functor_arg(args.functor)
    bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
    try:
        image = apply_functor_to_bundle(functor, bundle)
    except InvalidBundleError as exc:
        add("validate-input", "FAIL", problems=list(exc.validation.problems))
        return {}
    except ValueError as exc:  # F(R^k) above functors.MAX_DIM
        raise CliError(str(exc)) from None
    add("validate-input", "PASS", problems=[])
    # Every image stack passed its audit, with the rank and ambient
    # dimension that dim_map gives for its stratum.
    add("validate-output", "PASS",
        ranks=dict(sorted(image.stratum_rank.items())),
        fiber_ambient=image.fiber_ambient)
    return {"bundle": image}


def _monoid_analyze(args, add):
    action = jsonio.action_from_json(jsonio.read_json(args.action))
    try:
        audit = audit_axioms(action, args.tol_check)
        regularity = regularity_check(action, tol=args.tol_check,
                                      step=args.step)
    except ValueError as exc:  # non-finite evaluator value
        raise CliError(f"action: {exc}") from None
    add("axioms", "PASS" if audit.passed else "FAIL",
        identity_violations=[list(v) for v in audit.identity_violations],
        composition_violations=[list(v) for v in
                                audit.composition_violations])
    add("regularity", "PASS" if regularity.overall == "REGULAR" else "FAIL",
        classification=regularity.overall,
        violating_points=[{"index": i,
                           "point": action.sample_points[i].tolist()}
                          for i in regularity.violating_indices])


def _equivariant(args, add):
    """``equivariant tilde`` and ``equivariant quotient``."""
    group = jsonio.group_from_json(jsonio.read_json(args.group))
    bundle = jsonio.bundle_from_json(jsonio.read_json(args.bundle))
    name = args.verb.split()[1]
    tilde = name == "tilde"
    try:
        result = (invariant_subbundle if tilde else quotient_bundle)(
            group, bundle, tol=args.tol_check, r_cc=args.r_cc)
        add("invariant-subbundle" if tilde else "quotient-bundle", "PASS",
            ranks=dict(sorted(result.stratum_rank.items())))
        if not tilde:
            comparison = tangent_comparison(result)
            add("tangent-comparison", "PASS",
                isomorphic=comparison.isomorphic,
                statement=("isomorphic to the stratified tangent"
                           if comparison.isomorphic else
                           "NOT isomorphic to the stratified tangent"),
                per_stratum=[{"stratum": n, "rank": r, "tangent_rank": d}
                             for n, r, d in comparison.per_stratum])
    except StrataNotInvariantError as exc:  # the input's own declaration
        raise CliError(str(exc)) from None
    except ValueError as exc:
        add(name, "FAIL", error=str(exc))
        return {}
    return {"bundle": result}


def _foliation_stratify(args, add):
    vfs = jsonio.fields_from_json(jsonio.read_json(args.fields))
    try:
        strat = stratify_by_rank(vfs, r_cc=args.r_cc, tol_rank=args.tol_rank)
    except ValueError as exc:  # non-finite field value
        raise CliError(f"fields: {exc}") from None
    report = check_frontier(strat, args.eps_touch, args.delta_cover)
    args.eps_touch, args.delta_cover = report.eps_touch, report.delta_cover
    add("stratify", "PASS",
        strata=[{"name": s.name, "dim": s.dim, "points": len(s)}
                for s in strat.strata])
    add("frontier-audit", "PASS" if report.passed else "FAIL",
        violations=[{"S": a, "R": b, "reason": reason} for a, b, reason, *_
                    in zip(*report.violation_columns())])
    return {"stratification": strat}


def _foliation_bundle(args, add):
    vfs = jsonio.fields_from_json(jsonio.read_json(args.fields))
    try:
        bundle = foliation_bundle(vfs, r_cc=args.r_cc, tol_rank=args.tol_rank)
    except ValueError as exc:  # non-finite field value
        raise CliError(f"fields: {exc}") from None
    validation = validate_bundle(bundle)
    add("validate-bundle", "PASS" if validation.passed else "FAIL",
        ranks=dict(sorted(bundle.stratum_rank.items())),
        problems=list(validation.problems))
    if args.scenario:
        scenario = jsonio.scenario_from_json(jsonio.read_json(args.scenario))
        try:
            verdict = whitney_a_from_sections(
                bundle, fields_as_sections(vfs, bundle), scenario,
                tol=args.tol_check, tail_len=args.tail_len)
        except (KeyError, ValueError) as exc:
            raise CliError(f"scenario: {exc}") from None
        add("whitney-a-sections", verdict.status, residual=verdict.residual,
            section_residuals=list(verdict.section_residuals))
    return {"bundle": bundle}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The svb parser, built once per process (``parse_args`` returns a
    fresh namespace with every default re-applied).  Each verb sets
    ``run``, ``verb``, ``producing`` and ``tolerances``: producing verbs
    write their artifact to ``--out`` and their report to stdout, and
    ``tolerances`` names the flags of ``TOLERANCES`` the verb takes."""
    parser = _Parser(
        prog="svb",
        description="checks and constructions on sampled stratified "
                    "vector bundles")
    parser.add_argument("--version", action="version",
                        version=f"svb {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def verb(group, name, run, tolerances, producing=False, **kwargs):
        sub = group.add_parser(name.split()[-1], **kwargs)
        sub.set_defaults(run=run, verb=name, producing=producing,
                         tolerances=tolerances)
        flags = sub.add_argument_group("tolerances")
        for tol in tolerances:
            kind, default = TOLERANCES[tol]
            flags.add_argument("--" + tol.replace("_", "-"), type=kind,
                               default=default)
        _output_flags(sub)
        return sub

    def group(name, **kwargs):
        return commands.add_parser(name, **kwargs).add_subparsers(
            dest="subcommand", required=True)

    check = group("check", help="run a verification")
    frontier = ("eps_touch", "delta_cover")
    verb(check, "check frontier", _check_frontier, frontier).add_argument(
        "--stratification", required=True)

    whitney = verb(check, "check whitney-a", _check_whitney_a,
                   ("tol_check", "tail_len"))
    whitney.add_argument("--bundle", required=True)
    whitney.add_argument("--scenario")
    whitney.add_argument("--auto-sequence", metavar="radial:S[i],count",
                         help="generate the scenario by radial "
                              "nearest-neighbour selection toward S[i]")
    whitney.add_argument("--source-stratum",
                         help="stratum the auto-generated sequence runs in")

    ortho = verb(check, "check orthogonality", _check_orthogonality,
                 ("tol_check",))
    ortho.add_argument("--functor", required=True)
    ortho.add_argument("--subspace")
    ortho.add_argument("--bundle")

    apply_f = verb(commands, "apply-functor", _apply_functor, (), True,
                   help="apply a functor fibrewise")
    apply_f.add_argument("--functor", required=True)
    apply_f.add_argument("--bundle", required=True)

    verb(group("monoid"), "monoid analyze", _monoid_analyze,
         ("tol_check", "step")).add_argument("--action", required=True)

    equiv = group("equivariant")
    for name in ("tilde", "quotient"):
        sub = verb(equiv, f"equivariant {name}", _equivariant,
                   ("tol_check", "r_cc"), True)
        sub.add_argument("--group", required=True)
        sub.add_argument("--bundle", required=True)

    fol = group("foliation")
    verb(fol, "foliation stratify", _foliation_stratify,
         ("r_cc", "tol_rank") + frontier, True).add_argument(
        "--fields", required=True)
    fbundle = verb(fol, "foliation bundle", _foliation_bundle,
                   ("r_cc", "tol_rank", "tol_check", "tail_len"), True)
    fbundle.add_argument("--fields", required=True)
    fbundle.add_argument("--scenario",
                         help="optionally check Whitney A via the "
                              "generating fields as sections")
    return parser


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
    checks: list[dict] = []

    def add(name, verdict, **data):
        checks.append({"name": name, "verdict": verdict, **data})

    try:
        _check_tolerances(args)
        produced = args.run(args, add)
    except (CliError, jsonio.SchemaError) as exc:
        print(f"svb: error: {exc}", file=sys.stderr)
        return 1

    overall, code = _overall(checks)
    report = {
        "schema": jsonio.SCHEMA,
        "tool": {"name": "svb", "version": __version__},
        "command": args.verb,
        "config": {name: getattr(args, name) for name in args.tolerances},
        "checks": checks,
        "overall": overall,
    }
    # A producing verb writes its artifact unless a check failed; its
    # report always goes to stdout.  Checking verbs report to --out.
    if args.producing and args.out and overall != "FAIL":
        report["artifacts"] = dict.fromkeys(produced, args.out)
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()

    rendered = _render_text(report) if args.format == "text" else \
        jsonio.dumps(report) + "\n"
    try:
        if "artifacts" in report:
            for kind, obj in produced.items():  # jsonio.bundle_to_json, ...
                to_json = getattr(jsonio, f"{kind}_to_json")
                jsonio.write_json(to_json(obj), args.out)
        elif args.out and not args.producing:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
            return code
    except OSError as exc:
        print(f"svb: error: {args.out}: cannot write: {exc.strerror}",
              file=sys.stderr)
        return 1
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
