"""One rule for the numbers svb is handed, entry by entry.

A real threshold (a tolerance, a radius, a spacing) goes through
``grassmann._check_positive``: NaN, ±inf, 0 and -1 raise a ValueError
that names the parameter, and the smallest positive float is accepted.
A real number that may be zero or negative (a time of a monoid action)
goes through ``grassmann._real``: NaN, ±inf, True, "1", None, 1j and
10**400 raise a ValueError that names the parameter, and 0.0 and -1.0
are accepted.  An integer (a count, dimension, depth or index) goes
through ``grassmann._integer``: True, 2.5, "1" and one below its least
value raise a ValueError that names the parameter, and a numpy integer
at the least value is accepted.  An exponent of a term table is read as
a file reads it, by ``terms.parse_powers``: True, 2.5 and "1" name their
type, and the least value is ``_integer``'s.
``TestEveryParameterIsListed`` walks the public API, methods and
classmethods included, so that a new numeric parameter has to join a
table.
"""

import math
import os
import re

import numpy as np
import pytest

from svb.bundle import (ConvergenceScenario, SampledStratifiedBundle,
                        failing_fibers, whitney_a_check,
                        whitney_a_from_sections)
from svb.cli import TOLERANCES, main
from svb.equivariant import (FiniteGroupAction, invariant_subbundle,
                             orbit_type_partition, quotient_bundle,
                             stabilizer)
from svb.fixtures import (axis_scaling_fields_plane, cantor_stratification,
                          cone_bundle, cone_scenario, cone_stratification,
                          constant_field_plane, dyadic_line_stratification,
                          line_scaling_fields, line_stratification,
                          ring_tangent_bundle, rotation_group,
                          sign_flip_group, sign_flip_tangent_bundle,
                          trivial_bundle)
from svb.foliation import (PolynomialVectorField, VectorFieldSet,
                           distribution_at, foliation_bundle,
                           stratify_by_rank)
from svb.functors import (ConstantSum, Identity, SymPower, TensorPower,
                          WedgePower, check_orthogonality, dim_map, sized_dim)
from svb.grassmann import (Subspace, apply_linear_map, as_basis,
                           containment_residual, intersection,
                           orthonormal_rows, sequence_limit, span)
from svb.monoid import (MonoidActionSample, audit_axioms,
                        reconstruct_bundle, regularity_check)
from svb.terms import parse_powers
from svb.strata import (Stratification, Stratum, check_frontier,
                        estimate_cloud_dim, graph_components,
                        local_finiteness_report, partition_by_label,
                        single_linkage_components)

from helpers import cone_sections, public_parameters

TINY = math.ulp(0.0)  # the smallest positive float
E2 = Subspace(2, np.eye(2))
LINE = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
ORIGIN = Stratification([Stratum("o", 0, [[0.0]])])


def _cone():
    return cone_bundle("pass", depth=4)


def _scalar(ambient_dim=1):
    return MonoidActionSample(ambient_dim, {"kind": "builtin",
                                            "name": "scalar"},
                              [[1.0]], (0.0, 1.0))


def _tilde():
    return invariant_subbundle(sign_flip_group(), sign_flip_tangent_bundle())


# (entry:parameter, the name its errors give, call with the value)
REALS = [
    ("grassmann.Subspace:tol_ortho", "tol_ortho",
     lambda v: Subspace(2, np.eye(2), tol_ortho=v)),
    ("grassmann.orthonormal_rows:tol_ortho", "tol_ortho",
     lambda v: orthonormal_rows(np.eye(2)[None], v)),
    ("grassmann.span:tol_rank", "tol_rank",
     lambda v: (span([], 2, tol_rank=v), span(np.eye(2), 2, tol_rank=v))),
    ("grassmann.apply_linear_map:tol_rank", "tol_rank",
     lambda v: apply_linear_map(np.eye(2), E2, tol_rank=v)),
    ("grassmann.containment_residual:tol", "tol",
     lambda v: containment_residual(E2, E2, tol=v)),
    ("grassmann.sequence_limit:tol", "tol",
     lambda v: sequence_limit([E2, E2], tol=v, tail_len=2)),
    ("grassmann.intersection:tol", "tol",
     lambda v: intersection(span([(1, 0, 0), (0, 1, 0)], 3),
                            span([(0, 1, 0), (0, 0, 1)], 3), tol=v)),
    ("strata.check_frontier:eps_touch", "eps_touch",
     lambda v: check_frontier(line_stratification(), v, 0.05)),
    ("strata.check_frontier:delta_cover", "delta_cover",
     lambda v: check_frontier(line_stratification(), 0.05, v)),
    ("strata.local_finiteness_report:radius", "radius",
     lambda v: local_finiteness_report(line_stratification(), v)),
    ("strata.estimate_cloud_dim:tol_rank", "tol_rank",
     lambda v: estimate_cloud_dim(LINE, tol_rank=v)),
    ("strata.single_linkage_components:radius", "radius",
     lambda v: single_linkage_components(LINE, v)),
    ("strata.partition_by_label:r_cc", "r_cc",
     lambda v: partition_by_label(LINE, ["a"] * 5, [("s", "a")],
                                  dim=lambda label, cloud: 1,
                                  below=lambda low, high: False, r_cc=v)),
    ("bundle.SampledStratifiedBundle.from_stacks:tol_ortho", "tol_ortho",
     lambda v: SampledStratifiedBundle.from_stacks(
         _cone().base, 2, _cone().stacks, tol_ortho=v)),
    ("bundle.failing_fibers:tol_ortho", "tol_ortho",
     lambda v: failing_fibers({"S": np.eye(2)[None]}, v)),
    ("bundle.whitney_a_check:tol", "tol",
     lambda v: whitney_a_check(_cone(), cone_scenario(4), tol=v)),
    ("bundle.whitney_a_from_sections:tol", "tol",
     lambda v: whitney_a_from_sections(_cone(), cone_sections(_cone()),
                                       cone_scenario(4), tol=v)),
    ("functors.check_orthogonality:tol", "tol",
     lambda v: check_orthogonality(SymPower(2), E2, tol=v)),
    ("foliation.distribution_at:tol_rank", "tol_rank",
     lambda v: distribution_at(constant_field_plane(), (0.0, 0.0),
                               tol_rank=v)),
    ("foliation.stratify_by_rank:r_cc", "r_cc",
     lambda v: stratify_by_rank(constant_field_plane(), r_cc=v)),
    ("foliation.stratify_by_rank:tol_rank", "tol_rank",
     lambda v: stratify_by_rank(constant_field_plane(), tol_rank=v)),
    ("foliation.foliation_bundle:r_cc", "r_cc",
     lambda v: foliation_bundle(constant_field_plane(), r_cc=v)),
    ("foliation.foliation_bundle:tol_rank", "tol_rank",
     lambda v: foliation_bundle(constant_field_plane(), tol_rank=v)),
    ("equivariant.stabilizer:tol", "tol",
     lambda v: stabilizer(sign_flip_group(), [0.5], tol=v)),
    ("equivariant.orbit_type_partition:r_cc", "r_cc",
     lambda v: orbit_type_partition(sign_flip_group(), LINE, r_cc=v)),
    ("equivariant.orbit_type_partition:tol", "tol",
     lambda v: orbit_type_partition(sign_flip_group(), LINE, tol=v)),
    ("equivariant.invariant_subbundle:tol", "tol",
     lambda v: invariant_subbundle(sign_flip_group(),
                                   sign_flip_tangent_bundle(), tol=v)),
    ("equivariant.invariant_subbundle:r_cc", "r_cc",
     lambda v: invariant_subbundle(sign_flip_group(),
                                   sign_flip_tangent_bundle(), r_cc=v)),
    ("equivariant.quotient_bundle:tol", "tol",
     lambda v: quotient_bundle(sign_flip_group(), _tilde(), tol=v)),
    ("equivariant.quotient_bundle:r_cc", "r_cc",
     lambda v: quotient_bundle(sign_flip_group(), _tilde(), r_cc=v)),
    ("monoid.audit_axioms:tol", "tol",
     lambda v: audit_axioms(_scalar(), tol=v)),
    ("monoid.regularity_check:tol", "tol",
     lambda v: regularity_check(_scalar(), tol=v)),
    ("monoid.reconstruct_bundle:tol", "tol",
     lambda v: reconstruct_bundle(_scalar(), ORIGIN, tol=v)),
    ("monoid.reconstruct_bundle:cluster_radius", "cluster_radius",
     lambda v: reconstruct_bundle(_scalar(), ORIGIN, cluster_radius=v)),
    ("fixtures.line_stratification:spacing", "spacing",
     lambda v: line_stratification(v)),
    ("fixtures.cone_stratification:spacing", "spacing",
     lambda v: cone_stratification(v)),
    ("fixtures.ring_tangent_bundle:radii", "radii[1]",
     lambda v: ring_tangent_bundle(8, [0.5, v])),
    ("fixtures.constant_field_plane:step", "step",
     lambda v: constant_field_plane(v)),
    ("fixtures.axis_scaling_fields_plane:step", "step",
     lambda v: axis_scaling_fields_plane(v)),
]

# (entry:parameter, the name its errors give, call with the value)
TIMES = [
    ("monoid.MonoidActionSample.evaluate:t", "t",
     lambda v: _scalar().evaluate(v, [[2.0]])),
    ("monoid.MonoidActionSample:t_grid", "t_grid",
     lambda v: MonoidActionSample(1, {"kind": "builtin", "name": "scalar"},
                                  [[1.0]], (0.0, 1.0, v))),
    ("monoid.MonoidActionSample.builtin:t_grid", "t_grid",
     lambda v: MonoidActionSample.builtin("scalar", 1, [[1.0]],
                                          t_grid=(0.0, 1.0, v))),
    ("monoid.MonoidActionSample.polynomial:t_grid", "t_grid",
     lambda v: MonoidActionSample.polynomial(
         [[{"powers": [1, 1], "coef": 1.0}]], 1, [[1.0]],
         t_grid=(0.0, 1.0, v))),
]

# (entry:parameter, the name its errors give, call with the value, the
# least value or None)
INTEGERS = [
    ("grassmann.Subspace:ambient_dim", "ambient_dim",
     lambda v: Subspace(v, []), 0),
    ("grassmann.Subspace.zero:ambient_dim", "ambient_dim",
     lambda v: Subspace.zero(v), 0),
    ("grassmann.as_basis:ambient_dim", "ambient_dim",
     lambda v: as_basis(v, []), 0),
    ("grassmann.span:ambient_dim", "ambient_dim",
     lambda v: span(np.zeros((1, 0)), v), 0),
    ("grassmann.sequence_limit:tail_len", "tail_len",
     lambda v: sequence_limit([E2], tail_len=v), 1),
    ("strata.Stratum:dim", "stratum 'a' dim",
     lambda v: Stratum("a", v, [[0.0]]), 0),
    ("strata.local_finiteness_report:threshold", "threshold",
     lambda v: local_finiteness_report(line_stratification(), 0.1,
                                       threshold=v), 0),
    ("strata.graph_components:n", "n",
     lambda v: graph_components(v, []), 0),
    ("bundle.SampledStratifiedBundle:fiber_ambient", "fiber_ambient",
     lambda v: SampledStratifiedBundle(
         _cone().base, v, {key: _cone().fiber(key)
                           for key in _cone().point_keys()},
         _cone().stratum_rank), None),
    ("bundle.SampledStratifiedBundle.from_stacks:fiber_ambient",
     "fiber_ambient",
     lambda v: SampledStratifiedBundle.from_stacks(
         _cone().base, v, _cone().stacks), None),
    ("bundle.ConvergenceScenario:x0_index", "x0_index",
     lambda v: ConvergenceScenario("S0", "S+", v, (0, 1)), None),
    ("bundle.ConvergenceScenario:sequence_indices", "sequence_indices[1]",
     lambda v: ConvergenceScenario("S0", "S+", 0, (0, v)), None),
    ("bundle.whitney_a_check:tail_len", "tail_len",
     lambda v: whitney_a_check(_cone(), cone_scenario(4), tail_len=v), 1),
    ("bundle.whitney_a_from_sections:tail_len", "tail_len",
     lambda v: whitney_a_from_sections(_cone(), cone_sections(_cone()),
                                       cone_scenario(4), tail_len=v), 1),
    ("bundle.trivial_bundle:fiber_dim", "fiber_dim",
     lambda v: trivial_bundle(line_stratification(), v), 0),
    ("functors.ConstantSum:dim", "constant summand dimension",
     lambda v: ConstantSum(v), 0),
    ("functors.TensorPower:n", "tensor power degree",
     lambda v: TensorPower(v), 1),
    ("functors.WedgePower:n", "wedge power degree",
     lambda v: WedgePower(v), 1),
    ("functors.SymPower:n", "symmetric power degree",
     lambda v: SymPower(v), 1),
    ("functors.dim_map:k", "k", lambda v: dim_map(Identity(), v), 0),
    ("functors.sized_dim:k", "k", lambda v: sized_dim(Identity(), v), 0),
    ("foliation.PolynomialVectorField:ambient_dim", "ambient_dim",
     lambda v: PolynomialVectorField(v, []), 1),
    ("foliation.VectorFieldSet:ambient_dim", "ambient_dim",
     lambda v: VectorFieldSet(v, [PolynomialVectorField(1, [])], [[0.0]]),
     1),
    ("equivariant.FiniteGroupAction:n", "n",
     lambda v: FiniteGroupAction(v, [np.eye(1)]), 1),
    ("monoid.MonoidActionSample:ambient_dim", "ambient_dim",
     lambda v: _scalar(v), 1),
    ("monoid.MonoidActionSample.builtin:ambient_dim", "ambient_dim",
     lambda v: MonoidActionSample.builtin("scalar", v, [[1.0]]), 1),
    ("monoid.MonoidActionSample.polynomial:ambient_dim", "ambient_dim",
     lambda v: MonoidActionSample.polynomial(
         [[{"powers": [1, 1], "coef": 1.0}]], v, [[1.0]]), 1),
    ("fixtures.cantor_stratification:level", "level",
     lambda v: cantor_stratification(v), 1),
    ("fixtures.dyadic_line_stratification:depth", "depth",
     lambda v: dyadic_line_stratification(v), 0),
    ("fixtures.cone_bundle:depth", "depth",
     lambda v: cone_bundle("pass", v), 0),
    ("fixtures.cone_scenario:depth", "depth", lambda v: cone_scenario(v), 0),
    ("fixtures.rotation_group:n", "n", lambda v: rotation_group(v), 1),
    ("fixtures.ring_tangent_bundle:n", "n",
     lambda v: ring_tangent_bundle(v), 1),
    ("fixtures.line_scaling_fields:power", "power",
     lambda v: line_scaling_fields(v), 0),
    ("fixtures.line_scaling_fields:n_samples", "n_samples",
     lambda v: line_scaling_fields(n_samples=v), 1),
]


def _ids(table):
    return [row[0] for row in table]


def _accepted(call, value, name):
    """``call(value)`` does not refuse ``value`` by the rule: what the
    entry goes on to compute with an extreme value is not checked."""
    try:
        call(value)
    except ValueError as exc:
        assert not str(exc).startswith(f"{name} must be"), exc


class TestRealThresholds:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0, True, "1"],
                             ids=["nan", "inf", "-inf", "zero", "negative",
                                  "bool", "str"])
    @pytest.mark.parametrize("entry, name, call", REALS, ids=_ids(REALS))
    def test_refused(self, entry, name, call, value):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "
                           f"a positive finite number, got {value!r}$"):
            call(value)

    @pytest.mark.parametrize("entry, name, call", REALS, ids=_ids(REALS))
    def test_smallest_positive_float_accepted(self, entry, name, call):
        _accepted(call, TINY, name)


class TestTimes:
    @pytest.mark.parametrize("value, text", [
        (math.nan, "non-finite value (NaN or infinity)"),
        (math.inf, "non-finite value (NaN or infinity)"),
        (-math.inf, "non-finite value (NaN or infinity)"),
        (True, "expected int/float, got bool"),
        ("1", "expected int/float, got str"),
        (None, "expected int/float, got NoneType"),
        (1j, "expected int/float, got complex"),
        (10 ** 400, "number beyond the float range")],
        ids=["nan", "inf", "-inf", "bool", "str", "none", "complex", "huge"])
    @pytest.mark.parametrize("entry, name, call", TIMES, ids=_ids(TIMES))
    def test_refused(self, entry, name, call, value, text):
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: "
                           f"{re.escape(text)}$"):
            call(value)

    @pytest.mark.parametrize("value", [0.0, -1.0], ids=["zero", "negative"])
    @pytest.mark.parametrize("entry, name, call", TIMES, ids=_ids(TIMES))
    def test_accepted(self, entry, name, call, value):
        call(value)


class TestIntegers:
    @pytest.mark.parametrize("value", [True, 2.5, "1"],
                             ids=["bool", "float", "str"])
    @pytest.mark.parametrize("entry, name, call, least", INTEGERS,
                             ids=_ids(INTEGERS))
    def test_not_an_integer(self, entry, name, call, least, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("entry, name, call, least",
                             [row for row in INTEGERS if row[3] is not None],
                             ids=[row[0] for row in INTEGERS
                                  if row[3] is not None])
    def test_below_least(self, entry, name, call, least):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be at least {least}, got {least - 1}")):
            call(least - 1)

    @pytest.mark.parametrize("entry, name, call, least", INTEGERS,
                             ids=_ids(INTEGERS))
    def test_numpy_integer_at_least_accepted(self, entry, name, call, least):
        # Without a least value, 2 is valid in every call above.
        _accepted(call, np.int64(2 if least is None else least), name)


class TestExponents:
    @pytest.mark.parametrize("value, kind", [(True, "bool"), (2.5, "float"),
                                             ("1", "str")],
                             ids=["bool", "float", "str"])
    def test_not_an_integer(self, value, kind):
        with pytest.raises(ValueError, match=re.escape(
                f"powers[1]: expected int, got {kind}")):
            parse_powers([1, value], 2)

    def test_below_least(self):
        with pytest.raises(ValueError, match=re.escape(
                "powers[1] must be at least 0, got -1")):
            parse_powers([1, -1], 2)

    def test_numpy_integer_at_least_accepted(self):
        assert parse_powers([1, np.int64(0)], 2) == (1, 0)


def _cli_argv(flag):
    """A verb that takes ``flag``, on a fixture of the corpus."""
    def fx(name):
        return os.path.join(os.path.dirname(__file__), "..", "fixtures", name)

    whitney = ["check", "whitney-a", "--bundle", fx("cone_pass.json"),
               "--scenario", fx("cone_scenario.json")]
    frontier = ["check", "frontier", "--stratification", fx("line.json")]
    return {
        "tol_check": whitney, "tail_len": whitney,
        "eps_touch": frontier, "delta_cover": frontier,
        "r_cc": ["equivariant", "tilde", "--group",
                 fx("sign_flip_group.json"), "--bundle",
                 fx("sign_flip_tangent.json")],
        "tol_rank": ["foliation", "stratify", "--r-cc", "0.015", "--fields",
                     fx("fields_line.json")],
    }[flag]


class TestCliFlags:
    """The CLI reads its flags by the same two helpers, before any file."""

    REAL = sorted(name for name, (kind, _) in TOLERANCES.items()
                  if kind is float)

    @pytest.mark.parametrize("text, shown", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("0", "0.0"),
        ("-1", "-1.0")])
    @pytest.mark.parametrize("flag", REAL)
    def test_real_refused(self, capsys, flag, text, shown):
        argv = _cli_argv(flag) + [f"--{flag.replace('_', '-')}={text}"]
        assert main(argv + ["--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"svb: error: {flag} must be a positive "
                                f"finite number, got {shown}\n")

    @pytest.mark.parametrize("flag", REAL)
    def test_smallest_positive_float_accepted(self, capsys, flag):
        argv = _cli_argv(flag) + [f"--{flag.replace('_', '-')}={TINY!r}"]
        main(argv + ["--no-timestamp"])
        assert f"{flag} must be" not in capsys.readouterr().err

    def test_tail_len(self, capsys):
        argv = _cli_argv("tail_len") + ["--no-timestamp", "--tail-len"]
        assert main(argv + ["0"]) == 1
        assert capsys.readouterr().err == (
            "svb: error: tail_len must be at least 1, got 0\n")
        assert main(argv + ["1"]) != 1

    def test_every_flag_is_read_by_a_helper(self):
        assert {kind for kind, _ in TOLERANCES.values()} == {float, int}
        assert [name for name, (kind, _) in TOLERANCES.items()
                if kind is int] == ["tail_len"]


# Names of tolerances, radii, counts and dimensions.
NUMERIC = re.compile(r"tol\w*|eps\w*|delta\w*|r|r_cc|\w*radius|radii"
                     r"|threshold|\w+_len|\w*dim|k|n|n_\w+|level|depth"
                     r"|spacing|step|power|\w*ambient\w*|\w*_index"
                     r"|\w*_indices|t|t_grid")

# Parameters the rule does not cover, each with the reason.
EXCLUDED = {
    # near_pairs documents its own contract: r < 0 yields no pair and
    # r = inf every pair; a NaN radius, or one that is not a real number,
    # is refused.
    "strata.near_pairs:r",
    # 0 means "no absolute cutoff"; its one caller passes a checked value.
    "grassmann.span:tol_abs",
    # A callable that gives each stratum its dimension, not a number.
    "strata.partition_by_label:dim",
    # A stratum name, the r of "s lies in the closure of r".
    "strata.Stratification.in_closure:r",
    # The shape of a term table, passed by its owner, whose ambient_dim
    # went through _integer.
    "terms.parse_powers:n_vars", "terms.read_terms:n_vars",
    "terms.read_terms:out_dim", "terms.evaluate_terms:out_dim",
    # fixtures re-exports bundle.trivial_bundle, listed in the table.
    "fixtures.trivial_bundle:fiber_dim",
}


def _public_numeric_parameters():
    # Report dataclasses: their fields are what a check found.
    return [p for p in public_parameters(lambda name: name.endswith("Report"))
            if NUMERIC.fullmatch(p.split(":")[1])]


class TestEveryParameterIsListed:
    def test_walk(self):
        listed = {row[0] for row in REALS + TIMES + INTEGERS} | EXCLUDED
        missing = [p for p in _public_numeric_parameters()
                   if p not in listed]
        assert missing == []

    def test_no_stale_exclusion(self):
        assert EXCLUDED - set(_public_numeric_parameters()) == set()
