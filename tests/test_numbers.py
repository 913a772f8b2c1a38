"""One rule for the arrays of numbers svb is handed, entry by entry.

Every public entry that takes an array of real numbers (sample points,
bases, maps, group elements, section values) reads it by
``grassmann._numbers``, as the file readers do.  A str, a bool (among
floats too), a numpy bool array, None, a complex or ragged rows are
refused with ``expected a numeric list of equal-length rows``, and an
integer beyond the float range with ``number beyond the float range``,
each as a ValueError.  ``TestEveryEntryIsListed`` walks the public API,
so that a new parameter that takes an array has to join the table.
"""

import importlib
import inspect
import re
from fractions import Fraction

import numpy as np
import pytest

from svb.bundle import whitney_a_from_sections
from svb.equivariant import (FiniteGroupAction, orbit_type_partition,
                             stabilizer)
from svb.fixtures import (cone_bundle, cone_scenario, constant_field_plane,
                          rotation_group)
from svb.foliation import VectorFieldSet, distribution_at
from svb.functors import apply_to_map, orthogonality_residuals, parse_functor
from svb.grassmann import (Subspace, _numbers, apply_linear_map, as_basis,
                           opnorms, span)
from svb.monoid import MonoidActionSample, vertical_derivative
from svb.strata import (Stratum, estimate_cloud_dim, near_pairs,
                        partition_by_label, single_linkage_components)

from helpers import public_parameters

NOT_NUMERIC = "expected a numeric list of equal-length rows"
BEYOND = "number beyond the float range"
SCALAR = MonoidActionSample.builtin("scalar", 2, [[1.0, 0.0]])
SCALAR_TABLE = [[{"powers": [1, int(j == 0), int(j == 1)], "coef": 1.0}]
                for j in range(2)]
SYM2 = parse_functor("sym:2")
ZEROS = np.zeros((2, 2))


def _sections(v):
    b = cone_bundle("pass", depth=10)
    return whitney_a_from_sections(b, [{name: v for name in b.stacks}],
                                   cone_scenario(10))


# (entry:parameter, the number of axes it reads, call on the array).
ENTRIES = [
    ("strata.Stratum:points", 2, lambda v: Stratum("a", 0, v)),
    ("strata.single_linkage_components:points", 2,
     lambda v: single_linkage_components(v, 0.5)),
    ("strata.partition_by_label:points", 2,
     lambda v: partition_by_label(v, [0, 0], [("s", 0)],
                                  dim=lambda label, cloud: 0,
                                  below=lambda low, high: False, r_cc=0.5)),
    ("strata.estimate_cloud_dim:points", 2, estimate_cloud_dim),
    ("strata.near_pairs:a", 2, lambda v: list(near_pairs(v, ZEROS, 0.5))),
    ("strata.near_pairs:b", 2, lambda v: list(near_pairs(ZEROS, v, 0.5))),
    ("grassmann.span:vectors", 2, lambda v: span(v, 2)),
    ("grassmann.apply_linear_map:m", 2,
     lambda v: apply_linear_map(v, Subspace(2, np.eye(2)))),
    ("grassmann.Subspace:basis", 2, lambda v: Subspace(2, v)),
    ("grassmann.as_basis:basis", 2, lambda v: as_basis(2, v)),
    ("grassmann.opnorms:mats", 2, opnorms),
    ("functors.apply_to_map:m", 2, lambda v: apply_to_map(SYM2, v)),
    ("functors.orthogonality_residuals:bases", 3,
     lambda v: orthogonality_residuals(SYM2, v)),
    ("equivariant.FiniteGroupAction:elements", 2,
     lambda v: FiniteGroupAction(2, [np.eye(2), v])),
    ("equivariant.FiniteGroupAction:fiber_elements", 2,
     lambda v: FiniteGroupAction(2, [np.eye(2)], fiber_elements=[v])),
    ("equivariant.stabilizer:x", 1, lambda v: stabilizer(rotation_group(4), v)),
    ("equivariant.orbit_type_partition:points", 2,
     lambda v: orbit_type_partition(rotation_group(4), v, r_cc=0.5)),
    ("foliation.VectorFieldSet:sample_points", 2,
     lambda v: VectorFieldSet(2, constant_field_plane().fields, v)),
    ("foliation.distribution_at:x", 1,
     lambda v: distribution_at(constant_field_plane(), v)),
    ("foliation.PolynomialVectorField.evaluate:x", 2,
     lambda v: constant_field_plane().fields[0].evaluate(v)),
    ("foliation.VectorFieldSet.evaluate:points", 2,
     lambda v: constant_field_plane().evaluate(v)),
    ("monoid.MonoidActionSample:sample_points", 2,
     lambda v: MonoidActionSample(2, {"kind": "builtin", "name": "scalar"},
                                  v, (0.0, 1.0))),
    ("monoid.MonoidActionSample.builtin:sample_points", 2,
     lambda v: MonoidActionSample.builtin("scalar", 2, v)),
    ("monoid.MonoidActionSample.polynomial:sample_points", 2,
     lambda v: MonoidActionSample.polynomial(SCALAR_TABLE, 2, v)),
    ("monoid.MonoidActionSample.evaluate:e", 2,
     lambda v: SCALAR.evaluate(0.5, v)),
    ("monoid.vertical_derivative:e", 2, lambda v: vertical_derivative(SCALAR, v)),
    ("bundle.whitney_a_from_sections:sections", 2, _sections),
]


def _bad(kind, ndim):
    """An array of ``ndim`` axes of width 2 whose last entry is of
    ``kind``, the others 0.0; ragged rows drop that entry instead."""
    if kind == "numpy-bool":
        return np.zeros((2,) * ndim, dtype=bool)
    value = np.zeros((2,) * ndim).tolist()
    last = value
    for _ in range(ndim - 1):
        last = last[-1]
    if kind == "ragged":
        del last[-1]
        return value if ndim > 1 else [[0.0, 0.0], value]
    last[-1] = {"str": "0.5", "bool": True, "None": None, "complex": 1j,
                "10**400": 10 ** 400}[kind]
    return value


KINDS = ["str", "bool", "numpy-bool", "None", "complex", "ragged", "10**400"]
CASES = [(entry, kind, call, _bad(kind, ndim))
         for entry, ndim, call in ENTRIES for kind in KINDS]


@pytest.mark.parametrize("entry, kind, call, value", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_refused_by_the_rule(entry, kind, call, value):
    message = BEYOND if kind == "10**400" else NOT_NUMERIC
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [
    [[0.0, 1.0], [1, 0]], [[np.float32(1.0), np.int64(0)]],
    [np.array([1.0, 0.0])], [[2 ** 64 - 1, -2 ** 63 - 1]],
    [[Fraction(1, 2), 1.0]], np.eye(2, dtype=np.int8), 1.0, []],
    ids=["ints-and-floats", "numpy-scalars", "numpy-rows", "beyond-int64",
         "fraction", "int8-array", "scalar", "empty"])
def test_real_numbers_are_read_as_floats(value):
    arr = _numbers(value)
    assert arr.dtype == float
    assert np.array_equal(arr, np.asarray(value, dtype=float))


@pytest.mark.parametrize("value", [
    [[1, True]], [[np.True_, 0.5]], [np.array([True]), [0.5]],
    [[1.0], [False]], True, np.True_],
    ids=["among-ints", "numpy-bool-among-floats", "bool-row-among-floats",
         "false-among-floats", "bool", "numpy-bool"])
def test_a_bool_is_refused_wherever_it_hides(value):
    with pytest.raises(ValueError, match=f"^{NOT_NUMERIC}$"):
        _numbers(value)


def test_kind_names_the_shape():
    with pytest.raises(ValueError, match="^expected a numeric list of "
                       "numbers$"):
        _numbers([False, True, 0.5], "list of numbers")


# Names of an array of numbers, or of a point or a set of points.
ARRAYS = re.compile(r"\w*points|pts|x|e|basis|bases|vectors|m|mats"
                    r"|\w*elements|sections|stacks|a|b")
# A parameter annotated with one of these classes takes that object.
OBJECTS = {"Subspace", "SampledStratifiedBundle", "MonoidActionSample"}

# Parameters that take arrays but keep their own contract, each with the
# reason.
EXCLUDED = {
    # The term-table kernel under the evaluators, which read its rows by
    # the rule.
    "terms.evaluate_terms:pts",
    # An audited read-only basis, such as one fiber of a stack, held as
    # it is.
    "grassmann.Subspace.view:basis",
    # Float stacks that a bundle or a reader has already built.
    "grassmann.orthonormal_rows:bases",
    "bundle.SampledStratifiedBundle.from_stacks:stacks",
    "bundle.failing_fibers:stacks",
}


def _annotation(parameter):
    qualname, name = parameter.split(":")
    module, *attrs = qualname.split(".")
    obj = importlib.import_module(f"svb.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return inspect.signature(obj).parameters[name].annotation


def _public_array_parameters():
    return [p for p in public_parameters()
            if ARRAYS.fullmatch(p.split(":")[1])
            and _annotation(p) not in OBJECTS]


class TestEveryEntryIsListed:
    def test_walk(self):
        listed = {row[0] for row in ENTRIES} | EXCLUDED
        assert [p for p in _public_array_parameters()
                if p not in listed] == []

    def test_no_stale_entry(self):
        walked = set(_public_array_parameters())
        assert ({row[0] for row in ENTRIES} | EXCLUDED) - walked == set()
