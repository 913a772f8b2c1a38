"""One reader for term tables, in memory and in files.

``terms.read_terms`` reads a field's ``{"powers", "vector"}`` objects
and an action's ``{"powers", "coef"}`` objects, listed per output
coordinate, by one rule.  A bad term is refused in memory with a
ValueError that names it by its place, and from a file with a
SchemaError whose text is the document path followed by that same text.
``TestLayering`` keeps the format in the one module.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import svb
from svb import strata, terms
from svb.foliation import PolynomialVectorField, VectorFieldSet
from svb.jsonio import (SCHEMA, SchemaError, action_from_json,
                        action_to_json, dumps, fields_from_json,
                        fields_to_json, read_json)
from svb.monoid import MonoidActionSample

FIXTURES = Path(__file__).parent.parent / "fixtures"

# A field term on R^2 and an action term on R^1, over the variables
# (x, y) and (t, e).
FIELD_TERM = {"powers": [1, 0], "vector": [1.0, 0.0]}
ACTION_TERM = {"powers": [1, 1], "coef": 1.0}


def field(**edit):
    """The field's table with its one term edited; a key set to None is
    dropped."""
    term = {**FIELD_TERM, **edit}
    return [{k: v for k, v in term.items() if v is not None}]


def action(**edit):
    term = {**ACTION_TERM, **edit}
    return [[{k: v for k, v in term.items() if v is not None}]]


NON_FINITE = "non-finite value (NaN or infinity)"
BEYOND = "number beyond the float range"
NOT_NUMERIC = "expected a numeric list of numbers"

# (id, route, coeffs, the text in memory).
CASES = [
    ("field-powers-missing", "field", field(powers=None),
     "coeffs[0].powers: missing"),
    ("action-powers-missing", "action", action(powers=None),
     "coeffs[0][0].powers: missing"),
    ("field-vector-missing", "field", field(vector=None),
     "coeffs[0].vector: missing"),
    ("action-coef-missing", "action", action(coef=None),
     "coeffs[0][0].coef: missing"),
    ("field-powers-not-list", "field", field(powers=1),
     "coeffs[0].powers: expected list, got int"),
    ("action-powers-not-list", "action", action(powers=1),
     "coeffs[0][0].powers: expected list, got int"),
] + [
    (f"{route}-exponent-{name}", route, make(powers=[1, value]),
     f"{place}.powers[1]{text}")
    for route, make, place in [("field", field, "coeffs[0]"),
                               ("action", action, "coeffs[0][0]")]
    for name, value, text in [
        ("bool", True, ": expected int, got bool"),
        ("float", 1.0, ": expected int, got float"),
        ("str", "1", ": expected int, got str"),
        ("negative", -1, " must be at least 0, got -1")]
] + [
    ("field-exponent-count", "field", field(powers=[1, 0, 0]),
     "coeffs[0].powers: expected 2 exponents, got 3"),
    ("action-exponent-count", "action", action(powers=[1]),
     "coeffs[0][0].powers: expected 2 exponents, got 1"),
] + [
    (f"field-vector-{name}", "field", field(vector=[value, 0.0]),
     f"coeffs[0].vector: {text}")
    for name, value, text in [
        ("nan", math.nan, NON_FINITE), ("inf", math.inf, NON_FINITE),
        ("-inf", -math.inf, NON_FINITE), ("10**400", 10 ** 400, BEYOND),
        ("str", "1", NOT_NUMERIC), ("bool", True, NOT_NUMERIC)]
] + [
    (f"action-coef-{name}", "action", action(coef=value),
     f"coeffs[0][0].coef: {text}")
    for name, value, text in [
        ("nan", math.nan, NON_FINITE), ("inf", math.inf, NON_FINITE),
        ("-inf", -math.inf, NON_FINITE), ("10**400", 10 ** 400, BEYOND),
        ("str", "2", "expected int/float, got str"),
        ("bool", True, "expected int/float, got bool")]
] + [
    ("field-vector-length", "field", field(vector=[1.0]),
     "coeffs[0].vector: expected 2 entries, got 1"),
    ("field-vector-not-list", "field", field(vector=1.0),
     f"coeffs[0].vector: {NOT_NUMERIC}"),
    ("field-term-not-object", "field", [5], "coeffs[0]: expected an object"),
    ("action-term-not-object", "action", [[5]],
     "coeffs[0][0]: expected an object"),
    ("action-coordinate-not-list", "action", [5],
     "coeffs[0]: expected a list"),
    ("field-coeffs-not-list", "field", 5, "coeffs: expected list, got int"),
    ("action-coeffs-not-list", "action", 5,
     "coeffs: expected list, got int"),
]


def _in_memory(route, coeffs):
    if route == "field":
        return PolynomialVectorField(2, coeffs)
    return MonoidActionSample.polynomial(coeffs, 1, [[1.0]])


def _from_file(route, coeffs):
    """The reader of ``route`` on the document that holds ``coeffs``, as
    JSON text would give it, and the document path of the table's
    owner."""
    if route == "field":
        doc = {"schema": SCHEMA, "ambient": 2, "samples": [[1.0, 0.0]],
               "fields": [{"coeffs": coeffs}]}
        read, where = fields_from_json, "$.fields[0]"
    else:
        doc = {"schema": SCHEMA, "ambient": 1, "kind": "polynomial",
               "samples": [[1.0]], "t_grid": [0.0, 1.0], "coeffs": coeffs}
        read, where = action_from_json, "$"
    return lambda: read(json.loads(json.dumps(doc))), where


class TestBadTerms:
    @pytest.mark.parametrize("route, coeffs, text",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_both_routes_refuse(self, route, coeffs, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            _in_memory(route, coeffs)
        read, where = _from_file(route, coeffs)
        with pytest.raises(SchemaError,
                           match=f"^{re.escape(f'{where}.{text}')}$"):
            read()

    def test_the_good_terms_are_read(self):
        _in_memory("field", [FIELD_TERM])
        _in_memory("action", [[ACTION_TERM]])
        for route, coeffs in [("field", [FIELD_TERM]),
                              ("action", [[ACTION_TERM]])]:
            _from_file(route, coeffs)[0]()


class TestRoundTrip:
    """A table built in memory, with numpy-integer exponents and integer
    coefficients, is held as the reader returns it: written, it reads
    back to the same table."""

    def test_action(self):
        a = MonoidActionSample.polynomial(
            [[{"powers": [np.int64(1), np.int64(1)], "coef": 2},
              {"powers": [np.int32(0), np.uint8(1)], "coef": np.int64(3)}]],
            1, [[1.0], [2.0]])
        text = dumps(action_to_json(a))
        b = action_from_json(json.loads(text))
        assert dumps(action_to_json(b)) == text
        assert b.descriptor["coeffs"] == [[{"powers": [1, 1], "coef": 2.0},
                                           {"powers": [0, 1], "coef": 3.0}]]
        np.testing.assert_array_equal(b.evaluate(2.0, b.sample_points),
                                      [[7.0], [14.0]])

    def test_fields(self):
        f = PolynomialVectorField(
            2, [{"powers": [np.int64(1), 0], "vector": [1, np.int64(2)]}])
        vfs = VectorFieldSet(2, [f], [[1.0, 0.5]])
        text = dumps(fields_to_json(vfs))
        back = fields_from_json(json.loads(text))
        assert dumps(fields_to_json(back)) == text
        np.testing.assert_array_equal(back.evaluate(vfs.sample_points),
                                      [[[1.0, 2.0]]])


def test_action_read_makes_one_sample_pass(monkeypatch):
    """``action_from_json`` leaves the sample rule to the constructor:
    one ``_first_far`` pass per read."""
    calls = []
    first_far = strata._first_far
    monkeypatch.setattr(strata, "_first_far",
                        lambda pts: calls.append(1) or first_far(pts))
    action_from_json(read_json(str(FIXTURES / "action_cone_scalar.json")))
    assert len(calls) == 1


# Names of the format that only the terms module defines.
FORMAT = {"parse_powers", "parse_terms", "read_terms", "evaluate_terms",
          "_powers"}


def _tree(module):
    return ast.parse((Path(svb.__file__).parent / f"{module}.py").read_text())


def _imported(module):
    """``{svb module: names}`` that ``module`` imports from svb."""
    found = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("svb")):
            name = (node.module or "").removeprefix("svb.")
            found.setdefault(name, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("svb."):
                    found.setdefault(alias.name.removeprefix("svb."), set())
    return found


class TestLayering:
    def test_terms_imports_only_grassmann(self):
        assert set(_imported("terms")) == {"grassmann"}

    @pytest.mark.parametrize("module", ["monoid", "jsonio"])
    def test_no_term_names_from_foliation(self, module):
        taken = _imported(module).get("foliation", set())
        assert not taken & (FORMAT | set(terms.__all__))

    def test_monoid_does_not_import_foliation(self):
        assert "foliation" not in _imported("monoid")

    def test_only_terms_defines_the_format(self):
        modules = {p.stem for p in Path(svb.__file__).parent.glob("*.py")}
        assert "terms" in modules
        for module in modules - {"terms"}:
            defined = {node.name for node in ast.walk(_tree(module))
                       if isinstance(node, ast.FunctionDef)}
            assert not defined & FORMAT, module
