"""JSON wire formats, schema-versioned as "svb/1".

Every file carries a top-level ``"schema": "svb/1"`` key next to its
payload.  Loaders validate shapes eagerly and raise :class:`SchemaError`
with a JSON-path-style location so the CLI can surface parse problems
with exit code 1.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .bundle import ConvergenceScenario, SampledStratifiedBundle
from .equivariant import FiniteGroupAction
from .foliation import VectorFieldSet
from .grassmann import Subspace
from .monoid import MonoidActionSample
from .strata import Stratification, Stratum

SCHEMA = "svb/1"

__all__ = [
    "SCHEMA",
    "SchemaError",
    "read_json",
    "write_json",
    "stratification_to_json",
    "stratification_from_json",
    "bundle_to_json",
    "bundle_from_json",
    "scenario_to_json",
    "scenario_from_json",
    "subspace_from_json",
    "subspace_file_from_json",
    "group_to_json",
    "group_from_json",
    "action_to_json",
    "action_from_json",
    "fields_to_json",
    "fields_from_json",
]


class SchemaError(ValueError):
    """A JSON document does not match the svb/1 schema."""


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _expect(obj, key, kinds, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    value = obj[key]
    if kinds is not None and not isinstance(value, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else \
            "/".join(k.__name__ for k in kinds)
        raise SchemaError(f"{path}.{key}: expected {names}, "
                          f"got {type(value).__name__}")
    return value


def _check_schema(obj, path):
    tag = _expect(obj, "schema", str, path)
    if tag != SCHEMA:
        raise SchemaError(f"{path}.schema: expected {SCHEMA!r}, got {tag!r}")


def _matrix(value, path, ndim=2):
    """``value`` as a finite float matrix, or a vector when ``ndim`` is 1."""
    kind = "list of numbers" if ndim == 1 else "list of equal-length rows"
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        raise SchemaError(f"{path}: number beyond the float range") from None
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim:
        raise SchemaError(f"{path}: expected a numeric {kind}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: non-finite value (NaN or infinity)")
    return arr


# -- stratification ---------------------------------------------------------

def stratification_to_json(s: Stratification) -> dict:
    return {
        "schema": SCHEMA,
        "ambient": s.ambient_dim,
        "strata": [{"name": st.name, "dim": st.dim,
                    "points": st.points.tolist()} for st in s.strata],
        "closure": sorted([a, b] for a, b in s.closure_order),
    }


def stratification_from_json(obj, path="$") -> Stratification:
    _check_schema(obj, path)
    ambient = _expect(obj, "ambient", int, path)
    raw_strata = _expect(obj, "strata", list, path)
    strata = []
    for i, item in enumerate(raw_strata):
        spath = f"{path}.strata[{i}]"
        name = _expect(item, "name", str, spath)
        dim = _expect(item, "dim", int, spath)
        points = _matrix(_expect(item, "points", list, spath),
                         f"{spath}.points")
        if points.shape[1] != ambient:
            raise SchemaError(
                f"{spath}.points: rows of length {points.shape[1]}, "
                f"ambient is {ambient}")
        strata.append(Stratum(name, dim, points))
    closure = []
    for i, pair in enumerate(obj.get("closure", [])):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{path}.closure[{i}]: expected a name pair")
        closure.append((pair[0], pair[1]))
    try:
        return Stratification(strata, closure_order=closure)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- subspace / bundle ------------------------------------------------------

def subspace_from_json(obj, path="$") -> Subspace:
    ambient = _expect(obj, "ambient", int, path)
    basis = _expect(obj, "basis", list, path)
    arr = _matrix(basis, f"{path}.basis") if basis else np.zeros((0, ambient))
    try:
        return Subspace(ambient, arr)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def subspace_file_from_json(obj, path="$") -> Subspace:
    """Like subspace_from_json but for standalone files, which must carry
    the schema tag."""
    _check_schema(obj, path)
    return subspace_from_json(obj, path)


def bundle_to_json(b: SampledStratifiedBundle) -> dict:
    base = stratification_to_json(b.base)
    del base["schema"]
    fibers = []
    for key in b.point_keys():
        fibers.append({"point_index": [key[0], key[1]],
                       "basis": b.fiber(key).basis.tolist()})
    return {
        "schema": SCHEMA,
        "base": base,
        "fiber_ambient": b.fiber_ambient,
        "fibers": fibers,
        "ranks": dict(sorted(b.stratum_rank.items())),
    }


def bundle_from_json(obj, path="$") -> SampledStratifiedBundle:
    _check_schema(obj, path)
    base_obj = dict(_expect(obj, "base", dict, path))
    base_obj.setdefault("schema", SCHEMA)
    base = stratification_from_json(base_obj, f"{path}.base")
    fiber_ambient = _expect(obj, "fiber_ambient", int, path)
    fibers = {}
    for i, item in enumerate(_expect(obj, "fibers", list, path)):
        fpath = f"{path}.fibers[{i}]"
        idx = _expect(item, "point_index", list, fpath)
        if len(idx) != 2 or not isinstance(idx[1], int):
            raise SchemaError(f"{fpath}.point_index: expected [stratum, i]")
        basis = _expect(item, "basis", list, fpath)
        arr = _matrix(basis, f"{fpath}.basis") if basis else \
            np.zeros((0, fiber_ambient))
        try:
            fibers[(str(idx[0]), idx[1])] = Subspace(fiber_ambient, arr)
        except ValueError as exc:
            raise SchemaError(f"{fpath}.basis: {exc}") from None
    for s in base.strata:
        for i in range(len(s)):
            if (s.name, i) not in fibers:
                raise SchemaError(f"{path}.fibers: missing fiber over point "
                                  f"{(s.name, i)}")
    ranks_obj = _expect(obj, "ranks", dict, path)
    ranks = {str(k): _expect(ranks_obj, k, int, f"{path}.ranks")
             for k in ranks_obj}
    return SampledStratifiedBundle(base, fiber_ambient, fibers, ranks)


# -- scenario ---------------------------------------------------------------

def scenario_to_json(sc: ConvergenceScenario) -> dict:
    out = {"schema": SCHEMA}
    out.update(sc.to_json())
    return out


def scenario_from_json(obj, path="$") -> ConvergenceScenario:
    _check_schema(obj, path)
    target = _expect(obj, "S", str, path)
    source = _expect(obj, "R", str, path)
    x0 = _expect(obj, "x0_index", int, path)
    seq = _expect(obj, "sequence_indices", list, path)
    try:
        return ConvergenceScenario(target, source, x0, tuple(seq))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


# -- group / action / fields ------------------------------------------------

def group_to_json(g: FiniteGroupAction) -> dict:
    out = {"schema": SCHEMA}
    out.update(g.to_json())
    return out


def group_from_json(obj, path="$") -> FiniteGroupAction:
    _check_schema(obj, path)
    n = _expect(obj, "n", int, path)
    elements = _expect(obj, "elements", list, path)
    fiber = obj.get("fiber_elements")
    for key, mats in (("elements", elements), ("fiber_elements", fiber or [])):
        for i, m in enumerate(mats):
            _matrix(m, f"{path}.{key}[{i}]")
    try:
        return FiniteGroupAction(n, elements, fiber_elements=fiber)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def action_to_json(a: MonoidActionSample) -> dict:
    out = {"schema": SCHEMA, "ambient": a.ambient_dim,
           "samples": a.sample_points.tolist(), "t_grid": list(a.t_grid)}
    out.update(a.descriptor)
    return out


def action_from_json(obj, path="$") -> MonoidActionSample:
    _check_schema(obj, path)
    ambient = _expect(obj, "ambient", int, path)
    kind = _expect(obj, "kind", str, path)
    samples = _matrix(_expect(obj, "samples", list, path), f"{path}.samples")
    t_grid = _matrix(_expect(obj, "t_grid", list, path), f"{path}.t_grid",
                     ndim=1)
    descriptor = {"kind": kind}
    if kind == "builtin":
        descriptor["name"] = _expect(obj, "name", str, path)
    elif kind == "polynomial":
        coeffs = _expect(obj, "coeffs", list, path)
        for i, coord_terms in enumerate(coeffs):
            if not isinstance(coord_terms, list):
                raise SchemaError(f"{path}.coeffs[{i}]: expected a list")
            for j, term in enumerate(coord_terms):
                tpath = f"{path}.coeffs[{i}][{j}]"
                _expect(term, "powers", list, tpath)
                _matrix([_expect(term, "coef", (int, float), tpath)],
                        f"{tpath}.coef", ndim=1)
        descriptor["coeffs"] = coeffs
    else:
        raise SchemaError(f"{path}.kind: expected 'builtin' or 'polynomial'")
    try:
        return MonoidActionSample(ambient, descriptor, samples, t_grid)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def fields_to_json(vfs: VectorFieldSet) -> dict:
    out = {"schema": SCHEMA}
    out.update(vfs.to_json())
    return out


def fields_from_json(obj, path="$") -> VectorFieldSet:
    _check_schema(obj, path)
    _expect(obj, "ambient", int, path)
    _matrix(_expect(obj, "samples", list, path), f"{path}.samples")
    for i, item in enumerate(_expect(obj, "fields", list, path)):
        fpath = f"{path}.fields[{i}]"
        for j, term in enumerate(_expect(item, "coeffs", list, fpath)):
            tpath = f"{fpath}.coeffs[{j}]"
            _expect(term, "powers", list, tpath)
            _matrix(_expect(term, "vector", list, tpath), f"{tpath}.vector",
                    ndim=1)
    try:
        return VectorFieldSet.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
