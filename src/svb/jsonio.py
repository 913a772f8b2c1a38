"""JSON wire formats, schema-versioned as "svb/1".

Every file carries a top-level ``"schema": "svb/1"`` key next to its
payload.  Loaders validate shapes eagerly and raise :class:`SchemaError`
with a JSON-path-style location so the CLI can surface parse problems
with exit code 1.  Point clouds and fiber bases are parsed as one array
per file: the rows of all strata, and the basis rows of all fiber
entries.  Only a file that fails that parse is read again stratum by
stratum or entry by entry, which is the one route that raises, so that
an error names the first offending item: fiber entries are checked and
audited in file order.  A constructor's ValueError or TypeError becomes
a SchemaError at the reader's path in one place, ``_built``.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .bundle import (ConvergenceScenario, SampledStratifiedBundle,
                     failing_fibers)
from .equivariant import FiniteGroupAction
from .foliation import PolynomialVectorField, VectorFieldSet, parse_powers
from .grassmann import Subspace, as_basis
from .monoid import MonoidActionSample
from .strata import Stratification, Stratum, _samples

SCHEMA = "svb/1"

__all__ = [
    "SCHEMA",
    "SchemaError",
    "read_json",
    "write_json",
    "dumps",
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
    except OSError as exc:  # a directory, no permission, ...
        raise SchemaError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # long integer, deep nesting
        raise SchemaError(f"{path}: unreadable JSON: {exc}") from None


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _encode(obj, fh.write, "\n")
        fh.write("\n")


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    The standard library's indented encoder is pure Python, one
    generator step per number.  This walk emits containers the same way
    but hands each list of scalars, and each list of rows of numbers, to
    the compact C encoder in one call and re-indents its output by
    replacing the separators ``", "`` (and ``"], ["`` between rows).
    That is exact when no string in the list contains a separator, which
    is checked on the encoded text.  Lists of records that share one set
    of string keys are written column by column instead (``_records``).
    """
    chunks: list[str] = []
    _encode(obj, chunks.append, "\n")
    return "".join(chunks)


_encode_str = json.encoder.encode_basestring_ascii
# NaN and infinity are not JSON: writing one raises ValueError.
if json.encoder.c_make_encoder is not None:
    # The compact one-shot C encoder that json.dumps builds on each call.
    _c_encoder = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, _encode_str, None, ": ", ", ",
        False, False, False)

    def _compact(obj) -> str:
        return "".join(_c_encoder(obj, 0))
else:
    _compact = json.JSONEncoder(allow_nan=False).encode
_CONTAINERS = (list, tuple, dict)
_NUMBER_TYPES = frozenset((int, float, bool, type(None)))
_LEAF_TYPES = _NUMBER_TYPES | {str}


def _key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _compact(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(obj, write, newline: str) -> None:
    """Write ``obj`` indented two spaces per level; ``newline`` is a line
    break followed by the indentation of the current level."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            if isinstance(value, _CONTAINERS):
                write(separator + _key(key) + ": ")
                _encode(value, write, inner)
            else:
                write(separator + _key(key) + ": " + _compact(value))
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        types = set(map(type, obj))
        if types <= _LEAF_TYPES:
            text = _compact(obj)
            # Only the item separators match, unless a string holds ", ".
            if text.count(", ") == len(obj) - 1:
                body = text[1:-1].replace(", ", "," + inner)
                write(f"[{inner}{body}{newline}]")
                return
        elif types == {dict}:
            records = _records(obj, inner)
            if records is not None:
                write(f"[{inner}" + f",{inner}".join(records) + f"{newline}]")
                return
        elif types == {list}:
            text = _compact(obj)
            # Rows holding neither strings nor lists, none of them empty:
            # "], [" separates the rows and ", " their entries.
            if ('"' not in text and "[]" not in text
                    and text.count("[") == len(obj) + 1):
                entry = inner + "  "
                body = (text[2:-2]
                        .replace("], [", f"{inner}],{inner}[{entry}")
                        .replace(", ", "," + entry))
                write(f"[{inner}[{entry}{body}{inner}]{newline}]")
                return
        separator = "[" + inner
        for item in obj:
            if isinstance(item, _CONTAINERS):
                write(separator)
                _encode(item, write, inner)
            else:
                write(separator + _compact(item))
            separator = "," + inner
        write(newline + "]")
    else:
        write(_compact(obj))


def _records(obj, inner):
    """The dicts of ``obj``, rendered at indentation ``inner`` column by
    column, or None.  They must share one set of string keys, and each
    key's column must hold only numbers, only strings or only nonempty
    rows of numbers; the first record decides whether to try."""
    first = obj[0]
    if not first or not all(
            type(key) is str and (type(value) in _LEAF_TYPES or (
                type(value) is list and value
                and type(value[0]) in _NUMBER_TYPES))
            for key, value in first.items()):
        return None
    keys = first.keys()
    if not all(record.keys() == keys for record in obj):
        return None
    field = inner + "  "
    entry = field + "  "
    parts, columns = [], []
    for key in sorted(keys):
        column = [record[key] for record in obj]
        kinds = set(map(type, column))
        if kinds <= _NUMBER_TYPES:
            # Numbers hold no ", ": the compact text splits into them.
            columns.append(_compact(column)[1:-1].split(", "))
            value = "%s"
        elif kinds == {str}:
            columns.append(list(map(_encode_str, column)))
            value = "%s"
        elif kinds == {list}:
            text = _compact(column)
            # As for a matrix in _encode: rows of numbers only, nonempty.
            if ('"' in text or "[]" in text
                    or text.count("[") != len(column) + 1):
                return None
            columns.append(text[2:-2].replace(", ", "," + entry)
                           .split("]," + entry + "["))
            value = f"[{entry}%s{field}]"
        else:
            return None
        parts.append(_encode_str(key).replace("%", "%%") + ": " + value)
    template = "{" + field + ("," + field).join(parts) + inner + "}"
    return [template % values for values in zip(*columns)]


def _expect(obj, key, kinds, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    value = obj[key]
    # JSON true and false are Python bools, which are ints: never a count.
    if kinds is not None and (not isinstance(value, kinds)
                              or isinstance(value, bool)):
        names = kinds.__name__ if isinstance(kinds, type) else \
            "/".join(k.__name__ for k in kinds)
        raise SchemaError(f"{path}.{key}: expected {names}, "
                          f"got {type(value).__name__}")
    return value


def _ints(obj, key, path) -> list:
    """``obj[key]``, a list of JSON integers: not floats, not booleans."""
    values = _expect(obj, key, list, path)
    for k, value in enumerate(values):
        if type(value) is not int:
            raise SchemaError(f"{path}.{key}[{k}]: expected int, "
                              f"got {type(value).__name__}")
    return values


def _powers(term, n_vars, path) -> None:
    """The checks of ``foliation.parse_powers`` on ``term["powers"]``,
    each error naming its JSON path."""
    powers = _ints(term, "powers", path)
    try:
        parse_powers(powers, n_vars)
    except ValueError as exc:
        raise SchemaError(f"{path}.{exc}") from None


def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with the ValueError or TypeError that it
    raises reported as a SchemaError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _check_schema(obj, path):
    tag = _expect(obj, "schema", str, path)
    if tag != SCHEMA:
        raise SchemaError(f"{path}.schema: expected {SCHEMA!r}, got {tag!r}")


def _matrix(value, path, ndim=2):
    """``value`` as a finite float matrix, or a vector when ``ndim`` is 1.

    Strings and all-boolean arrays are rejected by the dtype numpy infers
    before the float cast, so float data takes no extra pass.
    """
    kind = "list of numbers" if ndim == 1 else "list of equal-length rows"
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O":  # integers beyond 64 bits, None, ...
            numeric = all(type(x) in (int, float) for x in arr.flat)
        else:
            numeric = arr.dtype.kind in "fiu"
        arr = arr.astype(float, copy=False) if numeric else None
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
    """The strata as read-only row slices of one cloud, parsed by one
    ``_matrix`` call over every stratum's rows.  Only when that cloud
    does not stand for the strata one by one (a parse error, a width
    other than ``ambient``, a stratum that may hold only booleans) are
    the strata parsed one at a time, which names the lowest offending
    ``$.strata[i]``."""
    _check_schema(obj, path)
    ambient = _expect(obj, "ambient", int, path)
    raw_strata = _expect(obj, "strata", list, path)
    names, dims, sizes, rows = [], [], [], []
    for item in raw_strata:
        # Anything unusual leaves the loop early for the per-stratum route.
        if type(item) is not dict:
            break
        name, dim = item.get("name"), item.get("dim")
        points = item.get("points")
        if not (type(name) is str and type(dim) is int and dim >= 0
                and type(points) is list and points
                and type(first := points[0]) is list and first
                and type(first[0]) is not bool):
            break
        names.append(name)
        dims.append(dim)
        sizes.append(len(points))
        rows += points
    cloud = None
    if len(sizes) == len(raw_strata) and rows:
        try:
            cloud = _matrix(rows, path)
        except SchemaError:
            pass
    if cloud is not None and cloud.shape[1] != ambient:
        cloud = None
    if cloud is None:
        strata = [_stratum(item, ambient, f"{path}.strata[{i}]")
                  for i, item in enumerate(raw_strata)]
    else:
        cloud.flags.writeable = False
        ends = np.cumsum(sizes).tolist()
        strata = [Stratum._of_rows(name, dim, cloud[end - size:end])
                  for name, dim, size, end in zip(names, dims, sizes, ends)]
    closure = []
    pairs = _expect(obj, "closure", list, path) if "closure" in obj else []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            raise SchemaError(f"{path}.closure[{i}]: expected a name pair")
        closure.append((pair[0], pair[1]))
    return _built(path, Stratification, strata, closure_order=closure)


def _stratum(item, ambient, path) -> Stratum:
    """One stratum, checked field by field in the order of the checks
    of ``Stratum``."""
    name = _expect(item, "name", str, path)
    dim = _expect(item, "dim", int, path)
    points = _matrix(_expect(item, "points", list, path), f"{path}.points")
    if points.shape[1] != ambient:
        raise SchemaError(
            f"{path}.points: rows of length {points.shape[1]}, "
            f"ambient is {ambient}")
    if not points.size:
        raise SchemaError(f"{path}.points: empty point cloud")
    if dim < 0:
        raise SchemaError(f"{path}.dim: negative dimension {dim}")
    return Stratum(name, dim, points)


# -- subspace / bundle ------------------------------------------------------

def subspace_from_json(obj, path="$") -> Subspace:
    ambient = _expect(obj, "ambient", int, path)
    basis = _expect(obj, "basis", list, path)
    arr = _matrix(basis, f"{path}.basis") if basis else []
    return _built(path, Subspace, ambient, arr)


def subspace_file_from_json(obj, path="$") -> Subspace:
    """Like subspace_from_json but for standalone files, which must carry
    the schema tag."""
    _check_schema(obj, path)
    return subspace_from_json(obj, path)


def bundle_to_json(b: SampledStratifiedBundle) -> dict:
    base = stratification_to_json(b.base)
    del base["schema"]
    fibers = [{"point_index": [name, i], "basis": basis}
              for name, stack in b.stacks.items()
              for i, basis in enumerate(stack.tolist())]
    return {
        "schema": SCHEMA,
        "base": base,
        "fiber_ambient": b.fiber_ambient,
        "fibers": fibers,
        "ranks": dict(sorted(b.stratum_rank.items())),
    }


def bundle_from_json(obj, path="$") -> SampledStratifiedBundle:
    """One basis stack per stratum, audited once, from fiber entries in
    any order.  The bases of all entries are parsed by one ``_matrix``
    call and each stack is one gather of its rows in point order
    (``_stacked_fibers``).  Only a file that this parse does not read
    whole is read again entry by entry, which names the lowest offending
    ``$.fibers[i]``."""
    _check_schema(obj, path)
    base_obj = dict(_expect(obj, "base", dict, path))
    base_obj.setdefault("schema", SCHEMA)
    base = stratification_from_json(base_obj, f"{path}.base")
    k = _expect(obj, "fiber_ambient", int, path)
    fibers = _expect(obj, "fibers", list, path)
    stacks = _stacked_fibers(base, k, fibers, path)
    if stacks is None:
        stacks = _fibers_per_entry(base, k, fibers, path)
    ranks_obj = _expect(obj, "ranks", dict, path)
    ranks = {r: _expect(ranks_obj, r, int, f"{path}.ranks") for r in ranks_obj}
    return SampledStratifiedBundle.from_stacks(base, k, stacks, ranks,
                                               tol_ortho=None)


def _stacked_fibers(base, k, fibers, path):
    """The audited stacks of ``fibers`` from one parse of all their basis
    rows, or None when the entries do not stand for exactly one fiber
    over each point, of one rank per stratum, with bases that parse whole
    into rows of length ``k`` and pass the audit (which also rejects more
    than ``k`` rows).  A basis whose first entry is a boolean may be
    all-boolean, which only its own parse rejects."""
    if k < 0:  # as_basis rejects it even for a rank-0 basis
        return None
    where = {s.name: (a, len(s))
             for s, a in zip(base.strata, base._bounds.tolist())}
    total = len(base._owner)
    if len(fibers) != total:
        return None
    slots, ranks, rows = [], [], []
    for item in fibers:
        # Anything unusual leaves for the entry-by-entry route.
        if type(item) is not dict:
            return None
        index, basis = item.get("point_index"), item.get("basis")
        if not (type(index) is list and len(index) == 2
                and type(index[0]) is str and (at := where.get(index[0]))
                and type(j := index[1]) is int and 0 <= j < at[1]
                and type(basis) is list):
            return None
        if basis and not (type(first := basis[0]) is list and first
                          and type(first[0]) is not bool):
            return None
        slots.append(at[0] + j)
        ranks.append(len(basis))
        rows += basis
    ranks = np.array(ranks)
    entry = np.full(total, -1)
    entry[slots] = np.arange(total)
    if (entry < 0).any():  # a point hit twice leaves another one unhit
        return None
    point_rank = ranks[entry]
    if (point_rank != point_rank[base._bounds[base._owner]]).any():
        return None
    try:
        cloud = _matrix(rows, path) if rows else np.empty((0, k))
    except SchemaError:
        return None
    if cloud.shape[1] != k:
        return None
    first_row = (np.cumsum(ranks) - ranks)[entry]
    stacks = {name: cloud[first_row[a:a + n, None] + np.arange(point_rank[a])]
              for name, (a, n) in where.items()}
    return None if failing_fibers(stacks) else stacks


def _fibers_per_entry(base, k, fibers, path) -> dict[str, np.ndarray]:
    """The stacks of ``fibers`` read, checked and audited (as by
    ``_stacked_fibers``) one entry at a time in file order, so the first
    entry at fault is raised; else the first point without a fiber is."""
    sizes = {s.name: len(s) for s in base.strata}
    bases, rank = {}, {}
    for i, item in enumerate(fibers):
        fpath = f"{path}.fibers[{i}]"
        idx = _expect(item, "point_index", list, fpath)
        if [type(x) for x in idx] != [str, int]:
            raise SchemaError(f"{fpath}.point_index: expected [stratum, i]")
        key = name, j = tuple(idx)
        if not 0 <= j < sizes.get(name, 0):
            raise SchemaError(f"{fpath}.point_index: no sample point {key}")
        if key in bases:
            raise SchemaError(f"{fpath}.point_index: repeated fiber over "
                              f"point {key}")
        basis = _expect(item, "basis", list, fpath)
        basis = _matrix(basis, f"{fpath}.basis") if basis else []
        basis = _built(f"{fpath}.basis", as_basis, k, basis)
        if len(basis) != rank.setdefault(name, len(basis)):
            raise SchemaError(
                f"{fpath}.basis: rank {len(basis)}, but an earlier fiber "
                f"over stratum {name!r} has rank {rank[name]}")
        if failing_fibers({name: basis[None]}):
            raise SchemaError(f"{fpath}.basis: basis is not orthonormal "
                              "within tolerance")
        bases[key] = basis
    for key in ((s.name, j) for s in base.strata for j in range(len(s))):
        if key not in bases:
            raise SchemaError(f"{path}.fibers: missing fiber over point {key}")
    return {s.name: np.stack([bases[s.name, j] for j in range(len(s))])
            for s in base.strata}


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
    seq = _ints(obj, "sequence_indices", path)
    return _built(path, ConvergenceScenario, target, source, x0, tuple(seq))


# -- group / action / fields ------------------------------------------------

def group_to_json(g: FiniteGroupAction) -> dict:
    out = {"schema": SCHEMA}
    out.update(g.to_json())
    return out


def _matrices(obj, key, path) -> list[np.ndarray]:
    return [_matrix(m, f"{path}.{key}[{i}]")
            for i, m in enumerate(_expect(obj, key, list, path))]


def group_from_json(obj, path="$") -> FiniteGroupAction:
    _check_schema(obj, path)
    n = _expect(obj, "n", int, path)
    elements = _matrices(obj, "elements", path)
    # A missing or null fiber_elements means no fiber action.
    fiber = (None if obj.get("fiber_elements") is None
             else _matrices(obj, "fiber_elements", path))
    return _built(path, FiniteGroupAction, n, elements, fiber_elements=fiber)


def action_to_json(a: MonoidActionSample) -> dict:
    out = {"schema": SCHEMA, "ambient": a.ambient_dim,
           "samples": a.sample_points.tolist(), "t_grid": list(a.t_grid)}
    out.update(a.descriptor)
    return out


def action_from_json(obj, path="$") -> MonoidActionSample:
    _check_schema(obj, path)
    ambient = _expect(obj, "ambient", int, path)
    kind = _expect(obj, "kind", str, path)
    samples = _built(path, _samples, _matrix(
        _expect(obj, "samples", list, path), f"{path}.samples"), ambient)
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
                _powers(term, ambient + 1, tpath)
                _matrix([_expect(term, "coef", (int, float), tpath)],
                        f"{tpath}.coef", ndim=1)
        descriptor["coeffs"] = coeffs
    else:
        raise SchemaError(f"{path}.kind: expected 'builtin' or 'polynomial'")
    return _built(path, MonoidActionSample, ambient, descriptor, samples,
                  t_grid)


def fields_to_json(vfs: VectorFieldSet) -> dict:
    return {"schema": SCHEMA, "ambient": vfs.ambient_dim,
            "fields": [{"coeffs": [{"powers": list(p), "vector": v.tolist()}
                                   for p, v in f.terms]} for f in vfs.fields],
            "samples": vfs.sample_points.tolist()}


def fields_from_json(obj, path="$") -> VectorFieldSet:
    _check_schema(obj, path)
    ambient = _expect(obj, "ambient", int, path)
    samples = _built(path, _samples, _matrix(
        _expect(obj, "samples", list, path), f"{path}.samples"), ambient)
    for i, item in enumerate(_expect(obj, "fields", list, path)):
        fpath = f"{path}.fields[{i}]"
        for j, term in enumerate(_expect(item, "coeffs", list, fpath)):
            tpath = f"{fpath}.coeffs[{j}]"
            _powers(term, ambient, tpath)
            vector = _matrix(_expect(term, "vector", list, tpath),
                             f"{tpath}.vector", ndim=1)
            if len(vector) != ambient:
                raise SchemaError(f"{tpath}.vector: expected {ambient} "
                                  f"entries, got {len(vector)}")
    return _built(path, lambda: VectorFieldSet(ambient, [
        PolynomialVectorField(ambient, item["coeffs"])
        for item in obj["fields"]], samples))
