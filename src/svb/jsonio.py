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

import contextlib
import functools
import json
import os
from itertools import accumulate, chain, compress
from operator import is_not
from typing import Any

import numpy as np

from .bundle import (ConvergenceScenario, SampledStratifiedBundle,
                     _run_starts, failing_fibers)
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
    """Write ``dumps(obj)`` and a line break to ``path`` by
    ``_written_in_place``: an existing file is overwritten in place and
    cut at the end of the new text, a symlink is written through, and a
    special file (``/dev/null``, a FIFO, a tty) is never cut.  When
    encoding raises (NaN, a key that is not a string), the file holds
    the text written up to that point and no old tail.  A process killed
    mid-write leaves the new text's prefix followed by the old file's
    tail, where truncating at open would have left the prefix alone.
    No ``fsync`` is called."""
    with _written_in_place(path) as write:
        _encode(obj, write, "\n")
        write("\n")


_BUFFER = 1 << 16  # held bytes that start a write of whole blocks


@contextlib.contextmanager
def _written_in_place(path: str):
    """Yield a function that writes text to ``path`` as UTF-8, over
    the existing file in place, not truncated at open.  The text is
    encoded ``_BUFFER`` characters at a time and held until it passes
    ``_BUFFER`` bytes; then the largest whole number of the file's
    blocks (``st_blksize``) is written, so that no write starts inside
    a block that must first be read.  On leaving, on an exception too,
    the rest is written, and the file is cut to the bytes written if it
    was longer at open.  Only the size read at open cuts, so a special
    file, whose size reads 0, is never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        stat = os.fstat(fd)
        block = max(stat.st_blksize, 1)
        held = bytearray()

        def write(text: str) -> None:
            if len(text) > _BUFFER:  # so that it is never held twice
                for start in range(0, len(text), _BUFFER):
                    write(text[start:start + _BUFFER])
                return
            held.extend(text.encode())
            if len(held) >= _BUFFER:
                whole = len(held) - len(held) % block
                _write_all(fd, held, whole)
                del held[:whole]

        try:
            yield write
        finally:
            _write_all(fd, held, len(held))
            if stat.st_size and \
                    (end := os.lseek(fd, 0, os.SEEK_CUR)) < stat.st_size:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


def _write_all(fd: int, data: bytearray, size: int) -> None:
    """Write the first ``size`` bytes of ``data``, looping on short
    writes."""
    with memoryview(data) as view:
        done = 0
        while done < size:
            done += os.write(fd, view[done:size])


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    The standard library's indented encoder is pure Python, one
    generator step per number.  This walk emits containers the same way
    but hands each list of scalars, and the rows of each list of
    nonempty rows of scalars, to a compact C encoder whose item
    separator is the final one: a comma, a line break and the
    indentation of the items (``_encoder``).  No encoded string holds a
    raw line break, so a split on such a separator is exact without a
    look inside strings, and no text is re-indented.  A list of two or
    more records that share one nonempty set of keys is written
    ``_SLICE`` records at a time (``_records``).  Keys must be strings:
    any other key raises TypeError, where the standard library would
    convert a number.
    """
    return _encoded(obj, "\n")


_encode_str = json.encoder.encode_basestring_ascii


@functools.cache
def _encoder(separator: str):
    """The compact one-shot encoder, with ``separator`` between items
    and ``": "`` between a key and its value, as a function of the
    object to its text.  NaN and infinity are not JSON: writing one
    raises ValueError."""
    if json.encoder.c_make_encoder is None:
        return json.JSONEncoder(allow_nan=False,
                                separators=(separator, ": ")).encode
    # The encoder that json.dumps builds on each call.
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, _encode_str, None, ": ",
        separator, False, False, False)
    return lambda obj: "".join(encode(obj, 0))


_scalar = _encoder(",")  # the separator of a scalar's text is never used
_leaves = _encoder("\n")  # a list of scalars, to be split on its separator
_CONTAINERS = (list, tuple, dict)
_SLICE = 32  # records rendered at once: bounds the text the writer holds
_SCALARS = 512  # scalars in one encoder call of _items, about
_LEAF_TYPES = frozenset((int, float, bool, type(None), str))


def _items(rows, indent):
    """The text inside the brackets of each of ``rows``, nonempty lists
    of scalars, written with its items at indentation ``indent``; None
    when a row is not one.  Each row is checked by type to be a nonempty
    list.  Then one ``"["`` per row in the text rules out deeper lists
    and brackets in strings, and no ``'": '`` rules out objects with
    keys (``"{}"`` is written as a scalar is), so a ``"]"`` before a
    separator ends a row.  An encoder call holds the text of each scalar
    until it returns, so one call covers about ``_SCALARS`` scalars."""
    if set(map(type, rows)) != {list} or not all(rows):
        return None
    encode = _encoder("," + indent)
    step = max(1, _SCALARS // len(rows[0]))
    bodies = []
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        text = encode(part)
        # A float holds no ":", so number rows skip the slower search.
        if text.count("[") != 1 + len(part) or ":" in text and '": ' in text:
            return None
        bodies += text[2:-2].split(f"],{indent}[")
    return bodies


def _rows(values, newline):
    """The text at indentation ``newline`` of each of ``values``,
    nonempty lists of rows, from the ``_items`` of all their rows; None
    when one is not such a list."""
    if set(map(type, values)) != {list} or not all(values):
        return None
    inner = newline + "  "
    indent = inner + "  "
    if (bodies := _items(list(chain.from_iterable(values)), indent)) is None:
        return None
    between = f"{inner}],{inner}[{indent}"
    texts, start = [], 0
    for end in accumulate(map(len, values)):
        texts.append(f"[{inner}[{indent}{between.join(bodies[start:end])}"
                     f"{inner}]{newline}]")
        start = end
    return texts


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
                write(separator + _encode_str(key) + ": ")
                _encode(value, write, inner)
            else:
                write(separator + _encode_str(key) + ": " + _scalar(value))
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        types = set(map(type, obj))
        if types <= _LEAF_TYPES:
            write(f"[{inner}{_encoder(',' + inner)(obj)[1:-1]}{newline}]")
            return
        if types == {dict} and len(obj) > 1 and (keys := obj[0].keys()) \
                and all(record.keys() == keys for record in obj):
            separator = "[" + inner
            for text in _records(obj, sorted(keys), inner):
                write(separator + text)
                separator = "," + inner
            write(newline + "]")
            return
        if types == {list} and (text := _rows([obj], newline)):
            write(text[0])
            return
        separator = "[" + inner
        for item in obj:
            if isinstance(item, _CONTAINERS):
                write(separator)
                _encode(item, write, inner)
            else:
                write(separator + _scalar(item))
            separator = "," + inner
        write(newline + "]")
    else:
        write(_scalar(obj))


def _encoded(obj, newline: str) -> str:
    """The text that ``_encode`` writes."""
    chunks: list[str] = []
    _encode(obj, chunks.append, newline)
    return "".join(chunks)


def _records(obj, keys, inner):
    """The text of each dict of ``obj``, all with exactly the sorted
    ``keys``, at indentation ``inner``, rendered ``_SLICE`` records at a
    time, so that the caller holds one slice's text.  In a slice each
    column of scalars is one encoder call, split on its separator, and a
    column of rows of scalars one by ``_items``.  In any other column a
    value that is the same object as the previous one, across slices
    too, reuses its text, so a run of shared bases is formatted once:
    the first values of the slice's runs are written by ``_rows`` when
    they are all lists of rows, else one by one by ``_encode`` at the
    field's indentation.  Only the previous value is held, so the memo
    does not grow with the number of distinct values.
    """
    field = inner + "  "
    entry = field + "  "
    names = [_encode_str(key).replace("%", "%%") + ": " for key in keys]
    previous = dict.fromkeys(keys, (object(), ""))  # (value, its text)
    for start in range(0, len(obj), _SLICE):
        records = obj[start:start + _SLICE]
        formats, columns = [], []
        for j, key in enumerate(keys):
            column = [record[key] for record in records]
            formats.append("%s")
            if set(map(type, column)) <= _LEAF_TYPES:
                columns.append(_leaves(column)[1:-1].split("\n"))
                continue
            if type(column[0]) is list and column[0] \
                    and type(column[0][0]) is not list \
                    and (bodies := _items(column, entry)) is not None:
                formats[j] = f"[{entry}%s{field}]"
                columns.append(bodies)
                continue
            last, text = previous[key]
            # Whether each value starts a run: texts[run number].
            new = list(map(is_not, column, chain((last,), column)))
            texts = [text]
            if heads := list(compress(column, new)):
                texts += _rows(heads, field) or [
                    _encoded(head, field) for head in heads]
            columns.append(texts[1:] if all(new) else list(
                map(texts.__getitem__, accumulate(new))))
            previous[key] = column[-1], texts[-1]
        template = "{" + field + ("," + field).join(
            name + form for name, form in zip(names, formats)) + inner + "}"
        for values in zip(*columns):
            yield template % values


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
    """The bundle as a document.  Consecutive fibers of a stratum whose
    bases are bitwise equal share one ``basis`` list, built once, so a
    caller that mutates one basis in place must copy it first."""
    base = stratification_to_json(b.base)
    del base["schema"]
    fibers = [{"point_index": [name, i], "basis": basis}
              for name, stack in b.stacks.items()
              for i, basis in enumerate(_shared_bases(stack))]
    return {
        "schema": SCHEMA,
        "base": base,
        "fiber_ambient": b.fiber_ambient,
        "fibers": fibers,
        "ranks": dict(sorted(b.stratum_rank.items())),
    }


def _shared_bases(stack) -> list:
    """``stack.tolist()``, each run of bitwise-equal consecutive fibers
    (``_run_starts``) sharing the one list built for its first fiber.  A
    stratum holds at least one point, so the stack holds at least one
    fiber."""
    first = _run_starts(stack)
    distinct = stack[first].tolist()
    return list(map(distinct.__getitem__, (np.cumsum(first) - 1).tolist()))


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
