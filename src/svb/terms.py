"""Term tables: svb's one exact form of a polynomial map.

A table is a list of terms, each a monomial (its exponents ``powers``)
times a vector.  A vector field writes it as a list ``coeffs`` of
``{"powers", "vector"}`` objects; a monoid action on R^m as m lists, one
per output coordinate, of ``{"powers", "coef"}`` objects.
``read_terms`` reads both by one rule, in memory as from a file: an
exponent is a nonnegative integer and never a bool, float or str; a
coefficient or vector entry is a finite real number and never a bool or
str; a key is never missing.  A ``TermError`` names the place of the
fault, as in ``coeffs[1][0].powers[2]: expected int, got float``, and a
file reader puts the document path in front.
"""

from __future__ import annotations

import numbers

import numpy as np

from .grassmann import _integer, _real, _real_type

__all__ = ["TermError", "parse_powers", "read_terms", "evaluate_terms"]


class TermError(ValueError):
    """A bad term table; the text starts with the place of the fault."""


def _key(term: dict, key: str):
    if key not in term:
        raise ValueError(f"{key}: missing")
    return term[key]


def parse_powers(powers, n_vars: int) -> tuple[int, ...]:
    """``n_vars`` nonnegative integer exponents as a tuple of ints.  A
    ValueError names ``powers`` or the entry ``powers[b]`` at fault:
    first the type of each entry, then their count, then their signs."""
    if not isinstance(powers, (list, tuple)):
        raise ValueError(f"powers: expected list, got {type(powers).__name__}")
    for b, p in enumerate(powers):
        if not isinstance(p, numbers.Integral) or isinstance(p, bool):
            raise ValueError(f"powers[{b}]: expected int, got "
                             f"{type(p).__name__}")
    if len(powers) != n_vars:
        raise ValueError(f"powers: expected {n_vars} exponents, "
                         f"got {len(powers)}")
    return tuple(_integer(f"powers[{b}]", p, 0) for b, p in enumerate(powers))


def _term(where: str, term, n_vars: int, out_dim: int, column):
    """``(powers, vector)`` of the term object at ``where``; an action's
    coefficient is put in ``column`` of the vector."""
    if not isinstance(term, dict):
        raise TermError(f"{where}: expected an object")
    try:
        powers = parse_powers(_key(term, "powers"), n_vars)
        if column is None:
            entries = _key(term, "vector")
            if not isinstance(entries, (list, tuple)) or not all(
                    map(_real_type, map(type, entries))):
                raise ValueError("vector: expected a numeric list of numbers")
            vector = np.array([_real("vector", x) for x in entries], float)
            if len(vector) != out_dim:
                raise ValueError(f"vector: expected {out_dim} entries, "
                                 f"got {len(vector)}")
        else:
            vector = np.zeros(out_dim)
            vector[column] = _real("coef", _key(term, "coef"))
    except ValueError as exc:
        raise TermError(f"{where}.{exc}") from None
    return powers, vector


def read_terms(coeffs, n_vars: int, out_dim: int, by_coordinate=False):
    """The table ``coeffs`` over ``n_vars`` variables into R^``out_dim``
    as ``(powers, vector)`` pairs: a tuple of ints and a float array.  A
    field's form gives one list of pairs.  An action's, ``by_coordinate``,
    gives one list per output coordinate j, a coefficient c giving the
    vector c e_j."""
    if not isinstance(coeffs, (list, tuple)):
        raise TermError(f"coeffs: expected list, got {type(coeffs).__name__}")
    if not by_coordinate:
        return [_term(f"coeffs[{k}]", term, n_vars, out_dim, None)
                for k, term in enumerate(coeffs)]
    if len(coeffs) != out_dim:
        raise ValueError(
            f"expected coefficient lists for {out_dim} output coordinates")
    rows = []
    for j, row in enumerate(coeffs):
        if not isinstance(row, (list, tuple)):
            raise TermError(f"coeffs[{j}]: expected a list")
        rows.append([_term(f"coeffs[{j}][{k}]", term, n_vars, out_dim, j)
                     for k, term in enumerate(row)])
    return rows


def evaluate_terms(terms, pts, out_dim: int) -> np.ndarray:
    """The map at each row of the ``(n, n_vars)`` array ``pts``: each
    monomial multiplies the variables in order, then each nonzero entry
    of its vector, into that entry's column: a term adds nothing where its
    vector is 0, and a one-hot term touches one column.  A value
    that overflows is left as inf or NaN, without a numpy warning.  No
    width is checked: the callers hand it rows read by ``strata._samples``
    (an action's with the time in front) and name the first non-finite
    value."""
    out = np.zeros((len(pts), out_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for powers, vector in terms:
            monomial = np.ones(len(pts))
            for column, p in zip(pts.T, powers):
                if p == 1:
                    monomial *= column
                elif p:
                    # Rounded as the scalar power rounds; numpy's
                    # vectorised power may differ in the last bit.
                    monomial *= np.array([xi ** p for xi in column])
            for j in vector.nonzero()[0].tolist():
                out[:, j] += monomial * vector[j]
    return out
