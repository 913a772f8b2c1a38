"""Builders and readers that only the tests use.

Test modules import this file by its name, ``helpers``, since pytest
puts the directory of each test module on ``sys.path``.
"""

import importlib
import inspect
from types import FunctionType

import numpy as np

from svb.bundle import _off_fiber, whitney_a_check, whitney_a_from_sections
from svb.equivariant import (FiniteGroupAction, _conjugates, conjugacy_label,
                             fixed_subspace, invariant_subbundle,
                             quotient_bundle)
from svb.fixtures import ring_tangent_bundle, rotation_group
from svb.foliation import (PolynomialVectorField, VectorFieldSet,
                           distribution_at)
from svb.strata import partition_by_label


def cone_sections(b):
    """One spanning section of a cone bundle, as ``{stratum: (n_i, 2)
    array}`` aligned with ``b.stacks``: x -> (1, x) away from the origin
    and the origin fiber's own basis vector at the origin.  For the
    rank-0 variant this degenerates to the zero section."""
    if b.stratum_rank["S0"] == 0:
        return [{s.name: np.zeros((len(s), 2)) for s in b.base.strata}]
    return [{s.name: b.stacks["S0"][:, 0].copy() if s.name == "S0"
             else np.column_stack([np.ones(len(s)), s.points[:, 0]])
             for s in b.base.strata}]


def axis_reflection_group() -> FiniteGroupAction:
    """(x, y) -> (x, -y) of order two."""
    return FiniteGroupAction(2, [np.eye(2), np.diag([1.0, -1.0])])


def dihedral_square_group(with_tangent_action: bool = False
                          ) -> FiniteGroupAction:
    """Symmetries of the square: four rotations and four reflections."""
    def rot(k):
        c, s = np.cos(k * np.pi / 2), np.sin(k * np.pi / 2)
        return np.round(np.array([[c, -s], [s, c]]))

    mats = [rot(k) for k in range(4)]
    mats += [rot(k) @ np.diag([1.0, -1.0]) for k in (0, 2, 1, 3)]
    fiber = [m.copy() for m in mats] if with_tangent_action else None
    return FiniteGroupAction(2, mats, fiber_elements=fiber)


def reference_partition_by_stabilizer(g, pts, classes, of_point, r_cc,
                                      within=None):
    """``equivariant._partition_by_stabilizer`` by the rule it replaces:
    each class labelled by ``conjugacy_label``, each type's dimension
    that of its ``fixed_subspace``, and for each stratum pair, whether
    some conjugate of the higher type is a proper subgroup of the lower
    one, gathered afresh."""
    label_of = [conjugacy_label(g, stab) for stab in classes]
    labels = [label_of[c] for c in of_point.tolist()]
    distinct = sorted(set(labels), key=lambda lab: (-len(lab), lab))

    def below(big, small):
        return len(small) < len(big) and any(
            set(row) <= set(big) for row in _conjugates(g, small).tolist())

    return partition_by_label(
        pts, labels, [(f"type{t}", label) for t, label in enumerate(distinct)],
        dim=lambda label, cloud: fixed_subspace(g, label).dim, below=below,
        r_cc=r_cc, within=within)


def circle_rank_table(n):
    """Acceptance criterion 5 computed: the circle acting on the tangent
    bundle of the plane, sampled by ``ring_tangent_bundle(n)`` with the
    rotation group Z_n (n >= 2) standing in for the circle.  Z_n fixes
    only 0 of the tangent plane at the origin, as the circle does, and
    both act freely elsewhere, so ``quotient_bundle`` of the
    ``invariant_subbundle`` at ``r_cc`` 0.6 has the circle's ranks.  A
    quotient stratum of the circle has the dimension of its orbit-type
    stratum less that of the orbits, the rank of the rotation field
    -y d/dx + x d/dy at its points (``distribution_at``).

    Returns ``(quotient_ranks, tangent_ranks, orbit_ranks)``, each keyed
    by "origin" (the stratum at 0) and "generic"; ``orbit_ranks`` holds
    the set of field ranks over each stratum's points."""
    g = rotation_group(n)
    quotient = quotient_bundle(g, invariant_subbundle(
        g, ring_tangent_bundle(n), r_cc=0.6), r_cc=0.6)
    rotation = VectorFieldSet(2, [PolynomialVectorField(2, [
        {"powers": [0, 1], "vector": [-1.0, 0.0]},
        {"powers": [1, 0], "vector": [0.0, 1.0]}])], quotient.base._cloud)
    ranks, tangent, orbit = {}, {}, {}
    for s in quotient.base.strata:
        key = "generic" if s.points.any() else "origin"
        assert key not in ranks, f"two {key} strata"
        orbit[key] = {distribution_at(rotation, x).dim for x in s.points}
        ranks[key] = quotient.stratum_rank[s.name]
        tangent[key] = s.dim - max(orbit[key])
    return ranks, tangent, orbit


def violation_rows(report):
    """The violations of a ``FrontierReport``, one tuple (S, R, reason,
    witness row as a list, distance) each, from its columns."""
    return list(zip(*report.violation_columns()))


def assert_sections_read_fiber_check(b, sections, sc, tol, tail_len):
    """``whitney_a_from_sections`` gives the status and residual of
    ``whitney_a_check``, and, where there is a limit, section residuals
    equal bit for bit to ``_off_fiber`` against the limit at the final
    tail point.  Returns the verdict."""
    verdict = whitney_a_from_sections(b, sections, sc, tol=tol,
                                      tail_len=tail_len)
    check = whitney_a_check(b, sc, tol=tol, tail_len=tail_len)
    assert (verdict.status, verdict.residual) == (check.status,
                                                  check.residual)
    if check.limit is None:
        assert verdict.section_residuals == ()
        return verdict
    final = sc.sequence_indices[-1]
    values = np.array([sec[sc.source_stratum][final] for sec in sections],
                      dtype=float)
    assert verdict.section_residuals == tuple(
        _off_fiber(check.limit.basis, values).tolist())
    return verdict


def central_difference(a, pts, step=1e-4):
    """The Richardson-refined central difference of t -> h_t(e) at t = 0
    at each row of ``pts``: a finite-difference reference for the exact
    vertical derivative of the action ``a``.  Its error is a truncation
    term of order step^4 plus rounding of about 6 eps max|h_t(e)| / step
    over the four sampled times."""
    plus, minus, half_plus, half_minus = (
        a.evaluate(t, pts) for t in (step, -step, step / 2.0, -step / 2.0))
    coarse = (plus - minus) / (2.0 * step)
    fine = (half_plus - half_minus) / step
    return (4.0 * fine - coarse) / 3.0


LIBRARY = ["grassmann", "strata", "bundle", "functors", "foliation",
           "equivariant", "monoid", "fixtures", "jsonio", "cli"]


def public_parameters(skip=lambda name: False):
    """``module.name:parameter`` for each parameter of every callable in
    the ``__all__`` of the modules of ``LIBRARY``, and
    ``module.Class.method:parameter`` for each public method and
    classmethod that an exported class defines.  ``skip(name)`` leaves an
    exported name out, with its methods."""
    for module_name in LIBRARY:
        module = importlib.import_module(f"svb.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or skip(name):
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members += [(f"{name}.{attr}", getattr(obj, attr))
                            for attr, value in vars(obj).items()
                            if not attr.startswith("_") and isinstance(
                                value, (FunctionType, classmethod,
                                        staticmethod))]
            for qualname, member in members:
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):  # a typing alias
                    continue
                for parameter in parameters:
                    yield f"{module_name}.{qualname}:{parameter}"
