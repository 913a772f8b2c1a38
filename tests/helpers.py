"""Builders and readers that only the tests use.

Test modules import this file by its name, ``helpers``, since pytest
puts the directory of each test module on ``sys.path``.
"""

import numpy as np

from svb.bundle import _off_fiber, whitney_a_check, whitney_a_from_sections
from svb.equivariant import FiniteGroupAction


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
