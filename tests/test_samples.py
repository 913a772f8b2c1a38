"""One rule for the sample points svb is handed, entry by entry.

Every public entry that takes a set of sample points, or one point, reads
it by ``strata._samples``.  A NaN, an infinity or a coordinate beyond
±2^500 names the first sample that holds it; a cloud without
coordinates, of the wrong width (where the entry has an ambient
dimension) or without rows is refused; each under one text.  Where an
ambient dimension is given, a cloud without coordinates has the wrong
width.  An entry that takes one point makes it one row, so it has no
"no rows" case.  The evaluators, which map a point or a stack of points,
follow the rule as the entries that take a set of points do.
``TestEveryEntryIsListed`` walks the public API, methods and
classmethods included, so that a new entry taking points has to join the
table.
"""

import math
import re

import numpy as np
import pytest

from svb.equivariant import orbit_type_partition, stabilizer
from svb.fixtures import constant_field_plane, rotation_group
from svb.foliation import VectorFieldSet, distribution_at
from svb.monoid import MonoidActionSample, vertical_derivative
from svb.strata import (estimate_cloud_dim, partition_by_label,
                        single_linkage_components)

from helpers import public_parameters

EDGE = 2.0 ** 500  # strata.MAX_COORD
# h_t(e) = t e on R^2, and its coefficient table.
SCALAR = MonoidActionSample.builtin("scalar", 2, [[1.0, 0.0]])
SCALAR_TABLE = [[{"powers": [1, int(j == 0), int(j == 1)], "coef": 1.0}]
                for j in range(2)]


def _fields(pts):
    return VectorFieldSet(2, constant_field_plane().fields, pts)


# (entry:parameter, its ambient dimension or None, whether it takes one
# point, call with a cloud in R^2 or another width); an entry that takes
# one point is given the cloud's last row.
ENTRIES = [
    ("strata.single_linkage_components:points", None, False,
     lambda pts: single_linkage_components(pts, 0.5)),
    ("strata.partition_by_label:points", None, False,
     lambda pts: partition_by_label(pts, [0] * len(pts), [("s", 0)],
                                    dim=lambda label, cloud: 0,
                                    below=lambda low, high: False,
                                    r_cc=0.5)),
    ("strata.estimate_cloud_dim:points", None, False, estimate_cloud_dim),
    ("equivariant.stabilizer:x", 2, True,
     lambda pts: stabilizer(rotation_group(4), pts[-1])),
    ("equivariant.orbit_type_partition:points", 2, False,
     lambda pts: orbit_type_partition(rotation_group(4), pts, r_cc=0.5)),
    ("foliation.VectorFieldSet:sample_points", 2, False, _fields),
    ("foliation.distribution_at:x", 2, True,
     lambda pts: distribution_at(constant_field_plane(), pts[-1])),
    ("monoid.MonoidActionSample:sample_points", 2, False,
     lambda pts: MonoidActionSample(2, {"kind": "builtin", "name": "scalar"},
                                    pts, (0.0, 1.0))),
    ("monoid.MonoidActionSample.builtin:sample_points", 2, False,
     lambda pts: MonoidActionSample.builtin("scalar", 2, pts)),
    ("monoid.MonoidActionSample.polynomial:sample_points", 2, False,
     lambda pts: MonoidActionSample.polynomial(SCALAR_TABLE, 2, pts)),
    # The evaluators.
    ("foliation.PolynomialVectorField.evaluate:x", 2, False,
     lambda pts: constant_field_plane().fields[0].evaluate(pts)),
    ("foliation.VectorFieldSet.evaluate:points", 2, False,
     lambda pts: constant_field_plane().evaluate(pts)),
    ("monoid.MonoidActionSample.evaluate:e", 2, False,
     lambda pts: SCALAR.evaluate(0.5, pts)),
    ("monoid.vertical_derivative:e", 2, False,
     lambda pts: vertical_derivative(SCALAR, pts)),
]

WRONG_WIDTH = "sample points have the wrong ambient dimension"


def _far(row):
    return (f"sample point {row} has a coordinate that is not finite or "
            "beyond ±2^500")


def _cases():
    """(entry, input kind, call, points, the one text it raises)."""
    for entry, ambient, point, call in ENTRIES:
        row = 0 if point else 1
        for kind, value in (("nan", math.nan), ("inf", math.inf),
                            ("2^501", 2.0 ** 501)):
            yield (entry, kind, call, np.array([[0.0, 0.0], [0.0, value]]),
                   _far(row))
        yield (entry, "zero-width", call, np.zeros((3, 0)),
               WRONG_WIDTH if ambient else
               "sample points need at least one coordinate")
        if not point:
            yield (entry, "no-rows", call, np.zeros((0, 2)),
                   "need at least one sample point")
        if ambient:
            yield entry, "wrong-width", call, np.zeros((3, 3)), WRONG_WIDTH


CASES = list(_cases())


@pytest.mark.parametrize("entry, kind, call, points, message", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_refused_by_the_rule(entry, kind, call, points, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(points)


@pytest.mark.parametrize("entry, ambient, point, call", ENTRIES,
                         ids=[row[0] for row in ENTRIES])
def test_the_bound_is_accepted(entry, ambient, point, call):
    call(np.array([[0.0, 0.0], [EDGE, -EDGE]]))


# Names of a point or a set of points.
POINTS = re.compile(r"\w*points|pts|x|e")

# Parameters that take points but keep their own contract, each with the
# reason.
EXCLUDED = {
    # A stratum's texts name the stratum, and the CLI tests pin them.
    "strata.Stratum:points",
    # The term-table kernel under the evaluators, which read its rows by
    # the rule.
    "terms.evaluate_terms:pts",
}


def _public_point_parameters():
    return [p for p in public_parameters()
            if POINTS.fullmatch(p.split(":")[1])]


class TestEveryEntryIsListed:
    def test_walk(self):
        listed = {row[0] for row in ENTRIES} | EXCLUDED
        assert [p for p in _public_point_parameters()
                if p not in listed] == []

    def test_no_stale_entry(self):
        walked = set(_public_point_parameters())
        assert ({row[0] for row in ENTRIES} | EXCLUDED) - walked == set()
