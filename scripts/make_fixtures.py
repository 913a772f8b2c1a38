#!/usr/bin/env python3
"""Regenerate the committed JSON fixture corpus under fixtures/.

Everything is produced from svb.fixtures, so the files stay in sync with
the in-memory fixtures the tests use.  Run from the repository root:

    python3 scripts/make_fixtures.py [DIR]

DIR defaults to the committed fixtures/; another directory receives a
fresh copy of the corpus, for comparing against the committed one.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from svb import fixtures
from svb.jsonio import (
    SCHEMA,
    action_to_json,
    bundle_to_json,
    fields_to_json,
    group_to_json,
    scenario_to_json,
    stratification_to_json,
    write_json,
)
from svb.monoid import MonoidActionSample


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", nargs="?", default=FIXTURES,
                        help="output directory (default: fixtures/)")
    return parser.parse_args(argv)


def main(root: str = FIXTURES) -> None:
    """Write the corpus into ``root`` (default: the committed fixtures/)."""
    os.makedirs(root, exist_ok=True)

    def emit(name, obj):
        path = os.path.join(root, name)
        write_json(obj, path)
        print(f"wrote {os.path.relpath(path)}")

    # Stratifications.
    emit("line.json", stratification_to_json(fixtures.line_stratification()))
    emit("local_line.json",
         stratification_to_json(fixtures.local_line_stratification()))
    emit("cone_base.json",
         stratification_to_json(fixtures.cone_stratification()))
    for level in (3, 4, 5, 6):
        emit(f"cantor_level{level}.json",
             stratification_to_json(fixtures.cantor_stratification(level)))

    # Bundles and scenarios.
    emit("cone_pass.json", bundle_to_json(fixtures.cone_bundle("pass")))
    emit("cone_fail.json", bundle_to_json(fixtures.cone_bundle("fail")))
    emit("cone_rank0.json", bundle_to_json(fixtures.cone_bundle("rank0")))
    emit("cone_scenario.json", scenario_to_json(fixtures.cone_scenario()))
    emit("trivial3.json",
         bundle_to_json(fixtures.trivial_bundle(
             fixtures.line_stratification(), 3)))
    emit("step_rank.json", bundle_to_json(fixtures.step_rank_bundle()))

    # Groups and equivariant inputs.
    emit("sign_flip_group.json", group_to_json(fixtures.sign_flip_group()))
    emit("rotation8_group.json", group_to_json(fixtures.rotation_group(8)))
    emit("sign_flip_tangent.json",
         bundle_to_json(fixtures.sign_flip_tangent_bundle()))
    emit("ring_tangent.json", bundle_to_json(fixtures.ring_tangent_bundle()))

    # Monoid actions.
    r2 = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [-1.0, 0.5],
                   [0.0, 0.0]])
    r1 = np.array([[1.0], [-0.5], [2.0], [0.0]])
    emit("action_scalar.json",
         action_to_json(MonoidActionSample.builtin("scalar", 2, r2)))
    emit("action_square_scale.json",
         action_to_json(MonoidActionSample.builtin("square_scale", 1, r1)))
    emit("action_translate.json",
         action_to_json(MonoidActionSample.builtin("translate", 1, r1)))
    emit("action_scale_last.json",
         action_to_json(MonoidActionSample.builtin("scale_last", 2, r2)))
    cone_action, _, _ = fixtures.bundle_scalar_action(
        fixtures.cone_bundle("pass", depth=12))
    emit("action_cone_scalar.json", action_to_json(cone_action))

    # Vector fields and the line foliation scenario.
    emit("fields_line.json", fields_to_json(fixtures.line_scaling_fields()))
    emit("fields_line_square.json",
         fields_to_json(fixtures.line_scaling_fields(power=2)))
    emit("fields_plane_axes.json",
         fields_to_json(fixtures.axis_scaling_fields_plane()))
    emit("fields_constant.json", fields_to_json(fixtures.constant_field_plane()))
    from svb.foliation import foliation_bundle
    line_bundle = foliation_bundle(fixtures.line_scaling_fields(), r_cc=0.015)
    emit("fol_line_scenario.json",
         scenario_to_json(fixtures.line_foliation_scenario(line_bundle)))

    # A standalone subspace.
    emit("plane_in_r3.json", {
        "schema": SCHEMA,
        "ambient": 3,
        "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    })


if __name__ == "__main__":
    main(parse_args().dir)
