"""Desk-scale fixtures of the JSON corpus (scripts/make_fixtures.py) and
the benchmark, which tests read too; test-only ones are in tests/helpers.py.

Everything here is exact: points sit on grids or dyadic sequences so
that declared strata, fibers and group orbits match to machine
precision.
"""

from __future__ import annotations

import numpy as np

from .bundle import ConvergenceScenario, SampledStratifiedBundle, trivial_bundle
from .equivariant import FiniteGroupAction
from .foliation import PolynomialVectorField, VectorFieldSet
from .grassmann import _check_positive, _integer, span
from .monoid import MonoidActionSample
from .strata import Stratification, Stratum

__all__ = [
    "line_stratification",
    "local_line_stratification",
    "cone_stratification",
    "cantor_stratification",
    "dyadic_line_stratification",
    "cone_bundle",
    "cone_scenario",
    "step_rank_bundle",
    "trivial_bundle",
    "bundle_scalar_action",
    "sign_flip_group",
    "rotation_group",
    "sign_flip_tangent_bundle",
    "ring_tangent_bundle",
    "line_scaling_fields",
    "constant_field_plane",
    "axis_scaling_fields_plane",
    "line_foliation_scenario",
]


def _branches(plus, minus, names=("S0", "S+", "S-")) -> Stratification:
    """A 0-dimensional stratum at the origin in the closure of two
    1-dimensional branches, sampled by the rows of ``plus`` and
    ``minus``."""
    point, up, down = names
    return Stratification(
        [Stratum(point, 0, np.zeros((1, plus.shape[1]))),
         Stratum(up, 1, plus), Stratum(down, 1, minus)],
        closure_order=[(point, up), (point, down)])


def _steps(spacing: float) -> np.ndarray:
    """``spacing``, 2 ``spacing``, ... up to 1."""
    _check_positive("spacing", spacing)
    return np.arange(spacing, 1.0 + spacing / 2, spacing)


def line_stratification(spacing: float = 0.05) -> Stratification:
    """The interval [-1, 1] split into {0}, the positive and the negative
    open half, sampled on a grid reaching ``spacing`` from the origin."""
    pos = _steps(spacing)[:, None]
    return _branches(pos, -pos)


def local_line_stratification() -> Stratification:
    """Line fixture with asymmetric sampling: the negative half stays
    0.15 away from the origin, so a 0.1 ball around any sample meets at
    most two strata."""
    return _branches(np.arange(0.05, 1.0001, 0.05)[:, None],
                     -np.arange(0.15, 1.0001, 0.05)[:, None])


def dyadic_line_stratification(depth: int = 40) -> Stratification:
    """Line fixture whose halves are sampled on the dyadic sequence
    2^0, 2^-1, ..., 2^-depth; the deep tail makes limit fibers sharp."""
    pts = (2.0 ** -np.arange(0, _integer("depth", depth, 0) + 1))[:, None]
    return _branches(pts, -pts)


def cone_stratification(spacing: float = 0.05) -> Stratification:
    """A vertex and the two open branches of y = |x| in the plane."""
    xs = _steps(spacing)
    return _branches(np.column_stack([xs, xs]), np.column_stack([-xs, xs]),
                     ("vertex", "arc+", "arc-"))


def _cantor_intervals(level: int) -> list[tuple[float, float]]:
    intervals = [(0.0, 1.0)]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return intervals


def cantor_stratification(level: int) -> Stratification:
    """Finite approximation of the middle-thirds construction on [0, 1]:
    the 2^(level+1) interval endpoints as singleton strata plus every gap
    removed up to ``level``, each sampled at three interior points."""
    level = _integer("level", level, 1)
    endpoints = sorted({e for a, b in _cantor_intervals(level) for e in (a, b)})
    strata = [Stratum(f"pt{i:03d}", 0, np.array([[e]]))
              for i, e in enumerate(endpoints)]
    point_index = {e: f"pt{i:03d}" for i, e in enumerate(endpoints)}
    # Stage s removes the middle third of each interval of stage s - 1.
    gaps = [(stage, a + (b - a) / 3.0, b - (b - a) / 3.0)
            for stage in range(1, level + 1)
            for a, b in _cantor_intervals(stage - 1)]
    closure = []
    for gap_id, (stage, left, right) in enumerate(gaps):
        samples = left + (right - left) * np.array([0.25, 0.5, 0.75])
        name = f"gap{stage}_{gap_id:02d}"
        strata.append(Stratum(name, 1, samples.reshape(-1, 1)))
        closure += [(point_index[left], name), (point_index[right], name)]
    return Stratification(strata, closure_order=closure)


# ---------------------------------------------------------------------------
# Bundle fixtures.

def _line_bundle(base: Stratification, k: int, fiber_at, origin,
                 ranks) -> SampledStratifiedBundle:
    """The bundle in R^k over a line base whose fiber over each sample x
    of S+ and S- is the span of the rows ``fiber_at(x)``, and over the
    origin S0 the span of the rows ``origin``."""
    fibers = {(s.name, i): span(fiber_at(x), k) for s in base.strata[1:]
              for i, x in enumerate(s.points[:, 0].tolist())}
    fibers[("S0", 0)] = span(origin, k)
    return SampledStratifiedBundle(base, k, fibers, ranks)


def cone_bundle(variant: str = "pass", depth: int = 40) -> SampledStratifiedBundle:
    """Line field A_x = span{(1, x)} over the dyadic line base.

    The fiber over the origin depends on the variant: the limit plane
    span{(1,0)} ("pass"), its orthogonal complement span{(0,1)} ("fail"),
    or the zero fiber ("rank0").
    """
    base = dyadic_line_stratification(depth)
    origin = {"pass": [(1.0, 0.0)], "fail": [(0.0, 1.0)], "rank0": []}
    if variant not in origin:
        raise ValueError(f"unknown cone_bundle variant {variant!r}")
    return _line_bundle(base, 2, lambda x: [(1.0, x)], origin[variant],
                        {"S0": len(origin[variant]), "S+": 1, "S-": 1})


def cone_scenario(depth: int = 40) -> ConvergenceScenario:
    """The dyadic sequence 1, 1/2, ..., 2^-depth in S+ converging to 0."""
    depth = _integer("depth", depth, 0)
    return ConvergenceScenario("S0", "S+", 0, tuple(range(depth + 1)))


def step_rank_bundle() -> SampledStratifiedBundle:
    """Ranks (2, 1, 2) over the coarse line base inside R^3: the halves
    carry tilted planes, the origin the single line they share."""
    return _line_bundle(line_stratification(), 3,
                        lambda x: [(1.0, 0.0, 0.0), (0.0, 1.0, x)],
                        [(1.0, 0.0, 0.0)], {"S0": 1, "S+": 2, "S-": 2})


def bundle_scalar_action(b: SampledStratifiedBundle):
    """Scalar multiplication of a bundle as a polynomial monoid action on
    total-space samples (x, v) in R^(m+k).

    Returns (action, base, expected): the zero section {(x, 0)} as a
    stratification with the strata and closure order of ``b``'s base, and
    the bundle of the fibers {0} x A_x over it that reconstruction gives.
    """
    m = b.base.ambient_dim
    k = b.fiber_ambient
    total = m + k
    coeffs = []
    for c in range(total):
        powers = [0] * (total + 1)
        powers[1 + c] = 1
        if c >= m:
            powers[0] = 1  # fiber coordinates scale with t
        coeffs.append([{"powers": powers, "coef": 1.0}])

    samples = []
    for s in b.base.strata:
        for x, basis in zip(s.points, b.stacks[s.name]):
            samples += [np.concatenate([x, np.zeros(k)]),
                        *(np.concatenate([x, v]) for v in basis)]
    base = Stratification([Stratum(s.name, s.dim, np.pad(
        s.points, [(0, 0), (0, k)])) for s in b.base.strata],
        b.base.closure_order)
    expected = SampledStratifiedBundle.from_stacks(base, total, {
        name: np.pad(stack, [(0, 0), (0, 0), (m, 0)])
        for name, stack in b.stacks.items()}, b.stratum_rank, tol_ortho=None)
    action = MonoidActionSample.polynomial(coeffs, total, np.array(samples))
    return action, base, expected


# ---------------------------------------------------------------------------
# Finite orthogonal groups.

def sign_flip_group() -> FiniteGroupAction:
    """x -> -x on the line, with the tangent action v -> -v."""
    return FiniteGroupAction(1, [[[1.0]], [[-1.0]]],
                             fiber_elements=[[[1.0]], [[-1.0]]])


def rotation_group(n: int, with_tangent_action: bool = True
                   ) -> FiniteGroupAction:
    """The n evenly spaced plane rotations, optionally acting on tangent
    vectors by the same matrices."""
    n = _integer("n", n, 1)
    mats = []
    for k in range(n):
        theta = 2.0 * np.pi * k / n
        mats.append(np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]]))
    fiber = [m.copy() for m in mats] if with_tangent_action else None
    return FiniteGroupAction(2, mats, fiber_elements=fiber)


def sign_flip_tangent_bundle() -> SampledStratifiedBundle:
    """Tangent bundle of the line fixture, acted on by x -> -x."""
    return trivial_bundle(line_stratification(), 1)


def ring_tangent_bundle(n: int = 8,
                        radii=(0.5, 1.0)) -> SampledStratifiedBundle:
    """Tangent bundle of the plane sampled on the origin plus n-point
    rings, saturated under the n rotations."""
    n = _integer("n", n, 1)
    ring_points = []
    for i, r in enumerate(radii):
        _check_positive(f"radii[{i}]", r)
        for k in range(n):
            theta = 2.0 * np.pi * k / n
            ring_points.append([r * np.cos(theta), r * np.sin(theta)])
    base = Stratification([
        Stratum("origin", 0, np.array([[0.0, 0.0]])),
        Stratum("bulk", 2, np.array(ring_points)),
    ], closure_order=[("origin", "bulk")])
    return trivial_bundle(base, 2)


# ---------------------------------------------------------------------------
# Polynomial vector fields.

def line_scaling_fields(power: int = 1,
                        n_samples: int = 201) -> VectorFieldSet:
    """The field x^power d/dx on an odd uniform grid over [-1, 1]; any
    power induces the same sign stratification of the line."""
    field = PolynomialVectorField(
        1, [{"powers": [_integer("power", power, 0)], "vector": [1.0]}])
    n_samples = _integer("n_samples", n_samples, 1)
    samples = np.linspace(-1.0, 1.0, n_samples).reshape(-1, 1)
    return VectorFieldSet(1, [field], samples)


def _on_plane_grid(fields, step: float) -> VectorFieldSet:
    """``fields`` read on the square grid of ``step`` over [-1, 1]^2."""
    _check_positive("step", step)
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    return VectorFieldSet(2, fields, [[x, y] for x in axis for y in axis])


def constant_field_plane(step: float = 0.25) -> VectorFieldSet:
    """The constant field d/dx on a plane grid: one rank-1 stratum."""
    return _on_plane_grid([PolynomialVectorField(
        2, [{"powers": [0, 0], "vector": [1.0, 0.0]}])], step)


def axis_scaling_fields_plane(step: float = 0.25) -> VectorFieldSet:
    """{x d/dx, y d/dy} on a plane grid: rank 0 at the origin, rank 1 on
    the punctured axes, rank 2 elsewhere."""
    return _on_plane_grid([
        PolynomialVectorField(2, [{"powers": [1, 0], "vector": [1.0, 0.0]}]),
        PolynomialVectorField(2, [{"powers": [0, 1], "vector": [0.0, 1.0]}])],
        step)


def line_foliation_scenario(bundle: SampledStratifiedBundle
                            ) -> ConvergenceScenario:
    """Dyadic-style approach to the origin inside the positive rank-1
    component of the line foliation bundle."""
    target = next((s.name for s in bundle.base.strata
                   if bundle.stratum_rank[s.name] == 0), None)
    if target is None:
        raise ValueError("bundle has no rank-0 stratum")
    source = None
    for s in bundle.base.strata:
        if bundle.stratum_rank[s.name] == 1 and s.points.min() > 0:
            source = s
            break
    if source is None:
        raise ValueError("bundle has no positive rank-1 component")
    order = np.argsort(source.points[:, 0])
    picks = []
    step = len(order)
    while step > 1:
        step //= 2
        picks.append(int(order[step - 1]))
    x0_index = int(np.argmin(
        np.linalg.norm(bundle.base.stratum(target).points, axis=1)))
    return ConvergenceScenario(target, source.name, x0_index, tuple(picks))
