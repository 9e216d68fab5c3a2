"""Evaluable vector fields: truncated group-orbit series and canonical planar fields.

The series construction: for a seed H(z) = 1/(z - s) and weight m, the
orbit sum

    Theta_m[H](z) = sum over ball elements T of H(Tz) * (T'(z))^m

transforms with weight m under the group, so the ratio of a weight-m and a
weight-(m+1) series transforms with the single-derivative multiplier of a
vector field: F(Tz) = T'(z) F(z).  Truncation to a finite word-length ball
makes that law approximate; the residual is always measured, never assumed.

One field kernel. ``AutomorphicField`` holds the ball and the two seed
poles; ``field_eval`` computes each element's image Tz and multiplier
T'(z) once and forms both series from them, the numerator at weight
WEIGHT around the numerator pole and the denominator at weight WEIGHT + 1
around the denominator pole.

Stabilized evaluation. When the generating set contains an affine map
(c = 0), the orbit of any point climbs without bound in the half-plane
coordinate and the raw orbit sum is dominated by those terms instead of
converging.  The fix is a change of variables: conjugating the group by
the Cayley map z -> (z - i)/(z + i) moves the action to the unit disk,
where every escaping orbit approaches the boundary and the same sum
converges for weights >= 2.  Pulling the disk-coordinate ratio back,

    F(z) = Fhat(Cz) / C'(z),

satisfies the original transformation law exactly (chain rule), so nothing
about the field's covariance is lost.  Construction enables this exactly
when the enumerated ball contains a non-identity affine element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DenominatorVanishes, NearPole
from .moebius import (
    GroupBall,
    MoebiusMap,
    apply,
    compose,
    derivative,
    enumerate_ball,
    inverse,
)

POLE_GUARD = 1e-6
DENOMINATOR_TOL = 1e-10
RESIDUAL_EPS = 1e-9
WEIGHT = 2  # numerator weight; the denominator series has weight WEIGHT + 1
DEFAULT_TRUNCATION = 4

# |c| below this (on normalized matrices) marks an affine element, which in
# turn switches construction over to the disk-model evaluation.
_AFFINE_C_TOL = 1e-8

CAYLEY_DISK = MoebiusMap(1.0, -1.0j, 1.0, 1.0j)  # upper half-plane -> unit disk


@dataclass(frozen=True, eq=False)
class AutomorphicField:
    """Ratio of a weight-WEIGHT and a weight-(WEIGHT + 1) orbit series on one ball.

    The series' seeds are 1/(z - numerator_pole) and 1/(z - denominator_pole),
    with the poles given in the summation coordinates.  ``conjugation`` is
    the change-of-variables map of the stabilized evaluation (None when the
    series are summed in the given coordinates).
    """

    ball: GroupBall
    numerator_pole: complex
    denominator_pole: complex
    conjugation: MoebiusMap | None = None
    _arrays: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("numerator_pole", "denominator_pole"):
            pole = complex(getattr(self, name))
            if not (math.isfinite(pole.real) and math.isfinite(pole.imag)):
                raise ValueError("seed pole must be finite")
            object.__setattr__(self, name, pole)
        maps = self.ball.maps()
        a = np.array([m.a for m in maps], dtype=complex)
        b = np.array([m.b for m in maps], dtype=complex)
        c = np.array([m.c for m in maps], dtype=complex)
        d = np.array([m.d for m in maps], dtype=complex)
        object.__setattr__(self, "_arrays", (a, b, c, d, a * d - b * c))

    def __call__(self, z: complex) -> complex:
        return field_eval(self, z)


def field_eval(f: AutomorphicField, z: complex) -> complex:
    """Evaluate the series ratio, in stabilized coordinates when present.

    Both series sum over the ball in canonical order, sharing each
    element's image Tw and multiplier T'(w) at the summation point w.
    Raises NearPole when w sits within POLE_GUARD of a ball element's pole
    line or of an orbit preimage of either seed pole, and
    DenominatorVanishes when the denominator series is below
    DENOMINATOR_TOL in magnitude.
    """
    if f.conjugation is not None:
        w = apply(f.conjugation, z)
        scale = derivative(f.conjugation, z)
    else:
        w = z
        scale = 1.0
    a, b, c, d, det = f._arrays
    den = c * w + d
    if np.abs(den).min() < POLE_GUARD:
        raise NearPole(f"z={w} is within {POLE_GUARD} of a ball element's pole line")
    moved = (a * w + b) / den
    mult = det / (den * den)
    num_gap = moved - f.numerator_pole
    den_gap = moved - f.denominator_pole
    for gap in (num_gap, den_gap):
        if np.abs(gap).min() < POLE_GUARD:
            raise NearPole(f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole")
    num = complex((mult ** WEIGHT / num_gap).sum())
    den_sum = complex((mult ** (WEIGHT + 1) / den_gap).sum())
    if abs(den_sum) < DENOMINATOR_TOL:
        raise DenominatorVanishes(f"denominator series ~ {abs(den_sum):.3g} at z={z}")
    return num / den_sum / scale


def equivariance_residual(f: AutomorphicField, m: MoebiusMap, z: complex) -> float:
    """Relative defect of the transformation law F(mz) = m'(z) F(z) at z."""
    fz = field_eval(f, z)
    fmz = field_eval(f, apply(m, z))
    return abs(fmz - derivative(m, z) * fz) / (abs(fz) + RESIDUAL_EPS)


def _is_affine(m: MoebiusMap) -> bool:
    n = m.normalized()
    return abs(n.c) <= _AFFINE_C_TOL


def ball_has_affine_element(ball: GroupBall) -> bool:
    """True when any non-identity ball element fixes the point at infinity."""
    return any(len(word) > 0 and _is_affine(m) for word, m in ball.elements)


def build_automorphic_field(
    generators,
    numerator_pole: complex,
    denominator_pole: complex,
    truncation: int = DEFAULT_TRUNCATION,
) -> AutomorphicField:
    """Enumerate the ball and assemble the field.

    The series are summed in the disk model (conjugated by the Cayley map)
    exactly when the raw ball contains an affine non-identity element.
    """
    generators = tuple(generators)
    raw_ball = enumerate_ball(generators, truncation)
    if ball_has_affine_element(raw_ball):
        cay = CAYLEY_DISK
        cay_inv = inverse(cay)
        moved = tuple(compose(compose(cay, g), cay_inv) for g in generators)
        ball = enumerate_ball(moved, truncation)
        s1 = apply(cay, complex(numerator_pole))
        s2 = apply(cay, complex(denominator_pole))
        conjugation = cay
    else:
        ball = raw_ball
        s1 = complex(numerator_pole)
        s2 = complex(denominator_pole)
        conjugation = None

    return AutomorphicField(ball, s1, s2, conjugation)


def equivariance_report(
    generators,
    numerator_pole: complex,
    denominator_pole: complex,
    truncation: int = DEFAULT_TRUNCATION,
    sample_points=None,
) -> dict:
    """Per-generator median residuals at the requested truncation and one below.

    This is the convergence evidence for a truncated field: residuals are
    reported, not assumed small.
    """
    generators = tuple(generators)
    if sample_points is None:
        sample_points = EQUIVARIANCE_SAMPLE
    sample_points = [complex(z) for z in sample_points]
    radii = [truncation] + ([truncation - 1] if truncation >= 1 else [])
    report: dict = {
        "weights": [WEIGHT, WEIGHT + 1],
        "sample_points": [[z.real, z.imag] for z in sample_points],
        "truncations": {},
    }
    for radius in radii:
        f = build_automorphic_field(
            generators, numerator_pole, denominator_pole, radius
        )
        per_gen = {}
        for gi, g in enumerate(generators, 1):  # residuals measured against the original maps
            residuals = []
            for z in sample_points:
                try:
                    residuals.append(equivariance_residual(f, g, z))
                except NearPole:
                    continue
            per_gen[f"g{gi}"] = {
                "median_residual": float(np.median(residuals)) if residuals else None,
                "points_used": len(residuals),
            }
        report["truncations"][str(radius)] = {
            "ball_size": len(f.ball),
            "stabilized": f.conjugation is not None,
            "per_generator": per_gen,
        }
    return report


# Fixed sample for equivariance reporting: a 5x4 grid in the upper
# half-plane, clear of the demo seeds and their nearby orbit points.
EQUIVARIANCE_SAMPLE = tuple(
    complex(x, y) for x in (-1.2, -0.4, 0.4, 1.2, 2.0) for y in (1.0, 1.8, 2.6, 3.4)
)


# ---------------------------------------------------------------------------
# canonical planar fields


@dataclass(frozen=True, eq=False)
class PlanarField:
    """Planar field evaluated as a complex number u + iv at z = x + iy."""

    kind: str
    func: Callable[[complex], complex]
    params: tuple = ()

    def __call__(self, z: complex) -> complex:
        return self.func(complex(z))

    def xy(self, x: float, y: float) -> tuple[float, float]:
        v = self.func(complex(x, y))
        return (v.real, v.imag)


def pendulum_field(k: float) -> PlanarField:
    """(theta, omega) -> (omega, -k sin theta) with k the gravity/length ratio."""
    if not k > 0:
        raise ValueError("k must be positive")

    def f(z: complex) -> complex:
        return complex(z.imag, -k * math.sin(z.real))

    return PlanarField(kind="pendulum", func=f, params=(("k", float(k)),))


_CANONICAL = {
    "saddle": lambda z: complex(z.real, -z.imag),
    "node": lambda z: z,
    "center": lambda z: 1j * z,
    "dipole": lambda z: z * z,
}

CANONICAL_KINDS = tuple(sorted(_CANONICAL))


def canonical_field(kind: str) -> PlanarField:
    """One of the index oracles: saddle (x,-y), node (x,y), center (-y,x),
    or the dipole z^2."""
    try:
        func = _CANONICAL[kind]
    except KeyError:
        raise ValueError(f"unknown canonical field {kind!r}; have {CANONICAL_KINDS}") from None
    return PlanarField(kind=kind, func=func)
