"""Evaluable vector fields: truncated group-orbit series and canonical planar fields.

The series construction: for a seed H(z) = 1/(z - s) and weight m, the
orbit sum

    Theta_m[H](z) = sum over ball elements T of H(Tz) * (T'(z))^m

transforms with weight m under the group, so the ratio of a weight-m and a
weight-(m+1) series transforms with the single-derivative multiplier of a
vector field: F(Tz) = T'(z) F(z).  Truncation to a finite word-length ball
makes that law approximate; the residual is always measured, never assumed.

One field kernel. ``AutomorphicField`` holds the ball and the two seed
poles; ``field_eval`` sums both series over it, the numerator at weight
WEIGHT around the numerator pole and the denominator at weight WEIGHT + 1
around the denominator pole.  Each seed is folded into the coefficients
when the field is built, so a term costs one division (see field_eval).

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
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DenominatorVanishes, NearPole, PoleHit
from .moebius import GroupBall, MoebiusMap, apply, derivative, enumerate_ball, exact_int

POLE_GUARD = 1e-6
DENOMINATOR_TOL = 1e-10
RESIDUAL_EPS = 1e-9
WEIGHT = 2  # numerator weight; the denominator series has weight WEIGHT + 1
# (field_eval writes out the powers of cw + d for this value)
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
        a, b, c, d = self.ball.coeffs.T.copy()  # four contiguous columns
        det = a * d - b * c
        s1, s2 = self.numerator_pole, self.denominator_pole
        # seed s folded into the top row: T(w) - s = ((a - s c) w + (b - s d)) / (c w + d)
        object.__setattr__(self, "_arrays", (
            c, d, a - s1 * c, b - s1 * d, a - s2 * c, b - s2 * d,
            det ** WEIGHT, det ** (WEIGHT + 1),
        ))

    def __call__(self, z: complex) -> complex:
        return field_eval(self, z)


def field_eval(f: AutomorphicField, z: complex) -> complex:
    """Evaluate the series ratio, in stabilized coordinates when present.

    Both series sum over the ball in canonical order.  With the seed s
    folded into the coefficients, a' = a - s c and b' = b - s d, the
    weight-m term H(Tw) T'(w)^m = det^m / ((cw + d)^(2m) (Tw - s)) becomes
    det^m / ((cw + d)^(2m - 1) (a'w + b')): one division, no complex power.
    Raises NearPole when |cw + d| < POLE_GUARD (w near a ball element's
    pole line) or when |a'w + b'| < POLE_GUARD |cw + d|, which is
    |Tw - s| < POLE_GUARD (w near an orbit preimage of a seed pole, checked
    for the numerator seed first); raises DenominatorVanishes when the
    denominator series is below DENOMINATOR_TOL in magnitude.
    """
    if f.conjugation is not None:
        w = apply(f.conjugation, z)
        scale = derivative(f.conjugation, z)
    else:
        w = z
        scale = 1.0
    c, d, a1, b1, a2, b2, det_num, det_den = f._arrays
    den = c * w + d
    size = np.abs(den)
    if size.min() < POLE_GUARD:
        raise NearPole(f"z={w} is within {POLE_GUARD} of a ball element's pole line")
    guard = POLE_GUARD * size
    num_gap = a1 * w + b1
    den_gap = a2 * w + b2
    for gap in (num_gap, den_gap):
        if (np.abs(gap) < guard).any():
            raise NearPole(f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole")
    den2 = den * den
    den3 = den2 * den  # (cw + d)^(2m - 1) for m = WEIGHT = 2; times den2 for m = 3
    num = complex((det_num / (den3 * num_gap)).sum())
    den_sum = complex((det_den / (den3 * den2 * den_gap)).sum())
    if abs(den_sum) < DENOMINATOR_TOL:
        raise DenominatorVanishes(f"denominator series ~ {abs(den_sum):.3g} at z={z}")
    return num / den_sum / scale


def equivariance_residual(f: AutomorphicField, m: MoebiusMap, z: complex) -> float:
    """Relative defect of the transformation law F(mz) = m'(z) F(z) at z."""
    return _law_defect(f, m, z, field_eval(f, z))


def _law_defect(f: AutomorphicField, m: MoebiusMap, z: complex, fz: complex) -> float:
    """``equivariance_residual`` at z, given fz = F(z)."""
    fmz = field_eval(f, apply(m, z))
    return abs(fmz - derivative(m, z) * fz) / (abs(fz) + RESIDUAL_EPS)


def ball_has_affine_element(ball: GroupBall) -> bool:
    """True when any non-identity ball element fixes the point at infinity."""
    return bool((np.abs(ball.coeffs[1:, 2]) <= _AFFINE_C_TOL).any())  # row 0 is the identity


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
    raw_ball = enumerate_ball(tuple(generators), truncation)
    return _field_on_ball(raw_ball, numerator_pole, denominator_pole)


def _field_on_ball(raw_ball: GroupBall, numerator_pole, denominator_pole) -> AutomorphicField:
    if ball_has_affine_element(raw_ball):
        return AutomorphicField(
            raw_ball.conjugated(CAYLEY_DISK),
            apply(CAYLEY_DISK, complex(numerator_pole)),
            apply(CAYLEY_DISK, complex(denominator_pole)),
            CAYLEY_DISK,
        )
    return AutomorphicField(raw_ball, complex(numerator_pole), complex(denominator_pole))


def equivariance_report(
    generators,
    numerator_pole: complex,
    denominator_pole: complex,
    truncation: int = DEFAULT_TRUNCATION,
    sample_points=None,
) -> dict:
    """Per-generator median residuals at the requested truncation and one below.

    This is the convergence evidence for a truncated field: residuals are
    reported, not assumed small.  The ball is enumerated once; the smaller
    one is its prefix, and each radius decides stabilization on its own
    raw ball, as build_automorphic_field does.  F is evaluated once per
    sample point and radius, and that value serves every generator.
    """
    generators = tuple(generators)
    truncation = exact_int(truncation, "truncation")
    if sample_points is None:
        sample_points = EQUIVARIANCE_SAMPLE
    sample_points = [complex(z) for z in sample_points]
    radii = [truncation] + ([truncation - 1] if truncation >= 1 else [])
    report: dict = {
        "weights": [WEIGHT, WEIGHT + 1],
        "sample_points": [[z.real, z.imag] for z in sample_points],
        "truncations": {},
    }
    raw_ball = enumerate_ball(generators, truncation)
    for radius in radii:
        f = _field_on_ball(raw_ball.truncated(radius), numerator_pole, denominator_pole)
        residuals = [[] for _ in generators]
        for z in sample_points:
            try:
                fz = field_eval(f, z)
            except (NearPole, PoleHit):
                continue
            for g, found in zip(generators, residuals):  # against the original maps
                try:
                    found.append(_law_defect(f, g, z, fz))
                except (NearPole, PoleHit):  # z or g(z) on a pole
                    continue
        report["truncations"][str(radius)] = {
            "ball_size": len(f.ball),
            "stabilized": f.conjugation is not None,
            "per_generator": {
                f"g{gi}": {
                    "median_residual": float(np.median(found)) if found else None,
                    "points_used": len(found),
                }
                for gi, found in enumerate(residuals, 1)
            },
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
    """Planar field evaluated as a complex number u + iv at z = x + iy.

    Calling the field calls ``func`` itself: F(z) is func(z), with no
    coercion of z and no Python frame in between, so a caller passes a Python
    complex (every library caller does).  ``on_array``, when given, is the
    same field on a complex ndarray, elementwise; flowlab's grid scans and
    winding loops then evaluate a whole scan in one call.  A field without it
    is evaluated point by point.
    """

    kind: str
    func: Callable[[complex], complex]
    params: tuple = ()
    on_array: Callable[[np.ndarray], np.ndarray] | None = None

    __call__ = property(operator.attrgetter("func"))


def pendulum_field(k: float) -> PlanarField:
    """(theta, omega) -> (omega, -k sin theta) with k the gravity/length ratio."""
    if not k > 0:
        raise ValueError("k must be positive")

    def f(z: complex) -> complex:
        return complex(z.imag, -k * math.sin(z.real))

    def f_array(z: np.ndarray) -> np.ndarray:
        # math.sin on scalars: np.sin on one float costs about 1 us a call
        return z.imag - 1j * (k * np.sin(z.real))

    return PlanarField(kind="pendulum", func=f, params=(("k", float(k)),), on_array=f_array)


# each expression serves a complex scalar and a complex array alike
_CANONICAL = {
    "saddle": lambda z: z.conjugate(),
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
    return PlanarField(kind=kind, func=func, on_array=func)
