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

Pole guards.  field_eval refuses a point w (in summation coordinates) that
lies within POLE_GUARD of a ball element's pole line or of an orbit
preimage of a seed pole.  Each guard can fire only inside a small disk:
the first around the pole -d/c of an element, the centre of its isometric
circle (Ford, Automorphic Functions, 1929), the second around a preimage
-b'/a'.  A field builds a guard index once: the set of buckets, squares of
side 2^-8 keyed by (floor(2^8 Re w), floor(2^8 Im w)), that the bounding
squares of these disks meet.  A point whose bucket is not in the set skips
the checks and goes straight to the sums.  The disks include the float
guards' rounding and are then doubled (see _guard_index), so a skipped
check could not have fired: every value and every raise is the one the
checks give.  A point in an indexed bucket, a non-finite point, and one so
far out that the guard arithmetic could overflow run the checks as
before.  A field keeps no index, and checks every point, when some guard
can fire far from its centre (a preimage guard with
|a'| <= 2 POLE_GUARD |c|, a' = 0 included), when some disk is not below
the bucket width, or when an affine element (c = 0) has |d| < POLE_GUARD.
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

# Guard index (see "Pole guards" above): buckets per unit length, a power of
# two so that a point's bucket key is exact.
_BUCKETS_PER_UNIT = 256.0
# Rounding slack of a guard disk per unit of its centre's size: 128 units of
# roundoff u = 2^-53, four times the 32 that _guard_index derives.
_GUARD_SLACK = 2.0 ** -46
_NO_GUARD_INDEX = (0.0, frozenset())  # reach 0: every point runs the checks

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
    _guards: tuple = field(init=False, repr=False)  # (reach, buckets) of _guard_index

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
        a1, b1, a2, b2 = a - s1 * c, b - s1 * d, a - s2 * c, b - s2 * d
        object.__setattr__(self, "_arrays", (
            c, d, a1, b1, a2, b2, det ** WEIGHT, det ** (WEIGHT + 1),
        ))
        object.__setattr__(self, "_guards", _guard_index(c, d, ((a1, b1), (a2, b2))))

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
    denominator series is below DENOMINATOR_TOL in magnitude.  The two
    NearPole checks run only where the field's guard index says that they
    can fire (see "Pole guards" above).
    """
    if f.conjugation is not None:
        w = apply(f.conjugation, z)
        scale = derivative(f.conjugation, z)
    else:
        w = z
        scale = 1.0
    c, d, a1, b1, a2, b2, det_num, det_den = f._arrays
    reach, buckets = f._guards
    den = c * w + d
    if (abs(w.real) < reach and abs(w.imag) < reach
            and (math.floor(w.real * _BUCKETS_PER_UNIT),
                 math.floor(w.imag * _BUCKETS_PER_UNIT)) not in buckets):
        num_gap = a1 * w + b1  # no guard can fire here (see _guard_index)
        den_gap = a2 * w + b2
    else:
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


def _guard_index(c, d, seeds) -> tuple[float, frozenset]:
    """(reach, buckets) of field_eval's guard checks, or _NO_GUARD_INDEX.

    ``c`` and ``d`` are the ball's coefficient columns and ``seeds`` the
    folded (a', b') of each seed.  Write u = 2^-53 and e = POLE_GUARD.  A
    computed form alpha w + beta, with zero q = -beta/alpha and t = |w - q|,
    is within 4u (|alpha| |w| + |beta|) <= 4u (|alpha| t + 2 |beta|) of the
    exact one (Higham, Accuracy and Stability, Sec. 3.6: sqrt(2) gamma_2 for
    the complex product, u for the sum; a fused multiply-add only tightens
    it), and np.abs and the product e * size add an ulp each.

    Pole line, |cw + d| < e, around p = -d/c: it fires exactly for
    t < R = e/|c|, and in floats only for t < (1 + 6u)(R + 8u|p|).  When
    c = 0 the computed |d| is exact: no guard fires if |d| >= e, and every
    point fires otherwise, so such a field keeps no index.

    Orbit preimage, |a'w + b'| < e |cw + d|, around q = -b'/a': since
    a'd - b'c = det and |cq + d| = |det|/|a'|, it fires at most where
    |a'| t < e (|c| t + |det|/|a'|), which is the disk
    t < R = e |det| / (|a'|^2 (1 - rho)) with rho = e |c|/|a'| < 1.  This
    disk holds the exact guard's Apollonius disk and touches it on the
    side away from the pole -d/c.  For rho < 1/2 the rounding, that of
    the computed det and q included, moves the edge to at most
    (1 + 16u)(R + 32u (|q| + e |d|/|a'|)).  For rho >= 1/2 (a' = 0
    included) the guard reaches far from q, and the field keeps no index.

    Each disk is given the radius 2 (R + _GUARD_SLACK s), where s is |p|,
    or |q| + e |d|/|a'|: twice any reach of the computed guard, and more
    than 2^8 ulps of the centre, so that the rounded bounding square still
    holds that reach.  Subnormal rounding, below 2^-1070 per operation, is
    far inside the doubling.  Every radius must be finite and below the
    bucket width 2^-8, else there is no index.  So a square meets at most
    3 x 3 buckets, and a centre is below 2^37 in size.  ``reach`` bounds
    |Re w| and |Im w| so that no guard product or sum overflows.
    """
    size_c = np.abs(c)
    affine = c == 0
    if (np.abs(d[affine]) < POLE_GUARD).any():
        return _NO_GUARD_INDEX
    pole = -d[~affine] / c[~affine]
    buckets = _bucket_keys(pole, POLE_GUARD / size_c[~affine] + _GUARD_SLACK * np.abs(pole))
    if buckets is None:
        return _NO_GUARD_INDEX
    for a, b in seeds:  # one series at a time, to keep the temporaries small
        size_a = np.abs(a)
        if not (2.0 * POLE_GUARD * size_c < size_a).all():  # rho < 1/2, a' = 0 included
            return _NO_GUARD_INDEX
        preimage = -b / a
        rho = POLE_GUARD * size_c / size_a
        radius = (POLE_GUARD * np.abs(a * d - b * c) / (size_a * size_a * (1.0 - rho))
                  + _GUARD_SLACK * (np.abs(preimage) + POLE_GUARD * np.abs(d) / size_a))
        keys = _bucket_keys(preimage, radius)
        if keys is None:
            return _NO_GUARD_INDEX
        buckets |= keys
    largest = max(np.abs(x).max() for x in (c, d, *(x for pair in seeds for x in pair)))
    return 1e300 / (1.0 + largest), frozenset(buckets)


def _bucket_keys(centre, radius) -> set | None:
    """Keys of the buckets that the bounding squares of the disks of twice
    ``radius`` meet; None unless every doubled radius is below the width."""
    radius = 2.0 * radius
    if not (radius < 1.0 / _BUCKETS_PER_UNIT).all():  # NaN fails too
        return None
    i_lo, i_hi, j_lo, j_hi = (np.floor((part + r) * _BUCKETS_PER_UNIT).astype(np.int64)
                              for part in (centre.real, centre.imag) for r in (-radius, radius))
    keys = set()
    for di in range(3):
        for dj in range(3):
            meets = (i_lo + di <= i_hi) & (j_lo + dj <= j_hi)
            keys.update(zip((i_lo[meets] + di).tolist(), (j_lo[meets] + dj).tolist()))
    return keys


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


# A sample point is skipped where F, or F at its image, is not evaluable:
# flowlab's rule, which reads the same exceptions as NaN.
_NOT_EVALUABLE = (NearPole, PoleHit, DenominatorVanishes, ZeroDivisionError)


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
            except _NOT_EVALUABLE:
                continue
            for g, found in zip(generators, residuals):  # against the original maps
                try:
                    found.append(_law_defect(f, g, z, fz))
                except _NOT_EVALUABLE:  # z or g(z) on a pole of a map or of F
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
