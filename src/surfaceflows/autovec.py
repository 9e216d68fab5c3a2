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
around the denominator pole.  Where the guard checks run, each seed is
folded into the coefficients and a term costs one division; elsewhere
both series are summed in pole form, each term a rational function of w
whose poles are found when the field is built, and one reciprocal per
ball element serves both series (see field_eval).

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
squares of these disks meet.  The disks include the float guards'
rounding and are then doubled (see _guard_index), so a check skipped
outside them could not have fired.  So field_eval has two branches.  A
point in an indexed bucket, a non-finite point, and one beyond the index's
reach run the checks and then the written-out sums: their values, and
every raise, are bit for bit those of a field that checks every point.
Any other point skips the checks and sums in pole form, within rounding of
the written-out sums; its distance from every pole bounds the pole form's
products and reciprocals, and the reach caps them from above, so nothing
overflows or underflows there.  A field keeps no index, and checks every
point, when some guard can fire far from its centre (a preimage guard
with |a'| <= 2 POLE_GUARD |c|, a' = 0 included), when some disk is not
below the bucket width, when an affine element (c = 0) has
|d| < POLE_GUARD, or when its poles or constants leave the pole form no
safe range.
"""

from __future__ import annotations

import cmath
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
_NO_GUARD_INDEX = (0.0, frozenset(), None)  # reach 0: every point runs the checks
# field_eval's unchecked branch keeps every product, reciprocal and sum in
# [2^-_EXPONENT_BUDGET, 2^_EXPONENT_BUDGET] (see _guard_index)
_EXPONENT_BUDGET = 1000

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
    _guards: tuple = field(init=False, repr=False)  # (reach, buckets, pole form) of _guard_index

    def __post_init__(self):
        for name in ("numerator_pole", "denominator_pole"):
            pole = complex(getattr(self, name))
            if not (math.isfinite(pole.real) and math.isfinite(pole.imag)):
                raise ValueError("seed pole must be finite")
            object.__setattr__(self, name, pole)
        a, b, c, d = self.ball.coeffs.T.copy()  # four contiguous columns
        det = a * d - b * c
        # seed s folded into the top row: T(w) - s = ((a - s c) w + (b - s d)) / (c w + d)
        seeds = [(a - s * c, b - s * d) for s in (self.numerator_pole, self.denominator_pole)]
        # the checked branch folds the seeds again per call, so the field keeps
        # the pole form in place of the folded columns
        object.__setattr__(self, "_arrays", (a, b, c, d, det))
        object.__setattr__(self, "_guards", _guard_index(c, d, det, seeds))

    def __call__(self, z: complex) -> complex:
        return field_eval(self, z)


def field_eval(f: AutomorphicField, z: complex) -> complex:
    """Evaluate the series ratio, in stabilized coordinates when present.

    Both series sum over the ball in canonical order.  With the seed s
    folded into the coefficients, a' = a - s c and b' = b - s d, the
    weight-m term H(Tw) T'(w)^m = det^m / ((cw + d)^(2m) (Tw - s)) becomes
    det^m / ((cw + d)^(2m - 1) (a'w + b')).  Raises NearPole when
    |cw + d| < POLE_GUARD (w near a ball element's pole line) or when
    |a'w + b'| < POLE_GUARD |cw + d|, which is |Tw - s| < POLE_GUARD (w near
    an orbit preimage of a seed pole, checked for the numerator seed
    first); raises DenominatorVanishes when the denominator series is below
    DENOMINATOR_TOL in magnitude, or when z is finite but so far out that
    the written-out terms overflow.  A non-finite z gives NaN.

    Two branches sum the same terms (see "Pole guards" above).  Where the
    field's guard index says that no check can fire, the terms are summed in
    pole form: cw + d = s u with u = w - p, p = -d/c and s = c (u = 1 and
    s = d when c = 0), and a'w + b' = a' v with v = w - q and q = -b'/a'.
    So the terms are kappa_2 / (u^3 v_1) and kappa_3 / (u^5 v_2), with
    kappa_m = det^m / (s^(2m - 1) a'), and one reciprocal
    r = 1 / (u^5 v_1 v_2) serves both: kappa_2 u^2 v_2 r and kappa_3 v_1 r.
    Elsewhere the checks run, and each written-out term costs one division.
    """
    if f.conjugation is not None:
        w = apply(f.conjugation, z)
        scale = derivative(f.conjugation, z)
    else:
        w = z
        scale = 1.0
    reach, buckets, pole_form = f._guards
    if (abs(w.real) < reach and abs(w.imag) < reach
            and (math.floor(w.real * _BUCKETS_PER_UNIT),
                 math.floor(w.imag * _BUCKETS_PER_UNIT)) not in buckets):
        affine, pole, preimage1, preimage2, kappa2, kappa3 = pole_form
        u = w - pole  # no guard can fire here, and nothing overflows (see _guard_index)
        u[affine] = 1.0
        v1 = w - preimage1
        v2 = w - preimage2
        u2 = u * u
        t = u2 * v2
        r = np.reciprocal(u2 * u * v1 * t)
        num = complex(np.dot(kappa2, t * r))
        den_sum = complex(np.dot(kappa3, v1 * r))
    else:
        a, b, c, d, det = f._arrays
        s1, s2 = f.numerator_pole, f.denominator_pole
        # far out the powers of cw + d overflow; the sums are then not finite
        with np.errstate(over="ignore", invalid="ignore"):
            den = c * w + d
            size = np.abs(den)
            if size.min() < POLE_GUARD:
                raise NearPole(f"z={w} is within {POLE_GUARD} of a ball element's pole line")
            guard = POLE_GUARD * size
            num_gap = (a - s1 * c) * w + (b - s1 * d)
            den_gap = (a - s2 * c) * w + (b - s2 * d)
            for gap in (num_gap, den_gap):
                if (np.abs(gap) < guard).any():
                    raise NearPole(f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole")
            den2 = den * den
            den3 = den2 * den  # (cw + d)^(2m - 1) for m = WEIGHT = 2; times den2 for m = 3
            num = complex((det ** WEIGHT / (den3 * num_gap)).sum())
            den_sum = complex((det ** (WEIGHT + 1) / (den3 * den2 * den_gap)).sum())
        if not (cmath.isfinite(num) and cmath.isfinite(den_sum)) and cmath.isfinite(z):
            # a finite point this far out has every term, and so the
            # denominator series, far below DENOMINATOR_TOL
            raise DenominatorVanishes(f"denominator series terms overflow at z={z}")
    if abs(den_sum) < DENOMINATOR_TOL:
        raise DenominatorVanishes(f"denominator series ~ {abs(den_sum):.3g} at z={z}")
    return num / den_sum / scale


def _guard_index(c, d, det, seeds) -> tuple:
    """(reach, buckets, pole form) of field_eval's branches, or _NO_GUARD_INDEX.

    ``c``, ``d`` and ``det`` are the ball's columns and determinants, and
    ``seeds`` the folded (a', b') of each seed.  Write u = 2^-53 and
    e = POLE_GUARD.  A computed form alpha w + beta, with zero
    q = -beta/alpha and t = |w - q|, is within
    4u (|alpha| |w| + |beta|) <= 4u (|alpha| t + 2 |beta|) of the exact one
    (Higham, Accuracy and Stability, Sec. 3.6: sqrt(2) gamma_2 for the
    complex product, u for the sum; a fused multiply-add only tightens it),
    and np.abs and the product e * size add an ulp each.

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
    3 x 3 buckets, and a centre is below 2^37 in size.

    Pole form.  Outside the indexed buckets w lies outside every doubled
    disk, so the computed |u| = |w - p| exceeds e/|c| and |v| = |w - q|
    exceeds the R above: the doubling covers the rounding of w - p and
    w - q.  In a row with c = 0, u = 1.  So every |u| and |v| is at least
    l, the least of these bounds (below 2^-9), and at most
    H = 2 reach + max(1, |p|, |q|).  The unchecked branch forms products of
    up to seven such factors, their reciprocal, and the terms
    kappa_2 / (u^3 v_1) and kappa_3 / (u^5 v_2).  With E = _EXPONENT_BUDGET
    and n the ball's size, all of them and the sums lie in [2^-E, 2^E], to
    within their rounding, when
        l^7 >= 2^-E,   n max|kappa| l^-6 <= 2^E,
        H^7 <= 2^E,    min|kappa| H^-6 >= 2^-E.
    That range leaves 2^24 below overflow and 2^22 above the subnormals,
    so no value is infinite, NaN or zero, and each operation rounds as in
    the normal range: a component that underflows errs by at most 2^-1074,
    2^-74 of its modulus, and Smith's reciprocal (np.reciprocal) forms no
    intermediate larger than its result.  The first two conditions are
    properties of the field: if one fails there is no index.  The last two
    cap H, and with it ``reach``, which also bounds |Re w| and |Im w| so
    that no guard product or sum overflows.
    """
    size_c = np.abs(c)
    affine = c == 0
    if (np.abs(d[affine]) < POLE_GUARD).any():
        return _NO_GUARD_INDEX
    if not all((2.0 * POLE_GUARD * size_c < np.abs(a)).all() for a, _ in seeds):
        return _NO_GUARD_INDEX  # rho >= 1/2 somewhere, a' = 0 included
    # The pole form comes first: made before the bucket keys' temporaries,
    # the arrays that the field keeps do not hold the heap's top up.
    rows = np.flatnonzero(affine)  # where u = 1
    poles = np.zeros_like(c)
    poles[~affine] = -d[~affine] / c[~affine]
    preimages = [-b / a for a, b in seeds]
    kappas = [det ** m / (np.where(affine, d, c) ** (2 * m - 1) * a)  # cw + d = s u
              for m, (a, _) in enumerate(seeds, WEIGHT)]
    pole = poles[~affine]
    line = POLE_GUARD / size_c[~affine]
    buckets = _bucket_keys(pole, line + _GUARD_SLACK * np.abs(pole))
    if buckets is None:
        return _NO_GUARD_INDEX
    low = line.min(initial=1.0)
    centre = np.abs(pole).max(initial=1.0)
    for (a, b), preimage in zip(seeds, preimages):  # one series at a time: small temporaries
        size_a = np.abs(a)
        rho = POLE_GUARD * size_c / size_a
        apollonius = POLE_GUARD * np.abs(a * d - b * c) / (size_a * size_a * (1.0 - rho))
        keys = _bucket_keys(preimage, apollonius + _GUARD_SLACK * (
            np.abs(preimage) + POLE_GUARD * np.abs(d) / size_a))
        if keys is None:
            return _NO_GUARD_INDEX
        buckets |= keys
        low = min(low, apollonius.min())
        centre = max(centre, np.abs(preimage).max())
    k_lo = min(np.abs(kappa).min() for kappa in kappas)
    k_hi = max(np.abs(kappa).max() for kappa in kappas)
    e = _EXPONENT_BUDGET
    if not (low > 0.0 and k_lo > 0.0 and 7 * math.log2(low) >= -e
            and math.log2(len(c)) + math.log2(k_hi) - 6 * math.log2(low) <= e):
        return _NO_GUARD_INDEX
    cap = 2.0 ** min(e / 7, (e + math.log2(k_lo)) / 6)  # the largest H
    largest = max(np.abs(x).max() for x in (c, d, *(x for pair in seeds for x in pair)))
    reach = min(1e300 / (1.0 + largest), (cap - centre) / 2)
    return reach, frozenset(buckets), (rows, poles, *preimages, *kappas)


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
