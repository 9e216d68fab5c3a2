import cmath
import functools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfaceflows.autovec import (
    _BUCKETS_PER_UNIT,
    _NO_GUARD_INDEX,
    CAYLEY_DISK,
    DENOMINATOR_TOL,
    EQUIVARIANCE_SAMPLE,
    CANONICAL_KINDS,
    POLE_GUARD,
    AutomorphicField,
    PlanarField,
    ball_has_affine_element,
    build_automorphic_field,
    canonical_field,
    equivariance_report,
    equivariance_residual,
    field_eval,
    pendulum_field,
)
from surfaceflows.errors import DenominatorVanishes, NearPole
from surfaceflows.flowlab import find_zeros
from surfaceflows.moebius import (
    GroupBall,
    MoebiusMap,
    apply,
    compose,
    derivative,
    enumerate_ball,
    inverse,
)

from conftest import (
    DENOMINATOR_POLE,
    GENUS2_GENERATORS,
    NUMERATOR_POLE,
    assert_array_form_matches,
)

S1 = NUMERATOR_POLE
S2 = DENOMINATOR_POLE


def trivial_ball():
    return enumerate_ball([GENUS2_GENERATORS[0]], 0)


class TestThetaSeries:
    """The two orbit series, observed through the one field kernel."""

    def test_identity_ball_is_plain_seed(self):
        # one term per series: F = (1/(z - s1)) / (1/(z - s2))
        f = AutomorphicField(trivial_ball(), 1 + 2j, S2)
        for z in (0.0, 3.0 - 1j, -2.5 + 0.5j):
            assert field_eval(f, z) == pytest.approx((z - S2) / (z - (1 + 2j)), rel=1e-15)

    def test_seed_value_at_origin(self):
        f = AutomorphicField(trivial_ball(), S1, S2)
        assert field_eval(f, 0.0) == pytest.approx(S2 / S1, rel=1e-15)

    def test_near_pole_guard(self):
        f = AutomorphicField(trivial_ball(), S1, S2)
        for seed_pole in (S1, S2):
            with pytest.raises(NearPole, match="orbit preimage of the seed pole"):
                field_eval(f, seed_pole + 1e-8)
        # the ball element z -> -1/(z + 4) has its pole at -4
        g = AutomorphicField(enumerate_ball([GENUS2_GENERATORS[1]], 1), S1, S2)
        with pytest.raises(NearPole, match="pole line"):
            field_eval(g, -4 + 1e-8)

    def test_vanishing_denominator_series(self):
        # the one-term denominator series is 1/(z - s2), about 1e-11 at z = 1e11
        f = build_automorphic_field(GENUS2_GENERATORS, S1, S2, truncation=0)
        with pytest.raises(DenominatorVanishes, match="denominator series"):
            field_eval(f, 1e11)

    def test_seed_poles_must_be_finite(self):
        for poles in ((complex("inf"), S2), (S1, complex("nan"))):
            with pytest.raises(ValueError, match="seed pole must be finite"):
                AutomorphicField(trivial_ball(), *poles)

    def test_truncation_increments_shrink(self, demo_field):
        # summing deeper shells changes the field less and less (median
        # relative change over the equivariance sample, stabilized field)
        values = [[demo_field(r)(z) for z in EQUIVARIANCE_SAMPLE] for r in range(1, 5)]
        increments = [
            float(np.median([abs(b - a) / abs(b) for a, b in zip(v0, v1)]))
            for v0, v1 in zip(values, values[1:])
        ]
        assert increments[2] < increments[1] < increments[0]

    def test_deterministic_bit_identical(self):
        ball = enumerate_ball(GENUS2_GENERATORS, 2)
        first = field_eval(AutomorphicField(ball, S1, S2), 0.7 + 1.3j)
        again = field_eval(AutomorphicField(ball, S1, S2), 0.7 + 1.3j)
        assert first == again


class TestAutomorphicField:
    def test_one_term_field_matches_simplified_ratio(self):
        # sympy oracle: the trivial-ball ratio reduces to (z-s2)/(z-s1)
        import sympy

        zs = sympy.symbols("z")
        h1 = 1 / (zs - sympy.nsimplify(S1))
        h2 = 1 / (zs - sympy.nsimplify(S2))
        closed = sympy.simplify(h1 / h2)
        assert sympy.simplify(closed - (zs - S2) / (zs - S1)) == 0
        oracle = sympy.lambdify(zs, closed)

        f = build_automorphic_field([GENUS2_GENERATORS[0]], S1, S2, truncation=0)
        assert f.conjugation is None  # trivial ball: nothing to stabilize
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = rng.uniform(-3, 3), rng.uniform(0.2, 4)
            z = complex(x, y)
            assert field_eval(f, z) == pytest.approx(complex(oracle(z)), abs=1e-12)

    def test_no_generators_gives_the_one_term_field(self):
        # the ball of the trivial group is the identity at every truncation
        f = build_automorphic_field([], S1, S2, truncation=3)
        assert len(f.ball) == 1
        for z in (0.3 + 2.5j, -1.1 + 0.9j):
            assert field_eval(f, z) == pytest.approx((z - S2) / (z - S1), abs=1e-12)

    def test_demo_field_is_stabilized(self, demo_field):
        f = demo_field(4)
        assert f.conjugation is not None
        assert len(f.ball) == 3201
        raw_ball = enumerate_ball(GENUS2_GENERATORS, 1)
        assert ball_has_affine_element(raw_ball)

    @pytest.mark.parametrize("generators, truncation", [(GENUS2_GENERATORS, 4),
                                                        (GENUS2_GENERATORS[:3], 3)])
    def test_matches_independent_orbit_sum(self, generators, truncation):
        # oracle: per-element sums of H(Tw) * T'(w)^m with moebius.apply and
        # moebius.derivative, pulled back through the conjugation if any
        f = build_automorphic_field(generators, S1, S2, truncation=truncation)
        assert (f.conjugation is not None) == (truncation == 4)
        conj = f.conjugation or MoebiusMap.identity()
        s1, s2 = apply(conj, S1), apply(conj, S2)
        for z in (0.3 + 2.5j, -1.1 + 0.9j, 1.7 + 3.2j, 0.05 + 0.4j):
            w = apply(conj, z)
            num = den = 0j
            for t in f.ball.maps():
                tw, dt = apply(t, w), derivative(t, w)
                num += dt ** 2 / (tw - s1)
                den += dt ** 3 / (tw - s2)
            expected = num / den / derivative(conj, z)
            assert field_eval(f, z) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "generators, radius",
        [(GENUS2_GENERATORS, r) for r in range(5)] + [(GENUS2_GENERATORS[:3], 3)],
    )
    def test_conjugated_ball_matches_enumeration(self, generators, radius):
        # conjugating the raw ball's elements gives the ball of the
        # conjugated generators: same words, coefficients to rounding
        moved = tuple(compose(compose(CAYLEY_DISK, g), inverse(CAYLEY_DISK)) for g in generators)
        expected = enumerate_ball(moved, radius)
        got = enumerate_ball(generators, radius).conjugated(CAYLEY_DISK)
        assert got.generators == expected.generators
        assert got.words() == expected.words()
        for m, n in zip(got.maps(), expected.maps()):
            scale = max(abs(x) for x in n.coeffs())
            assert max(abs(x - y) for x, y in zip(m.coeffs(), n.coeffs())) <= 1e-12 * scale

    def test_zero_and_pole_visible(self, demo_field):
        # the field drops near its zero and blows up near its pole
        f = demo_field(4)
        def circle_min(center):
            return min(
                abs(field_eval(f, center + 0.05 * complex(math.cos(a), math.sin(a))))
                for a in np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
            )
        at_zero = circle_min(S2)
        at_pole = circle_min(S1)
        controls = [circle_min(c) for c in (0 + 3j, 0.5 + 2j, -1 + 1.5j)]
        assert all(at_zero * 10 <= c for c in controls)
        assert all(at_pole >= 10 * c for c in controls)

    def test_field_determinism(self, demo_field):
        f = demo_field(2)
        z = 0.8 + 1.7j
        assert field_eval(f, z) == field_eval(f, z)


class TestEquivariance:
    def test_identity_residual_exactly_zero(self, demo_field):
        f = demo_field(2)
        for z in (1j, 0.5 + 2j, -1.2 + 1.1j):
            assert equivariance_residual(f, MoebiusMap.identity(), z) == 0.0

    def test_one_term_identity_residual_zero(self):
        f = build_automorphic_field([GENUS2_GENERATORS[0]], S1, S2, truncation=0)
        assert equivariance_residual(f, MoebiusMap.identity(), 0.4 + 1.5j) == 0.0

    def test_median_residual_trend(self, demo_field):
        # nonincreasing per generator from L to L+1 for L = 1..3, with 10%
        # slack per step for truncation noise
        medians = {}
        for radius in (1, 2, 3, 4):
            f = demo_field(radius)
            for g in GENUS2_GENERATORS:
                rs = [equivariance_residual(f, g, z) for z in EQUIVARIANCE_SAMPLE]
                medians[(radius, g)] = float(np.median(rs))
        for g in GENUS2_GENERATORS:
            for radius in (1, 2, 3):
                assert medians[(radius + 1, g)] <= 1.10 * medians[(radius, g)]

    def test_stabilization_decided_per_radius(self):
        # the radius-1 ball holds the affine generator, the radius-0 one not
        report = equivariance_report(GENUS2_GENERATORS, S1, S2, truncation=1, sample_points=[1j])
        assert report["truncations"]["1"]["stabilized"] is True
        assert report["truncations"]["0"]["stabilized"] is False

    @pytest.mark.parametrize("truncation", [1, 3])
    def test_report_matches_fields_built_per_radius(self, truncation):
        # one enumeration, sliced: the same medians, bit for bit, as
        # fields built at each radius on their own
        sample = EQUIVARIANCE_SAMPLE[:6]
        report = equivariance_report(GENUS2_GENERATORS, S1, S2, truncation, sample)
        for radius in (truncation, truncation - 1):
            f = build_automorphic_field(GENUS2_GENERATORS, S1, S2, radius)
            entry = report["truncations"][str(radius)]
            assert entry["ball_size"] == len(f.ball)
            for gi, g in enumerate(GENUS2_GENERATORS, 1):
                median = float(np.median([equivariance_residual(f, g, z) for z in sample]))
                assert entry["per_generator"][f"g{gi}"]["median_residual"] == median

    def test_report_evaluates_each_sample_point_once_per_radius(self, monkeypatch):
        # F(z) is shared by the four generators: per radius and point, one
        # evaluation at z and one at each g(z), 2 x 2 x (1 + 4) = 20 in all
        from surfaceflows import autovec

        calls = []
        evaluate = autovec.field_eval

        def counting(f, z):
            calls.append(z)
            return evaluate(f, z)

        monkeypatch.setattr(autovec, "field_eval", counting)
        equivariance_report(GENUS2_GENERATORS, S1, S2, truncation=1, sample_points=[1j, 1 + 2j])
        assert len(calls) == 2 * 2 * (1 + len(GENUS2_GENERATORS))
        assert calls.count(1j) == calls.count(1 + 2j) == 2

    def test_report_skips_a_sample_point_on_the_numerator_pole(self):
        # F is not evaluable at S1: the report reads as if S1 was not sampled
        with_pole = equivariance_report(GENUS2_GENERATORS, S1, S2, 1, [S1, 1j])
        without = equivariance_report(GENUS2_GENERATORS, S1, S2, 1, [1j])
        assert with_pole["truncations"] == without["truncations"]
        assert with_pole["truncations"]["1"]["per_generator"]["g1"]["points_used"] == 1

    def test_report_skips_a_sample_point_on_a_map_pole(self):
        # g2 = (0, -1, 1, 4) has its pole at -4, and the Cayley map of the
        # stabilized radius-1 field has its pole at -i: each skip drops only
        # what cannot be evaluated there
        report = equivariance_report(GENUS2_GENERATORS, S1, S2, 1, [-4, 1j, -1j])["truncations"]
        used = {r: [g["points_used"] for g in t["per_generator"].values()]
                for r, t in report.items()}
        assert report["1"]["stabilized"] and not report["0"]["stabilized"]
        assert used == {"1": [2, 1, 2, 2], "0": [3, 2, 3, 3]}
        without_minus_i = equivariance_report(GENUS2_GENERATORS, S1, S2, 1, [-4, 1j])
        assert report["1"] == without_minus_i["truncations"]["1"]

    def test_report_skips_a_sample_point_where_the_denominator_vanishes(self):
        # far out, the radius-0 series ratio has a denominator ~ 1e-11; at
        # 1e300 the stabilized radius-1 field divides by zero in the Cayley map
        for truncation, far in ((0, 1e11), (1, 1e300)):
            report = equivariance_report(GENUS2_GENERATORS, S1, S2, truncation, [far, 0.4 + 1j])
            without = equivariance_report(GENUS2_GENERATORS, S1, S2, truncation, [0.4 + 1j])
            assert report["truncations"] == without["truncations"]

    def test_report_structure(self):
        report = equivariance_report(
            GENUS2_GENERATORS, S1, S2, truncation=1, sample_points=[1j, 1 + 2j]
        )
        assert report["weights"] == [2, 3]
        assert set(report["truncations"]) == {"0", "1"}
        assert report["truncations"]["1"]["ball_size"] == 9
        assert report["truncations"]["0"]["ball_size"] == 1
        per_gen = report["truncations"]["1"]["per_generator"]
        assert set(per_gen) == {"g1", "g2", "g3", "g4"}
        assert all(v["median_residual"] is not None for v in per_gen.values())


def guard_disks(f):
    """Centre and radius of each disk where a guard of ``f`` fires in exact
    arithmetic: e/|c| around -d/c, and the Apollonius bound around -b'/a'."""
    a, b, c, d = f.ball.coeffs.T
    pole_line = c != 0
    centres = [-d[pole_line] / c[pole_line]]
    radii = [POLE_GUARD / np.abs(c[pole_line])]
    for s in (f.numerator_pole, f.denominator_pole):
        a1, b1 = a - s * c, b - s * d
        rho = POLE_GUARD * np.abs(c) / np.abs(a1)
        centres.append(-b1 / a1)
        radii.append(POLE_GUARD * np.abs(a * d - b * c) / (np.abs(a1) ** 2 * (1 - rho)))
    return np.concatenate(centres).tolist(), np.concatenate(radii).tolist()


def guarded_oracle(f, z):
    """field_eval's pole-form guards and sums, built from the ball's
    coefficients and run at every point: the NearPole message the guards
    give at z, or the ratio of the sums."""
    a, b, c, d = f.ball.coeffs.T
    w, scale = summation_point(f, z)
    leads, factors = [], []
    for slope, constant in [(c, d)] + [(a - s * c, b - s * d)
                                        for s in (f.numerator_pole, f.denominator_pole)]:
        flat = slope == 0  # slope w + constant is lead (w - pole), or lead alone
        pole = -constant / np.where(flat, 1.0, slope)
        leads.append(np.where(flat, constant, slope))
        factors.append(np.where(flat, 1.0, w - pole))
    (line, lead1, lead2), (u, v1, v2) = leads, factors
    if (np.abs(u) < POLE_GUARD / np.abs(line)).any():
        return f"z={w} is within {POLE_GUARD} of a ball element's pole line"
    for lead, v in ((lead1, v1), (lead2, v2)):
        if (np.abs(v) < POLE_GUARD * np.abs(line) / np.abs(lead) * np.abs(u)).any():
            return f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole"
    det = a * d - b * c
    u2 = u * u
    t = u2 * v2
    r = np.reciprocal(u2 * u * v1 * t)
    num = complex(np.dot(det ** 2 / (line ** 3 * lead1), t * r))
    den_sum = complex(np.dot(det ** 3 / (line ** 5 * lead2), v1 * r))
    assert abs(den_sum) >= DENOMINATOR_TOL
    return num / den_sum / scale


def written_out_guard(f, w):
    """The written-out guards at w, |cw + d| < e and then |a'w + b'| <
    e |cw + d| with the field's folds a' and b', decided in 40 digits: the
    NearPole message they give, or None; and whether w lies within 1e-6 of
    a guard's edge, a margin widened by the rounding of the pole form's
    stored poles p = -d/c and q = -b'/a'."""
    a, b, c, d = f.ball.coeffs.T
    forms = [(c, d)] + [(a - s * c, b - s * d) for s in (f.numerator_pole, f.denominator_pole)]
    line = np.abs(c * w + d)
    fired, edge = [False, False], False
    with mpmath.workdps(40):
        for kind, (alpha, beta) in enumerate(forms):
            bound = POLE_GUARD * (line if kind else 1.0)
            # elsewhere the float forms err by far less than half their size
            for i in np.flatnonzero(np.abs(alpha * w + beta) < 2 * bound).tolist():
                value = abs(mpmath.mpc(alpha[i]) * w + mpmath.mpc(beta[i]))
                size = abs(mpmath.mpc(c[i]) * w + mpmath.mpc(d[i])) if kind else 1
                margin = value / (POLE_GUARD * size)
                stored = [-d[i] / c[i]] if c[i] else []  # the p and q that the guard measures from
                if kind and alpha[i]:
                    stored.append(-beta[i] / alpha[i])
                edge |= abs(margin - 1) < 1e-6 + 8 * U * sum(abs(x / (w - x)) for x in stored)
                fired[min(kind, 1)] |= margin < 1
    if fired[0]:
        return f"z={w} is within {POLE_GUARD} of a ball element's pole line", edge
    if fired[1]:
        return f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole", edge
    return None, edge


def summation_point(f, z):
    """The point w at which field_eval sums the series, and its scale."""
    if f.conjugation is None:
        return z, 1.0
    return apply(f.conjugation, z), derivative(f.conjugation, z)


def takes_the_checks(f, z):
    """Whether field_eval runs the guard checks at z: w in an indexed
    bucket, past the reach, or not finite."""
    w = summation_point(f, z)[0]
    reach, buckets = f._guards
    return not (abs(w.real) < reach and abs(w.imag) < reach
                and (math.floor(w.real * _BUCKETS_PER_UNIT),
                     math.floor(w.imag * _BUCKETS_PER_UNIT)) not in buckets)


@functools.cache
def exact_rows(f):
    """Per ball element, 40-digit c, d, the folded a', b' of both seeds, det^2
    and det^3, from the field's float coefficients and seeds."""
    with mpmath.workdps(40):
        s1, s2 = mpmath.mpc(f.numerator_pole), mpmath.mpc(f.denominator_pole)
        rows = []
        for a, b, c, d in f.ball.coeffs.tolist():
            a, b, c, d = (mpmath.mpc(x) for x in (a, b, c, d))
            det = a * d - b * c
            rows.append((c, d, a - s1 * c, b - s1 * d, a - s2 * c, b - s2 * d, det ** 2, det ** 3))
    return rows


def exact_sums_40(f, w):
    """The numerator and denominator series at w, summed in 40 digits."""
    with mpmath.workdps(40):
        w = mpmath.mpc(w)
        num, den = [], []
        for c, d, a1, b1, a2, b2, det2, det3 in exact_rows(f):
            line = c * w + d
            line2 = line * line
            line3 = line2 * line
            num.append(det2 / (line3 * (a1 * w + b1)))
            den.append(det3 / (line3 * line2 * (a2 * w + b2)))
        return complex(mpmath.fsum(num)), complex(mpmath.fsum(den))


# Double-double arithmetic, on numpy arrays: a real is a pair (hi, lo) of
# doubles whose sum is its value, and a complex is a pair (re, im) of reals.
# Dekker's split and product are exact while nothing overflows or underflows
# (Dekker, Numer. Math. 18, 1971), and a sum or product of pairs errs by
# about 2^-104 of its operands' size (Hida, Li & Bailey, ARITH 15, 2001).

_DEKKER_SPLIT = 2.0 ** 27 + 1


def _two_sum(a, b):
    """s + e = a + b exactly, with s = fl(a + b)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """s + e = a + b, exactly where |a| >= |b|, with s = fl(a + b)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """hi + lo = a exactly, each with at most 26 significant bits."""
    t = _DEKKER_SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b, a_parts, b_parts):
    """p + e = a b exactly, with p = fl(a b), from the splits of a and b."""
    p = a * b
    (ah, al), (bh, bl) = a_parts, b_parts
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _dd_sub(x, y):
    return _dd_add(x, (-y[0], -y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0], _split(x[0]), _split(y[0]))
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_cadd(x, y):
    return _dd_add(x[0], y[0]), _dd_add(x[1], y[1])


def _dd_csub(x, y):
    return _dd_sub(x[0], y[0]), _dd_sub(x[1], y[1])


def _dd_cmul(x, y):
    (xr, xi), (yr, yi) = x, y
    return (_dd_sub(_dd_mul(xr, yr), _dd_mul(xi, yi)),
            _dd_add(_dd_mul(xr, yi), _dd_mul(xi, yr)))


def _dd_cmul_double(x, q):
    """A complex double-double times a complex double array q."""
    q = q.real, q.imag
    x_parts, q_parts = [_split(v[0]) for v in x], [_split(v) for v in q]

    def product(i, j):
        p, e = _two_prod(x[i][0], q[j], x_parts[i], q_parts[j])
        return p, e + x[i][1] * q[j]

    return _dd_sub(product(0, 0), product(1, 1)), _dd_add(product(0, 1), product(1, 0))


def _dd(z):
    """Complex double array as a complex double-double."""
    zero = np.zeros(np.shape(z))
    return (np.real(z) + zero, zero), (np.imag(z) + zero, zero)


def _dd_join(x, y):
    return tuple(tuple(np.concatenate(pair) for pair in zip(*parts)) for parts in zip(x, y))


@functools.cache
def double_double_rows(f):
    """Per ball element, the field's c, d and, for the numerator seed then
    the denominator seed, the folded a', b' and det^2, det^3, as complex
    double-doubles from the float coefficients and seeds."""
    a, b, c, d = (_dd(x) for x in f.ball.coeffs.T)
    det = _dd_csub(_dd_cmul(a, d), _dd_cmul(b, c))
    det2 = _dd_cmul(det, det)
    (a1, b1), (a2, b2) = [(_dd_csub(a, _dd_cmul(seed, c)), _dd_csub(b, _dd_cmul(seed, d)))
                          for seed in (_dd(np.full(len(f.ball.coeffs), complex(s)))
                                       for s in (f.numerator_pole, f.denominator_pole))]
    return c, d, _dd_join(a1, a2), _dd_join(b1, b2), _dd_join(det2, _dd_cmul(det2, det))


def double_double_sums(f, w):
    """The numerator and denominator series at w in double-double.  Each
    term t = det^m / (L^(2m-1) G) is a high part, the quotient in doubles,
    plus a low part, the double-double remainder divided once more, and one
    math.fsum per part rounds the exact sum of every term's two parts once.
    A term errs by about 2^-98 of its size, times the conditioning of L and
    G (k_L and k_G in sum_error_bound), so a sum is right to the last bit
    while its condition number sum |t| / |Re or Im sum t| stays below
    about 2^40.

    None where that is not vouched for: where the condition number is
    larger, or where a split or product overflows (above about 2^996) or
    underflows, which np.errstate turns into a FloatingPointError.
    """
    c, d, fold_a, fold_b, powers = double_double_rows(f)
    n = len(c[0][0])
    w = complex(w)
    try:
        with np.errstate(all="raise"):
            line = _dd_cadd(_dd_cmul(c, _dd(np.full(n, w))), d)
            line2 = _dd_cmul(line, line)
            line3 = _dd_cmul(line2, line)
            gap = _dd_cadd(_dd_cmul_double(fold_a, np.full(2 * n, w)), fold_b)
            first, second = (tuple((x[0][half], x[1][half]) for x in gap)
                             for half in (slice(None, n), slice(n, None)))
            y = _dd_cmul(_dd_join(line3, line3), _dd_join(first, _dd_cmul(line2, second)))
            y_hi = y[0][0] + 1j * y[1][0]
            high = (powers[0][0] + 1j * powers[1][0]) / y_hi
            rest = _dd_csub(powers, _dd_cmul_double(y, high))
            low = (rest[0][0] + 1j * rest[1][0]) / y_hi
    except FloatingPointError:
        return None
    sums = []
    for half in (slice(None, n), slice(n, None)):
        terms = np.concatenate([high[half], low[half]])
        total = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        if np.abs(high[half]).sum() > 2.0 ** 40 * min(abs(total.real), abs(total.imag)):
            return None
        sums.append(total)
    return tuple(sums)


def exact_sums(f, w):
    """The numerator and denominator series at w, to within an ulp of the
    exact sums: in double-double where that is vouched for, else in 40
    digits."""
    return double_double_sums(f, w) or exact_sums_40(f, w)


U = 2.0 ** -53  # unit roundoff


def sum_error_bound(f, w, exact_num, exact_den):
    """Bound on the relative error of F = num / den / scale at w, as
    field_eval sums it, given the exact sums.

    A weight-m term is t = det^m / (L^(2m-1) G), with L = cw + d and
    G = a'w + b'.  field_eval computes L as c (w - p) with p = -d/c (as d
    where c = 0), G as a' (w - q) with q = -b'/a' (as b' where a' = 0), and
    det and the folded a', b' from the float coefficients.  A complex product
    errs by at most sqrt(2) gamma_2 < 3u and, we take, a quotient or
    reciprocal by at most 7u (Higham, Accuracy and Stability, Sec. 3.6).  So
    L errs by at most 8u k_L, with k_L = (|c||w| + |d|)/|L|; G, with a' and
    q, by at most 16u k_G, with
    k_G = ((|a| + |s||c|)(|w| + |G|/|a'|) + |b| + |s||d|)/|G|; and det by
    4u k_det, with k_det = (|a||d| + |b||c|)/|det|.  The fixed chain of
    products, powers and quotients of the pole form adds less than 64u.  So a
    computed term errs by at most
        delta = u (64 + 8 (2m - 1) k_L + 16 k_G + 4 m k_det)
    of itself.  Summing n terms in any order, pairwise or in a BLAS dot, adds
    at most gamma_n = nu / (1 - nu) of sum |t| (Higham, Sec. 4.2).  A sum
    therefore errs by at most e = sum |t| (delta + gamma_n) / |sum t|, the
    condition number sum |t| / |sum t| weighted by the terms' errors.  The
    ratio errs by at most (e_num + e_den) / (1 - e_den), and its two
    divisions add 14u.
    """
    a, b, c, d = f.ball.coeffs.T
    det = a * d - b * c
    line = np.abs(c * w + d)
    k_line = (np.abs(c) * abs(w) + np.abs(d)) / line
    k_det = (np.abs(a * d) + np.abs(b * c)) / np.abs(det)
    gamma = len(c) * U / (1 - len(c) * U)
    errors = []
    for m, s, exact in ((2, f.numerator_pole, exact_num), (3, f.denominator_pole, exact_den)):
        a1 = np.abs(a - s * c)
        gap = np.abs((a - s * c) * w + (b - s * d))
        k_gap = ((np.abs(a) + abs(s) * np.abs(c))  # no q, and no |G|/|a'|, where a' = 0
                 * (abs(w) + np.divide(gap, a1, out=np.zeros_like(gap), where=a1 > 0))
                 + np.abs(b) + abs(s) * np.abs(d)) / gap
        size = np.abs(det) ** m / (line ** (2 * m - 1) * gap)
        delta = U * (64 + 8 * (2 * m - 1) * k_line + 16 * k_gap + 4 * m * k_det)
        errors.append(float((size * (delta + gamma)).sum()) / abs(exact))
    e_num, e_den = errors
    return (e_num + e_den) / (1 - e_den) + 14 * U


def assert_near_exact(f, z, *values):
    """Each value is within sum_error_bound of F(z) summed in 40 digits."""
    w, scale = summation_point(f, z)
    num, den = exact_sums(f, w)
    exact = num / den / scale
    bound = sum_error_bound(f, w, num, den)
    for value in values:
        assert abs(value - exact) <= bound * abs(exact), (z, value, exact, bound)


def assert_matches_oracle(f, z):
    """field_eval raises NearPole with the oracle's message, or returns the
    oracle's value exactly, within sum_error_bound of the 40-digit sums."""
    want = guarded_oracle(f, z)
    if isinstance(want, str):
        with pytest.raises(NearPole) as raised:
            field_eval(f, z)
        assert str(raised.value) == want
    else:
        got = field_eval(f, z)
        assert got == want
        assert_near_exact(f, z, got)


@pytest.fixture(scope="module")
def guarded_fields(demo_field):
    """The demo field (stabilized) and the unstabilized field on the ball of
    the three non-affine generators, each with its guard disks."""
    fields = [demo_field(4), AutomorphicField(enumerate_ball(GENUS2_GENERATORS[:3], 2), S1, S2)]
    return [(f, *guard_disks(f)) for f in fields]


@pytest.fixture(scope="module")
def pole_form_fields(guarded_fields):
    """The two guarded fields and one whose every element is affine (c = 0)."""
    affine = AutomorphicField(enumerate_ball([GENUS2_GENERATORS[3]], 2), S1, S2)
    return [f for f, _, _ in guarded_fields] + [affine]


def near_a_guard(guarded_fields, which, data, k, angle):
    """A guarded field and a point z at k radii from the centre of one of
    its guard disks, drawn by ``data``."""
    f, centres, radii = guarded_fields[which]
    i = data.draw(st.integers(0, len(centres) - 1))
    w = centres[i] + k * radii[i] * complex(math.cos(angle), math.sin(angle))
    return f, (w if f.conjugation is None else apply(inverse(f.conjugation), w))


# Fields that keep no guard index, each with points where field_eval checks
# and sums as the oracle does.
NO_INDEX_FIELDS = {
    # an affine element with |d| < POLE_GUARD: every point is within the
    # guard of its pole line
    "affine": (lambda: AutomorphicField(enumerate_ball([MoebiusMap(2e6, 0, 0, 5e-7)], 1), S1, S2),
               [0.3 + 1.2j, -2.0 + 0.5j]),
    # |c| = 1e-4: the guard disk of the pole line through -1e4 has radius
    # 1e-2, wider than a bucket
    "wide pole line": (lambda: AutomorphicField(enumerate_ball([MoebiusMap(1, 0, 1e-4, 1)], 1),
                                                S1, S2),
                       [0.3 + 1.2j, -1e4 + 5e-3, -1e4 + 2e-2]),
    # the numerator seed 0.01 gives z -> -1/(z + 4) a' = -0.01: its preimage
    # guard disk around -104 has radius about 1e-2
    "wide preimage": (lambda: AutomorphicField(enumerate_ball([GENUS2_GENERATORS[1]], 1), 0.01, S2),
                      [0.3 + 1.2j, -104 + 5e-3, -104 + 2e-2]),
    # z -> z/(z + 1) to the power 1e40 has |c| = 1e40: a guard radius of
    # 1e-46 leaves the pole form's products no safe range
    "exponent budget": (lambda: AutomorphicField(GroupBall(
        (MoebiusMap(1, 0, 1, 1),), 1, ((), ((1, 10 ** 40),)),
        np.array([[1, 0, 0, 1], [1, 0, 1e40, 1]], dtype=complex)), S1, S2),
        [0.3 + 1.2j, -1e-40 + 1e-47]),
}


class TestPoleGuards:
    """The guard index skips the guard checks only where none could fire."""

    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 1), data=st.data(),
           k=st.floats(0.25, 4.0), angle=st.floats(0.0, 2 * math.pi))
    def test_index_never_hides_a_guard(self, guarded_fields, which, data, k, angle):
        assert_matches_oracle(*near_a_guard(guarded_fields, which, data, k, angle))

    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 1), data=st.data(),
           k=st.floats(0.25, 4.0), angle=st.floats(0.0, 2 * math.pi))
    def test_written_out_guards_agree_off_their_edges(self, guarded_fields, which, data, k,
                                                       angle):
        # the guards measure |w - p| and |w - q|: in exact arithmetic they are
        # |cw + d| < e and |a'w + b'| < e |cw + d|, and only rounding near a
        # guard's edge can tell the two apart
        f, z = near_a_guard(guarded_fields, which, data, k, angle)
        want, edge = written_out_guard(f, summation_point(f, z)[0])
        assume(not edge)
        try:
            field_eval(f, z)
        except NearPole as raised:
            assert str(raised) == want
        else:
            assert want is None

    @pytest.mark.parametrize("build, points", NO_INDEX_FIELDS.values(), ids=NO_INDEX_FIELDS)
    def test_a_field_without_an_index_checks_every_point(self, build, points):
        f = build()
        assert f._guards == _NO_GUARD_INDEX
        for z in points:
            assert takes_the_checks(f, z)
            assert_matches_oracle(f, z)

    @settings(max_examples=100, deadline=None)
    @given(which=st.integers(0, 1), x=st.floats(-3.0, 3.0), y=st.floats(0.3, 4.0))
    def test_scan_window_points_match_the_oracle(self, guarded_fields, which, x, y):
        assert_matches_oracle(guarded_fields[which][0], complex(x, y))

    def test_both_fields_keep_an_index(self, guarded_fields):
        for f, _, _ in guarded_fields:
            reach, buckets = f._guards
            assert reach > 1.0 and buckets

    def test_a_guard_far_from_every_centre_leaves_no_index(self):
        # with the numerator seed at 0, the element z -> -1/(z + 4) has a' = 0:
        # its preimage guard fires wherever |w + 4| > 1e6
        f = AutomorphicField(enumerate_ball([GENUS2_GENERATORS[1]], 1), 0j, S2)
        assert f._guards == _NO_GUARD_INDEX
        with pytest.raises(NearPole, match="orbit preimage"):
            field_eval(f, 2e6)
        assert_near_exact(f, 5e5, field_eval(f, 5e5))

    def test_non_finite_points_take_the_checks(self, pole_form_fields):
        with np.errstate(all="ignore"):
            for f in pole_form_fields:
                for z in (complex("inf"), complex("nan"), complex(0.0, float("inf"))):
                    assert takes_the_checks(f, z)
                    assert cmath.isnan(field_eval(f, z))


class TestPoleForm:
    """field_eval sums in pole form: the same series as the written-out
    terms, within sum_error_bound."""

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, 2), x=st.floats(-6.0, 6.0), y=st.floats(0.05, 6.0))
    def test_values_match_the_exact_sums(self, pole_form_fields, which, x, y):
        assert_matches_oracle(pole_form_fields[which], complex(x, y))

    def test_every_field_keeps_its_pole_form(self, pole_form_fields):
        for f in pole_form_fields:
            reach, buckets = f._guards
            assert reach > 1e40 and len(f._form[1]) == 3  # the poles of u, v_1 and v_2
        assert pole_form_fields[2]._form[0].tolist() == [0, 1, 2, 3, 4]  # every u = 1

    def test_points_either_side_of_the_reach(self, pole_form_fields):
        demo, *unstabilized = pole_form_fields
        # the denominator series ~ 1/|w| vanishes out there, in both branches
        for f in unstabilized:
            reach = f._guards[0]
            for w in (complex(0.999 * reach, -0.999 * reach), complex(1.001 * reach, 1.0)):
                assert takes_the_checks(f, w) == (abs(w.real) >= reach)
                with pytest.raises(DenominatorVanishes) as raised:
                    field_eval(f, w)
                size = abs(exact_sums(f, w)[1])
                assert str(raised.value) == f"denominator series ~ {size:.3g} at z={w}"
        assert takes_the_checks(unstabilized[1], 1e300)
        # u = 1 in every row, and v_1 v_2 overflows: its reciprocal, and each sum, is 0
        with pytest.raises(DenominatorVanishes, match=r"series ~ 0 at z=1e\+300"):
            field_eval(unstabilized[1], 1e300)
        with pytest.raises(ZeroDivisionError):  # the Cayley map's derivative underflows to 0
            field_eval(demo, 1e300)

    @pytest.mark.parametrize("x", [1e60, 1e100, 1e300])
    def test_far_points_whose_terms_overflow_raise(self, pole_form_fields, x):
        # (cw + d)^5 (a'w + b') overflows out here, beyond the reach: the
        # denominator series vanishes, with no NaN and no overflow warning
        # (filterwarnings = error)
        f = pole_form_fields[1]
        for w in (complex(x, 0.0), complex(0.0, -x), complex(x, x)):
            assert takes_the_checks(f, w)
            with pytest.raises(DenominatorVanishes, match=re.escape(f"terms overflow at z={w}")):
                field_eval(f, w)


DEMO_ORACLE_POINTS = 24
ORACLE_FIELD_NAMES = ["demo", "unstabilized", "affine ball", *NO_INDEX_FIELDS, "far guard"]


def oracle_sample(f, seed, count):
    """A fixed sample of ``count`` summation points of f: 40% 1e-7 from a
    pole line -d/c or an orbit point -b'/a' (the centres of its guard
    disks), 30% at 0.25 to 4 guard radii from one, and 30% images of points
    in [-6, 6] x [0.05, 6]."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # a' = 0 puts a centre at infinity
        centres, radii = (np.array(x) for x in guard_disks(f))
    keep = np.isfinite(centres) & np.isfinite(radii)
    centres, radii = centres[keep], radii[keep]
    near, around = int(0.4 * count), int(0.3 * count)
    turns = np.exp(2j * np.pi * rng.random(count))
    i = rng.integers(len(centres), size=near + around)
    k = np.concatenate([np.full(near, 1e-7), radii[i[near:]] * rng.uniform(0.25, 4.0, around)])
    points = (centres[i] + k * turns[:near + around]).tolist()
    for x, y in zip(rng.uniform(-6, 6, count - len(points)), rng.uniform(0.05, 6, count)):
        points.append(summation_point(f, complex(x, y))[0])
    return points


def within_an_ulp(got, want):
    """Each part of got equals want's, or is within one ulp of it."""
    return all(g == w or abs(g - w) <= math.ulp(w)
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


class TestDoubleDoubleSums:
    """exact_sums' double-double sums against the 40-digit sums they stand
    in for."""

    @pytest.fixture(scope="class")
    def oracle_fields(self, pole_form_fields):
        fields = dict(zip(("demo", "unstabilized", "affine ball"), pole_form_fields))
        fields.update((name, build()) for name, (build, _) in NO_INDEX_FIELDS.items())
        fields["far guard"] = AutomorphicField(enumerate_ball([GENUS2_GENERATORS[1]], 1), 0j, S2)
        return fields

    @pytest.mark.parametrize("name", ORACLE_FIELD_NAMES)
    def test_a_fixed_sample_matches_the_40_digit_sums(self, oracle_fields, name):
        # the demo field's 3,201-term 40-digit sums take about 0.2 s a point
        count = DEMO_ORACLE_POINTS if name == "demo" else 200
        f = oracle_fields[name]
        vouched = 0
        for w in oracle_sample(f, ORACLE_FIELD_NAMES.index(name), count):
            sums = double_double_sums(f, w)
            if sums is not None:
                vouched += 1
                for got, want in zip(sums, exact_sums_40(f, w)):
                    assert within_an_ulp(got, want), (name, w, got, want)
        assert vouched >= 0.9 * count

    def test_a_split_that_overflows_takes_the_40_digits(self):
        # |c| = 1e40 at |w| = 1e20: (cw + d)^5 (a'w + b') passes 2^996
        f = NO_INDEX_FIELDS["exponent budget"][0]()
        assert double_double_sums(f, 1e20) is None
        assert exact_sums(f, 1e20) == exact_sums_40(f, 1e20)

    @pytest.mark.parametrize("seed, vouched", [(1e-8, True), (1e-15, False)])
    def test_an_ill_conditioned_sum_takes_the_40_digits(self, seed, vouched):
        # z -> -z pairs each numerator term 1/(w - s) with -1/(w + s): their
        # sum 2s/(w^2 - s^2) has condition number about |w|/|s|, 1e8 or 1e15
        f = AutomorphicField(enumerate_ball([MoebiusMap(-1, 0, 0, 1)], 1), seed, S2)
        w = 0.7 + 0.4j
        want = exact_sums_40(f, w)
        sums = double_double_sums(f, w)
        assert (sums is not None) == vouched
        assert all(within_an_ulp(got, x) for got, x in zip(exact_sums(f, w), want))


class TestDemoScan:
    """The demo pipeline's zero scan: the window (-3, 3, 0.3, 4) at n = 64."""

    def test_finds_the_reference_zeros(self, demo_field):
        f = demo_field(4)
        seen = []

        def counted(z):
            seen.append(z)
            return f(z)

        scan = find_zeros(counted, (-3.0, 3.0, 0.3, 4.0), 64)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())["demo-genus2"]["zeros"]
        assert len(scan.zeros) == len(reference) == 7
        for got, (x, y, _) in zip(scan.zeros, reference):
            assert abs(got.location - complex(x, y)) <= 1e-7
        assert [z.winding_index for z in scan.zeros] == [1, 0, 1, 1, 1, 1, 1]
        # four runs converge onto removable zeros of F at orbit points of the
        # denominator seed, where the guards refuse to evaluate
        assert [d["reason"] for d in scan.dropped] == ["zero estimate not evaluable"] * 4
        assert len(seen) <= 5283
        # the scan runs both of field_eval's branches
        assert any(takes_the_checks(f, z) for z in seen)
        assert not all(takes_the_checks(f, z) for z in seen)


class TestPlanarFields:
    def test_pendulum_equilibria(self):
        f = pendulum_field(1.0)
        assert f(0j) == 0j
        assert f(complex(math.pi, 0.0)) == pytest.approx(0j, abs=1e-15)

    def test_pendulum_sample_value(self):
        f = pendulum_field(1.0)
        assert f(complex(math.pi / 2, 1.0)) == pytest.approx(complex(1.0, -1.0))

    def test_pendulum_k_scaling(self):
        f = pendulum_field(2.5)
        theta = 0.7
        assert f(complex(theta, 0.3)).imag == pytest.approx(-2.5 * math.sin(theta))

    def test_pendulum_requires_positive_k(self):
        # and finite: an infinite k read (1+nanj) at 1j and -infj at 1
        for k in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="k must be positive and finite"):
                pendulum_field(k)

    def test_canonical_values(self):
        assert canonical_field("saddle")(1 + 1j) == 1 - 1j
        assert canonical_field("center")(1 + 0j) == 1j
        assert canonical_field("node")(-2 + 0.5j) == -2 + 0.5j
        assert canonical_field("dipole")(1 + 0j) == 1 + 0j
        assert canonical_field("dipole")(1j) == -1 + 0j

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            canonical_field("vortex")

    def test_custom_field(self):
        f = PlanarField(kind="custom", func=lambda z: z - 1)
        assert f(1 + 0j) == 0j
        assert f.on_array is None  # evaluated point by point

    def test_call_is_func_itself(self):
        # no coercion of the point and no wrapping of the value
        point, value = object(), object()
        f = PlanarField(kind="custom", func=lambda z: value if z is point else None)
        assert f(point) is value

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0), st.lists(st.complex_numbers(
        max_magnitude=100.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_call_matches_func_of_the_coerced_point(self, k, points):
        for f in [canonical_field(kind) for kind in CANONICAL_KINDS] + [pendulum_field(k)]:
            for z in points:
                got = f(z)
                assert type(got) is complex and got == f.func(complex(z))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(CANONICAL_KINDS), st.floats(0.1, 10.0),
           st.lists(st.complex_numbers(max_magnitude=100.0, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=20))
    def test_array_forms_match_the_scalar_fields(self, kind, k, points):
        assert_array_form_matches(canonical_field(kind), points)
        assert_array_form_matches(pendulum_field(k), points)
