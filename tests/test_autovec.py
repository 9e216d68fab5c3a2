import cmath
import functools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows.autovec import (
    _BUCKETS_PER_UNIT,
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
    """field_eval's guards and written-out sums from the ball's coefficients:
    the NearPole message the guards give at z, or the unguarded ratio."""
    a, b, c, d = f.ball.coeffs.T.copy()  # contiguous, as the field holds them
    w, scale = summation_point(f, z)
    den = c * w + d
    if np.abs(den).min() < POLE_GUARD:
        return f"z={w} is within {POLE_GUARD} of a ball element's pole line"
    gaps = [(a - s * c) * w + (b - s * d) for s in (f.numerator_pole, f.denominator_pole)]
    for gap in gaps:
        if (np.abs(gap) < POLE_GUARD * np.abs(den)).any():
            return f"z={w} is within {POLE_GUARD} of an orbit preimage of the seed pole"
    det = a * d - b * c
    den2 = den * den
    den3 = den2 * den
    num = complex((det ** 2 / (den3 * gaps[0])).sum())
    den_sum = complex((det ** 3 / (den3 * den2 * gaps[1])).sum())
    assert abs(den_sum) >= DENOMINATOR_TOL
    return num / den_sum / scale


def summation_point(f, z):
    """The point w at which field_eval sums the series, and its scale."""
    if f.conjugation is None:
        return z, 1.0
    return apply(f.conjugation, z), derivative(f.conjugation, z)


def takes_the_checks(f, z):
    """Whether field_eval runs the guard checks and the written-out sums at
    z: w in an indexed bucket, past the reach, or not finite."""
    w = summation_point(f, z)[0]
    reach, buckets, _ = f._guards
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


def exact_sums(f, w):
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


U = 2.0 ** -53  # unit roundoff


def sum_error_bound(f, w, exact_num, exact_den):
    """Bound on the relative error of F = num / den / scale at w, for either
    of field_eval's sum forms, given the exact sums.

    A weight-m term is t = det^m / (L^(2m-1) G), with L = cw + d and
    G = a'w + b'.  Both forms compute L (as cw + d, or as c (w - p) with
    p = -d/c), G (as a'w + b', or as a' (w - q) with q = -b'/a'), det and
    the folded a', b' from the same float coefficients.  A complex product
    errs by at most sqrt(2) gamma_2 < 3u and, we take, a quotient or
    reciprocal by at most 7u (Higham, Accuracy and Stability, Sec. 3.6).  So
    L errs by at most 8u k_L, with k_L = (|c||w| + |d|)/|L|; G, with a' and
    q, by at most 16u k_G, with
    k_G = ((|a| + |s||c|)(|w| + |G|/|a'|) + |b| + |s||d|)/|G|; and det by
    4u k_det, with k_det = (|a||d| + |b||c|)/|det|.  The fixed chain of
    products, powers and quotients of either form adds less than 64u.  So a
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
        k_gap = ((np.abs(a) + abs(s) * np.abs(c)) * (abs(w) + gap / a1)
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
    """field_eval raises NearPole with the oracle's message.  Where it runs
    the checks it returns the oracle's value exactly; elsewhere it sums in
    pole form, and both it and the oracle's written-out sums are within
    sum_error_bound of the 40-digit sums."""
    want = guarded_oracle(f, z)
    if isinstance(want, str):
        with pytest.raises(NearPole) as raised:
            field_eval(f, z)
        assert str(raised.value) == want
    elif takes_the_checks(f, z):
        assert field_eval(f, z) == want
    else:
        assert_near_exact(f, z, field_eval(f, z), want)


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


class TestPoleGuards:
    """The guard index skips the guard checks only where none could fire."""

    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 1), data=st.data(),
           k=st.floats(0.25, 4.0), angle=st.floats(0.0, 2 * math.pi))
    def test_index_never_hides_a_guard(self, guarded_fields, which, data, k, angle):
        f, centres, radii = guarded_fields[which]
        i = data.draw(st.integers(0, len(centres) - 1))
        w = centres[i] + k * radii[i] * complex(math.cos(angle), math.sin(angle))
        z = w if f.conjugation is None else apply(inverse(f.conjugation), w)
        assert_matches_oracle(f, z)

    @settings(max_examples=100, deadline=None)
    @given(which=st.integers(0, 1), x=st.floats(-3.0, 3.0), y=st.floats(0.3, 4.0))
    def test_scan_window_points_match_the_oracle(self, guarded_fields, which, x, y):
        assert_matches_oracle(guarded_fields[which][0], complex(x, y))

    def test_both_fields_keep_an_index(self, guarded_fields):
        for f, _, _ in guarded_fields:
            reach, buckets, _ = f._guards
            assert reach > 1.0 and buckets

    def test_a_guard_far_from_every_centre_leaves_no_index(self):
        # with the numerator seed at 0, the element z -> -1/(z + 4) has a' = 0:
        # its preimage guard fires wherever |w + 4| > 1e6
        f = AutomorphicField(enumerate_ball([GENUS2_GENERATORS[1]], 1), 0j, S2)
        assert f._guards == (0.0, frozenset(), None)
        with pytest.raises(NearPole, match="orbit preimage"):
            field_eval(f, 2e6)
        assert field_eval(f, 5e5) == 0.9999959999960001 - 5.999999999976e-06j

    def test_non_finite_points_take_the_checks(self, pole_form_fields):
        with np.errstate(all="ignore"):
            for f in pole_form_fields:
                for z in (complex("inf"), complex("nan"), complex(0.0, float("inf"))):
                    assert takes_the_checks(f, z)
                    assert cmath.isnan(field_eval(f, z))


class TestPoleForm:
    """Outside the guard buckets field_eval sums in pole form: the same
    series, within the error bound of either form."""

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, 2), x=st.floats(-6.0, 6.0), y=st.floats(0.05, 6.0))
    def test_values_match_the_exact_sums(self, pole_form_fields, which, x, y):
        assert_matches_oracle(pole_form_fields[which], complex(x, y))

    def test_every_field_keeps_its_pole_form(self, pole_form_fields):
        for f in pole_form_fields:
            reach, buckets, pole_form = f._guards
            assert reach > 1e40 and pole_form is not None
        assert pole_form_fields[2]._guards[2][0].tolist() == [0, 1, 2, 3, 4]  # every u = 1

    def test_points_either_side_of_the_reach(self, pole_form_fields):
        demo, *unstabilized = pole_form_fields
        # the denominator series ~ 1/|w| vanishes out there, in both forms
        for f in unstabilized:
            reach = f._guards[0]
            for w in (complex(0.999 * reach, -0.999 * reach), complex(1.001 * reach, 1.0)):
                assert takes_the_checks(f, w) == (abs(w.real) >= reach)
                with pytest.raises(DenominatorVanishes) as raised:
                    field_eval(f, w)
                size = abs(exact_sums(f, w)[1])
                assert str(raised.value) == f"denominator series ~ {size:.3g} at z={w}"
        assert takes_the_checks(unstabilized[1], 1e300)
        with pytest.raises(DenominatorVanishes, match=r"2\.45e-297 at z=1e\+300"):
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
        # the scan runs both of field_eval's sum forms
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
        with pytest.raises(ValueError):
            pendulum_field(0.0)

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
