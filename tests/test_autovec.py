import math

import numpy as np
import pytest

from surfaceflows.autovec import (
    EQUIVARIANCE_SAMPLE,
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
from surfaceflows.errors import NearPole
from surfaceflows.moebius import MoebiusMap, apply, derivative, enumerate_ball

from conftest import DENOMINATOR_POLE, GENUS2_GENERATORS, NUMERATOR_POLE

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

    def test_xy_view(self):
        f = canonical_field("saddle")
        assert f.xy(2.0, 3.0) == (2.0, -3.0)

    def test_custom_field(self):
        f = PlanarField(kind="custom", func=lambda z: z - 1)
        assert f(1 + 0j) == 0j
