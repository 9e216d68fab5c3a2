import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows import moebius
from surfaceflows.errors import BallTooLarge, PoleHit
from surfaceflows.moebius import (
    GroupWord,
    MoebiusMap,
    apply,
    compose,
    derivative,
    enumerate_ball,
    inverse,
    normalized_distance,
    word_to_map,
)

T1 = MoebiusMap(-2, -13, 1, 6)
T2 = MoebiusMap(0, -1, 1, 4)
T3 = MoebiusMap(6, -13, 1, -2)
T4 = MoebiusMap(7, -28, 0, 1)
IDENTITY = MoebiusMap.identity()


def coeff_matrix(m):
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


class TestBasicOps:
    def test_compose_identity_is_t4(self):
        assert compose(IDENTITY, T4).coeffs() == T4.coeffs()

    def test_compose_with_inverse_is_identity(self):
        assert normalized_distance(compose(T2, inverse(T2)), IDENTITY) < 1e-12

    def test_compose_matches_matrix_product(self):
        # independent oracle: explicit 2x2 matrix product
        expected = coeff_matrix(T1) @ coeff_matrix(T3)
        got = coeff_matrix(compose(T1, T3))
        assert np.array_equal(got, expected)

    def test_apply_affine_root(self):
        assert apply(T4, 4.0) == 0.0

    def test_apply_identity(self):
        for z in (0.3 + 0.7j, -2.0, 5j):
            assert apply(IDENTITY, z) == z

    def test_apply_t2_at_zero(self):
        assert apply(T2, 0.0) == -0.25

    def test_apply_pole_hit(self):
        with pytest.raises(PoleHit):
            apply(T2, -4.0)

    def test_derivative_identity(self):
        assert derivative(IDENTITY, 1.3 - 0.2j) == 1.0

    def test_derivative_t2_at_zero(self):
        assert derivative(T2, 0.0) == pytest.approx(1.0 / 16.0)

    def test_derivative_affine_constant(self):
        for z in (0.0, 1j, -3.5 + 2j):
            assert derivative(T4, z) == 7.0

    def test_derivative_matches_symbolic_oracle(self):
        import sympy

        zs = sympy.symbols("z")
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c, d = (complex(x, y) for x, y in rng.uniform(-3, 3, size=(4, 2)))
            if abs(a * d - b * c) < 0.1:
                continue
            m = MoebiusMap(a, b, c, d)
            expr = sympy.diff((a * zs + b) / (c * zs + d), zs)
            z0 = complex(*rng.uniform(-2, 2, size=2))
            expected = complex(expr.subs(zs, z0))
            assert derivative(m, z0) == pytest.approx(expected, rel=1e-9)

    def test_inverse_identity(self):
        assert normalized_distance(inverse(IDENTITY), IDENTITY) < 1e-15

    def test_inverse_affine_root(self):
        assert apply(inverse(T4), 0.0) == pytest.approx(4.0)

    def test_double_inverse(self):
        assert normalized_distance(inverse(inverse(T1)), T1) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 2, 2, 4)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_coefficient_rejected(self, slot, bad):
        coeffs = [1.0, 0.0, 0.0, 1.0]
        coeffs[slot] = bad
        with pytest.raises(ValueError, match=f"coefficient {'abcd'[slot]} .* not finite"):
            MoebiusMap(*coeffs)

    def test_normalized_has_unit_determinant(self):
        for m in (T1, T2, T3, T4, compose(T1, T4)):
            assert abs(m.normalized().det - 1.0) < 1e-12


finite = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


@st.composite
def moebius_maps(draw):
    from hypothesis import assume

    a = complex(draw(finite), draw(finite))
    b = complex(draw(finite), draw(finite))
    c = complex(draw(finite), draw(finite))
    d = complex(draw(finite), draw(finite))
    assume(abs(a * d - b * c) > 1.0)
    return MoebiusMap(a, b, c, d)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(moebius_maps(), moebius_maps(), moebius_maps())
    def test_associativity(self, m1, m2, m3):
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        assert normalized_distance(left, right) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(moebius_maps(), moebius_maps(), finite, finite)
    def test_chain_rule(self, m1, m2, x, y):
        z = complex(x, y)
        try:
            inner = apply(m2, z)
            lhs = derivative(compose(m1, m2), z)
            rhs = derivative(m1, inner) * derivative(m2, z)
        except PoleHit:
            return
        if abs(m2.c * z + m2.d) < 1e-3 or abs(m1.c * inner + m1.d) < 1e-3:
            return  # too close to a pole for the float comparison to mean much
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_apply_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.uniform(-2, 2, size=2)
            z = complex(pts[0], abs(pts[1]) + 0.5)
            for m in (T1, T2, T3, T4):
                assert apply(inverse(m), apply(m, z)) == pytest.approx(z, abs=1e-10)


class TestWords:
    def test_free_reduction_enforced(self):
        with pytest.raises(ValueError):
            GroupWord(((1, 1), (1, -1)))

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            GroupWord(((0, 1),))

    def test_sort_key_orders_by_length_then_lex(self):
        w_short = GroupWord(((2, 1),))
        w_long = GroupWord(((1, 1), (1, 1)))
        w_inv = GroupWord(((1, -1),))
        assert w_short.sort_key() < w_long.sort_key()
        assert GroupWord(((1, 1),)).sort_key() < w_inv.sort_key()

    def test_str(self):
        assert str(GroupWord()) == "e"
        assert str(GroupWord(((1, 1), (2, -1)))) == "g1 g2^-1"


class TestEnumeration:
    def test_radius_zero_is_identity_only(self):
        ball = enumerate_ball([T1, T2], 0)
        assert len(ball) == 1
        assert ball.letters == ((),)
        assert normalized_distance(ball.maps()[0], IDENTITY) < 1e-15

    def test_single_affine_generator_radius_two(self):
        # free cyclic: id, T, T^-1, T^2, T^-2 -- direct word enumeration oracle
        ball = enumerate_ball([T4], 2)
        assert len(ball) == 5
        expected_words = {"e", "g1", "g1^-1", "g1 g1", "g1^-1 g1^-1"}
        assert {str(w) for w in ball.words()} == expected_words

    def test_four_generators_radius_one(self):
        # pairwise-distance oracle: all {T_i^{+-1}} distinct, so 1 + 8 elements
        gens = (T1, T2, T3, T4)
        maps = [IDENTITY]
        for g in gens:
            maps.append(g)
            maps.append(inverse(g))
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                assert normalized_distance(maps[i], maps[j]) > 1e-6
        ball = enumerate_ball(gens, 1)
        assert len(ball) == 9

    def test_ball_monotone_in_radius(self):
        balls = {r: enumerate_ball((T1, T2, T3, T4), r) for r in range(4)}
        for r in range(3):
            smaller = balls[r].maps()
            larger = balls[r + 1].maps()
            for m in smaller:
                assert any(normalized_distance(m, n) < 1e-9 for n in larger)

    def test_word_map_consistency(self):
        ball = enumerate_ball((T1, T2, T3, T4), 3)
        for word, stored in zip(ball.words(), ball.maps()):
            recomposed = word_to_map(word, ball.generators)
            direct = max(abs(x - y) for x, y in zip(recomposed.coeffs(), stored.coeffs()))
            flipped = max(abs(x + y) for x, y in zip(recomposed.coeffs(), stored.coeffs()))
            assert min(direct, flipped) < 1e-9

    def test_canonical_order(self):
        ball = enumerate_ball((T1, T2), 3)
        keys = [w.sort_key() for w in ball.words()]
        assert keys == sorted(keys)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(moebius, "BALL_CAP", 100)
        with pytest.raises(BallTooLarge):
            enumerate_ball((T1, T2, T3, T4), 3)

    def test_dedup_collapses_relations(self):
        # a generator listed twice: the duplicate letters must collapse
        ball = enumerate_ball((T2, T2), 1)
        assert len(ball) == 3  # id, T2, T2^-1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            enumerate_ball((T1,), -1)

    def test_smaller_ball_is_prefix(self):
        # breadth-first in canonical order: the first r levels of a bigger
        # enumeration are the radius-r enumeration, bit for bit
        big = enumerate_ball((T1, T2, T3, T4), 4)
        for r in range(5):
            small = big.truncated(r)
            assert small.radius == r
            direct = enumerate_ball((T1, T2, T3, T4), r)
            assert small.letters == direct.letters
            assert small.coeffs.tobytes() == direct.coeffs.tobytes()
        with pytest.raises(ValueError):
            big.truncated(5)

    def test_coefficients_are_read_only(self):
        ball = enumerate_ball((T1, T2), 2)
        with pytest.raises(ValueError):
            ball.coeffs[1, 0] = 0.0
        with pytest.raises(ValueError):
            ball.truncated(1).coeffs[0, 0] = 2.0

    def test_maps_and_words_round_trip_through_word_to_map(self):
        # every stored row is the canonical representative word_to_map
        # recomputes from its word, bit for bit
        ball = enumerate_ball((T1, T2, T3, T4), 3)
        words, maps = ball.words(), ball.maps()
        assert len(words) == len(maps) == len(ball)
        assert tuple(w.letters for w in words) == ball.letters
        for word, m, row in zip(words, maps, ball.coeffs.tolist()):
            assert m.coeffs() == tuple(row)
            assert word_to_map(word, ball.generators).coeffs() == m.coeffs()

    def test_non_finite_generator_never_reaches_enumeration(self):
        with pytest.raises(ValueError, match="not finite"):
            enumerate_ball([MoebiusMap(1, math.nan, 0, 1)], 2)

    def test_coefficient_overflow_is_a_typed_error(self):
        # the 51st power of diag(1e6, 1e-6) is too large for the index cells
        scaling = MoebiusMap(1e6, 0, 0, 1e-6)
        assert len(enumerate_ball([scaling], 2)) == 5
        with pytest.raises(ValueError, match="coefficient overflow at word length 51"):
            enumerate_ball([scaling], 51)


class TestMatrixIndex:
    def test_finds_sign_flipped_duplicate(self):
        index = moebius._MatrixIndex(moebius.DEDUP_TOL)
        m = T1.normalized().coeffs()
        index.add(m)
        assert index.contains(m)
        assert index.contains(tuple(-x for x in m))
        assert not index.contains(T2.normalized().coeffs())

    def test_tolerance_is_the_match_radius(self):
        index = moebius._MatrixIndex(moebius.DEDUP_TOL)
        a, b, c, d = T3.normalized().coeffs()  # real matrix: its imaginary parts are exact zeros
        index.add((a, b, c, d))
        for step in (0.5, -0.5, 0.5j, -0.5j):
            near = (a + step * moebius.DEDUP_TOL, b, c, d)
            far = (a, b, c + 4.0 * step * moebius.DEDUP_TOL, d)
            assert index.contains(near)
            assert not index.contains(far)
