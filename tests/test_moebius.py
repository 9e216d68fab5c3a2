import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def normalized_size(m):
    """Frobenius norm of the determinant-1 representative of m."""
    return math.sqrt(sum(abs(x) ** 2 for x in m.normalized().coeffs()))


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(moebius_maps(), moebius_maps(), moebius_maps())
    @example(MoebiusMap(1.6221066460007014j, 1.25, -1.5, 2j),
             MoebiusMap(0.75 + 2j, 1.25 + 2j, -1.625 + 1.291015625j, -1 + 1.75j),
             MoebiusMap(0.5 + 2j, 1 + 2j, -1 + 1j, -1 + 1.75j))  # distance 1.116e-12
    def test_associativity(self, m1, m2, m3):
        """Both bracketings normalize to one map, within the rounding bound.

        Normalizing is invariant under scaling, so take det-1 factors n_i
        and write u = 2^-53 and S = prod |n_i|_F (at least 2 sqrt 2).  A
        2 x 2 complex product errs by at most gamma_4 |A||B| entrywise
        (Higham, Accuracy and Stability, Secs. 3.5-3.6), so each bracketing
        is P + E with det P = 1 and |E|_F <= (2 gamma_4 + gamma_4^2) S < 8uS.
        Its computed determinant errs by at most |P|_F |E|_F + gamma_4 |P|_F^2
        / 2 < 10uS^2, so the square root that normalizes it moves every
        entry, of size at most S, by 5uS^3; the root and the four quotients
        add 2u and 6u of S.  Each side is within 16uS + 5uS^3 of the
        normalized P, so the two are within 2uS (16 + 5 S^2): 3.5e-14 for
        factors near the identity, 1.1e-10 for the example above.
        """
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        size = math.prod(normalized_size(m) for m in (m1, m2, m3))
        assert normalized_distance(left, right) <= 2 * 2.0 ** -53 * size * (16 + 5 * size ** 2)

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

    def test_no_generators_is_identity_only(self):
        # the empty alphabet has shape (0, 4): nothing to multiply by
        ball = enumerate_ball([], 3)
        assert len(ball) == 1
        assert ball.letters == ((),)
        assert ball.radius == 3

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

    @pytest.mark.parametrize("radius, size", [(1, 3), (2, 5)])
    def test_near_duplicate_letters_across_a_cell_edge_collapse(self, radius, size):
        # the two letters differ by 0.6 DEDUP_TOL across an edge of the
        # dedup grid, so they are one element found by the neighbour probe
        h, tol = 1000.0 * moebius.DEDUP_TOL, moebius.DEDUP_TOL
        shears = [MoebiusMap(1, 7.5 * h + step * tol, 0, 1) for step in (-0.3, 0.3)]
        ball = enumerate_ball(shears, radius)
        assert len(ball) == size
        assert ball.letters[:3] == ((), ((1, 1),), ((1, -1),))

    def test_levels_split_into_blocks_give_the_same_ball(self, monkeypatch):
        # the demo ball's levels hold at most 392 parents, inside one block
        # of 4096; blocks of 5 split every level but the identity's
        whole = enumerate_ball((T1, T2, T3, T4), 4)
        monkeypatch.setattr(moebius, "_BLOCK", 5)
        split = enumerate_ball((T1, T2, T3, T4), 4)
        assert len(split) == 3201
        assert split.letters == whole.letters
        assert split.coeffs.tobytes() == whole.coeffs.tobytes()

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

    @pytest.mark.parametrize("generators, radius", [
        ((T1, T2, T3, T4), 4),
        ((MoebiusMap(0, -1, 1, 0), MoebiusMap(1, 1, 0, 1)), 6),  # the modular group
    ])
    def test_truncated_size_is_the_count_of_short_words(self, generators, radius):
        big = enumerate_ball(generators, radius)
        for r in range(radius + 1):
            assert len(big.truncated(r)) == sum(1 for word in big.letters if len(word) <= r)

    def test_enumeration_keeps_no_object_per_element(self):
        # the dedup index stores 72 bytes per element in two arrays and the
        # ball itself about 150; a Python list per stored row would cost
        # several hundred bytes more, over the bound
        gens = (T1, T2, T3, T4)
        enumerate_ball(gens, 4)  # warm: numpy's first-call caches are not the ball's
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ball = enumerate_ball(gens, 4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(ball) == 3201
        assert peak <= 600 * len(ball)

    def test_coefficients_are_read_only(self):
        ball = enumerate_ball((T1, T2), 2)
        with pytest.raises(ValueError):
            ball.coeffs[1, 0] = 0.0
        with pytest.raises(ValueError):
            ball.truncated(1).coeffs[0, 0] = 2.0

    def test_maps_and_words_round_trip_through_word_to_map(self):
        # every stored row is the canonical representative word_to_map
        # recomputes from its word, bit for bit (the demo generators at the
        # demo's radius)
        ball = enumerate_ball((T1, T2, T3, T4), 4)
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


class TestCellIndex:
    @staticmethod
    def rows(*maps):
        return np.array([m for m in maps], dtype=complex).view(float)

    def test_finds_sign_flipped_duplicate(self):
        index = moebius._CellIndex(moebius.DEDUP_TOL)
        m = T1.normalized().coeffs()
        assert index.add_new(self.rows(m)).tolist() == [True]
        flipped = tuple(-x for x in m)
        other = T2.normalized().coeffs()
        assert index.add_new(self.rows(m, flipped, other)).tolist() == [False, False, True]

    def test_tolerance_is_the_match_radius(self):
        index = moebius._CellIndex(moebius.DEDUP_TOL)
        a, b, c, d = T3.normalized().coeffs()  # real matrix: its imaginary parts are exact zeros
        index.add_new(self.rows((a, b, c, d)))
        steps = (0.5, -0.5, 0.5j, -0.5j)
        near = [(a + step * moebius.DEDUP_TOL, b, c, d) for step in steps]
        far = [(a, b, c + 4.0 * step * moebius.DEDUP_TOL, d) for step in steps]
        assert index.add_new(self.rows(*near, *far)).tolist() == [False] * 4 + [True] * 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_duplicate_across_a_cell_edge_is_merged(self, sign):
        # two rows 0.6 tol apart on either side of a cell edge: their cells
        # differ, so only the neighbour probe can merge them
        index = moebius._CellIndex(moebius.DEDUP_TOL)
        tol, edge = moebius.DEDUP_TOL, 7.5 * index.h
        below, above = (1.0, edge - 0.3 * tol, 0.0, 1.0), (1.0, edge + 0.3 * tol, 0.0, 1.0)
        cells = index._cells(self.rows(below, above))
        assert (cells[0] != cells[1]).sum() == 1
        assert index.add_new(self.rows(below)).tolist() == [True]
        twin = tuple(sign * x for x in above)
        assert index.add_new(self.rows(twin, (1.0, edge + 3 * tol, 0.0, 1.0))).tolist() == [
            False, True]
        # and within one call, against a row stored earlier in the same call
        fresh = moebius._CellIndex(moebius.DEDUP_TOL)
        assert fresh.add_new(self.rows(below, twin)).tolist() == [True, False]


def _sign_fixed_loop(m):
    """Reference sign convention, one coefficient at a time (as a loop)."""
    biggest = max(abs(w) for w in m)
    for w in m:
        if abs(w) <= moebius._SIGN_EPS * biggest:
            continue
        real_is_zero = abs(w.real) <= moebius._SIGN_EPS * abs(w)
        if (w.real < 0.0 and not real_is_zero) or (real_is_zero and w.imag < 0.0):
            return tuple(-w for w in m)
        break
    return tuple(m)


def _ball_loop(generators, radius):
    """Reference enumeration: scalar products, and each candidate compared
    with every element kept so far, up to sign, at DEDUP_TOL."""
    alphabet = []
    for i, g in enumerate(generators, start=1):
        unit = g.normalized().coeffs()
        alphabet += [((i, 1), (i, -1), unit), ((i, -1), (i, 1), moebius._inverse(unit))]
    words, rows, level = [()], [(1.0 + 0j, 0j, 0j, 1.0 + 0j)], [0]
    for _ in range(radius):
        start = len(rows)
        for k in level:
            for letter, undo, gen in alphabet:
                if words[k] and words[k][-1] == undo:
                    continue
                cand = _sign_fixed_loop(moebius._product(rows[k], gen))
                if not any(max(abs(x - s * y) for x, y in zip(cand, row)) < moebius.DEDUP_TOL
                           for row in rows for s in (1, -1)):
                    words.append(words[k] + (letter,))
                    rows.append(cand)
        level = range(start, len(rows))
    return tuple(words), np.array(rows, dtype=complex)


def _hex(rows):
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in rows]


class TestArrayProducts:
    def test_sign_fix_matches_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows.imag[rng.random(rows.shape) < 0.3] = 0.0
        rows.real[rng.random(rows.shape) < 0.2] = 1e-14  # real part hugging zero
        rows[rng.random(rows.shape) < 0.1] *= -1.0
        expected = [_sign_fixed_loop(row) for row in rows.tolist()]
        assert _hex(moebius._sign_fixed_rows(rows.copy()).tolist()) == _hex(expected)

    def test_products_match_the_scalar_product_bit_for_bit(self):
        # numpy's complex multiply differs from CPython's in the last bit
        # for about a quarter of random products; the array product must not
        rng = np.random.default_rng(11)
        values = rng.normal(size=(500, 2, 4, 2)) * 10.0 ** rng.integers(-3, 4, size=(500, 2, 4, 2))
        values[rng.random(values.shape) < 0.15] = 0.0
        values[rng.random(values.shape) < 0.1] *= -0.0  # signed zeros
        p = values[:, 0, :, 0] + 1j * 0.0
        q = values[:, 1, :, 0] + 1j * 0.0
        p.imag, q.imag = values[:, 0, :, 1], values[:, 1, :, 1]
        got = moebius._products(p, q)
        expected = [moebius._product(tuple(pp), tuple(qq)) for pp, qq in zip(p.tolist(), q.tolist())]
        assert _hex(got.tolist()) == _hex(expected)

    def test_conjugated_rows_match_scalar_conjugation(self):
        from surfaceflows.autovec import CAYLEY_DISK

        ball = enumerate_ball((T1, T2, T3, T4), 3)
        got = ball.conjugated(CAYLEY_DISK)
        unit = CAYLEY_DISK.normalized().coeffs()
        for row, g in zip(got.coeffs.tolist(), ball.coeffs.tolist()):
            expected = _sign_fixed_loop(
                moebius._product(moebius._product(unit, tuple(g)), moebius._inverse(unit)))
            assert _hex([row]) == _hex([expected])
        assert not got.coeffs.flags.writeable


def _free_words(n_generators, radius):
    """Every freely reduced word of length <= radius, as letter tuples."""
    letters = [(i, e) for i in range(1, n_generators + 1) for e in (1, -1)]
    words, level = [()], [()]
    for _ in range(radius):
        level = [w + (x,) for w in level for x in letters if not (w and w[-1] == (x[0], -x[1]))]
        words += level
    return words


LOOP_REFERENCE_CASES = [
    ((T1, T2, T3, T4), 2),
    ((MoebiusMap(0, -1, 1, 0), MoebiusMap(1, 1, 0, 1)), 5),
    # near-duplicate letters across a dedup-grid edge, and an elliptic
    # whose powers have leading coefficients on the imaginary axis
    ((MoebiusMap(1, 7.5e-6 - 3e-10, 0, 1), MoebiusMap(1, 7.5e-6 + 3e-10, 0, 1),
      MoebiusMap(1j, 0, 0, -1j)), 3),
    ((MoebiusMap(1 + 0.2j, 0.3, -0.1j, 1), MoebiusMap(0.7, 1j, 0.4, 2 - 1j)), 3),
]


class TestBallsWithRelations:
    @pytest.mark.parametrize("generators, radius", LOOP_REFERENCE_CASES)
    def test_matches_the_loop_reference_bit_for_bit(self, generators, radius):
        words, rows = _ball_loop(generators, radius)
        ball = enumerate_ball(generators, radius)
        assert ball.letters == words
        assert ball.coeffs.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("generators, radius", LOOP_REFERENCE_CASES)
    def test_one_hash_for_every_cell_probes_every_row(self, generators, radius, monkeypatch):
        # with every cell on one hash no row takes the fast path, and each
        # probe compares its row with one span holding every stored row
        monkeypatch.setattr(moebius._CellIndex, "_hash", staticmethod(
            lambda cells: np.full(cells.shape[:-1], 7, dtype=np.uint64)))
        words, rows = _ball_loop(generators, radius)
        ball = enumerate_ball(generators, radius)
        assert ball.letters == words
        assert ball.coeffs.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("radius", range(5))
    def test_order_five_rotation(self, radius):
        # z -> rotation by 2 pi / 5 about i: g^5 = id, so the ball is
        # {g^k : |k| <= r} modulo 5
        theta = math.pi / 5
        rot = MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
        ball = enumerate_ball([rot], radius)
        assert len(ball) == min(2 * radius + 1, 5)

    @pytest.mark.parametrize("radius", range(7))
    def test_modular_group_matches_a_word_oracle(self, radius):
        # oracle: compose every freely reduced word over S and T and merge
        # maps whose canonical representatives agree to DEDUP_TOL, pairwise
        gens = (MoebiusMap(0, -1, 1, 0), MoebiusMap(1, 1, 0, 1))
        distinct = []
        for word in _free_words(2, radius):
            m = word_to_map(GroupWord(word), gens)
            if all(max(abs(x - y) for x, y in zip(m.coeffs(), d.coeffs())) >= moebius.DEDUP_TOL
                   for d in distinct):
                distinct.append(m)
        ball = enumerate_ball(gens, radius)
        assert len(ball) == len(distinct)
        # the same elements: each oracle map is within DEDUP_TOL of one ball row
        rows = ball.coeffs
        for m in distinct:
            gap = np.abs(rows - np.array(m.coeffs())).max(axis=1)
            assert np.count_nonzero(gap < moebius.DEDUP_TOL) == 1
