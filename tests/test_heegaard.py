import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows import heegaard
from surfaceflows.errors import TooManyEquilibria
from surfaceflows.flowlab import locate_zeros
from surfaceflows.heegaard import (
    INTERIOR_HIT_TOL,
    MAX_SUBSET_INDICES,
    SPHERE_ZERO_TOL,
    AbelianGroup,
    BallExtensionField,
    GluingMatrix,
    IndexSet,
    TwistWord,
    _chart,
    _from_chart,
    compose_word,
    corollary_check,
    dipole_sphere_field,
    feasible_genera,
    h1_from_gluing,
    handle_equilibria,
    interior_zero_scan,
    parse_twist_word,
    smith_diagonal,
    sphere_surface_zeros,
    zero_sphere_field,
)

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


def toward_north(u):
    return NORTH - (u @ NORTH) * u


def rotation(u):
    return np.cross(NORTH, u)


def tangential(grad):
    """Tangential part of the ambient vector field ``grad``."""

    def surf(u):
        g = grad(u)
        return g - (g @ u) * u

    return surf


def xy_gradient(u):
    # tangential part of grad(xy): saddles at both poles, and a maximum or
    # minimum at each of the four equator points (+-1, +-1, 0)/sqrt(2)
    g = np.array([u[1], u[0], 0.0])
    return g - (g @ u) * u


def plane_field_on_sphere(plane):
    """Plane field carried to the sphere by projection from the north pole,
    built like ``dipole_sphere_field`` (independently of the chart code)."""

    def surf(u):
        x = u[0] / (1.0 - u[2])
        y = u[1] / (1.0 - u[2])
        v = plane(complex(x, y))
        s = 1.0 + x * x + y * y
        dot = x * v.real + y * v.imag
        return np.array(
            [
                2.0 * v.real / s - 4.0 * x * dot / (s * s),
                2.0 * v.imag / s - 4.0 * y * dot / (s * s),
                4.0 * dot / (s * s),
            ]
        )

    return surf


def sympy_smith_diagonal(rows):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(snf.shape))]


def integer_matrices(size, bound):
    return st.integers(1, size).flatmap(
        lambda m: st.integers(1, size).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                min_size=m, max_size=m,
            )
        )
    )


class TestSmithDiagonal:
    @given(integer_matrices(4, 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, rows):
        assert smith_diagonal(rows) == sympy_smith_diagonal(rows)

    def test_low_rank_matches_sympy(self):
        # products of thin factors: rank deficiency and shared factors
        rng = random.Random(5)
        for _ in range(100):
            m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                    for i in range(m)]
            assert smith_diagonal(rows) == sympy_smith_diagonal(rows)

    @given(integer_matrices(6, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_at_the_twist_h1_shape(self, rows):
        # twist-h1 presentations are 3x3 to 6x6 with entries up to ~6,000
        assert smith_diagonal(rows) == sympy_smith_diagonal(rows)

    def test_low_rank_six_by_six_matches_sympy(self):
        rng = random.Random(6)
        for _ in range(100):
            k = rng.randint(1, 5)
            left = [[rng.randint(-100, 100) for _ in range(k)] for _ in range(6)]
            right = [[rng.randint(-100, 100) for _ in range(6)] for _ in range(k)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(6)]
                    for i in range(6)]
            assert smith_diagonal(rows) == sympy_smith_diagonal(rows)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # pairwise gcd/lcm puts a diagonal in divisibility order
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
            ([[0, 0], [0, 3]], [3, 0]),
            ([[-4]], [4]),
            ([], []),
            ([[]], []),
            ([[0, 0, 0]], [0]),
        ],
    )
    def test_pinned_diagonals(self, rows, expected):
        assert smith_diagonal(rows) == expected

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_diagonal([[1, 2], [3]])

    @pytest.mark.parametrize(
        "rows", [[[2.7, 0], [0, 3.2]], [[math.inf]], [[1, math.nan]], [[-math.inf, 2]]]
    )
    def test_fractional_or_non_finite_entries_rejected(self, rows):
        # truncation would give [1, 6] for the first; int(inf) overflows
        with pytest.raises(ValueError, match="matrix entry must be"):
            smith_diagonal(rows)

    def test_numpy_sympy_and_whole_float_entries_accepted(self):
        import sympy

        rows = [[2, 4], [6, 8]]
        assert smith_diagonal(np.array(rows)) == [2, 4]
        assert smith_diagonal(sympy.Matrix(rows).tolist()) == [2, 4]
        assert smith_diagonal([[2.0, 4.0], [6.0, 8.0]]) == [2, 4]


def brute_force_genera(indices):
    out = {1}
    for size in range(1, len(indices) + 1):
        for subset in itertools.combinations(indices, size):
            total = sum(subset)
            if total % 2 == 0 and total <= 2:
                out.add(1 - total // 2)
    return out


class TestFeasibleGenera:
    @given(st.lists(st.integers(-4, 3), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_enumeration(self, indices):
        assert feasible_genera(IndexSet(tuple(indices))) == brute_force_genera(indices)

    def test_no_equilibria_allows_only_genus_one(self):
        assert feasible_genera(IndexSet(())) == {1}

    def test_index_limit(self):
        with pytest.raises(TooManyEquilibria):
            feasible_genera(IndexSet((1,) * (MAX_SUBSET_INDICES + 1)))

    @pytest.mark.parametrize(
        "indices, hyperbolic",
        [((1.5, -0.7), 0), ((1, math.nan), 0), ((math.inf,), 0), ((1, -1), 0.5)],
    )
    def test_fractional_or_non_finite_input_rejected(self, indices, hyperbolic):
        # truncation would turn (1.5, -0.7) into (1, 0)
        with pytest.raises(ValueError, match="must be"):
            IndexSet(indices, hyperbolic_count=hyperbolic)

    @pytest.mark.parametrize("hyperbolic", [-1, 3])
    def test_hyperbolic_count_beyond_the_indices_rejected(self, hyperbolic):
        with pytest.raises(ValueError, match="hyperbolic count must lie between 0 and the index"):
            IndexSet((1, -1), hyperbolic_count=hyperbolic)

    def test_numpy_indices_become_ints(self):
        s = IndexSet(np.array([1, -1, 2]), hyperbolic_count=np.int64(1))
        assert s.indices == (1, -1, 2) and s.hyperbolic_count == 1
        assert all(type(i) is int for i in s.indices + (s.hyperbolic_count,))


class TestSplittingBookkeeping:
    @pytest.mark.parametrize(
        "hyperbolic, p, expected",
        [(0, 1, True), (1, 2, False), (2, 2, True), (3, 3, False), (4, 3, True), (5, 3, True)],
    )
    def test_corollary_needs_two_p_minus_one_hyperbolic(self, hyperbolic, p, expected):
        s = IndexSet((-1,) * hyperbolic + (1,) * 3, hyperbolic_count=hyperbolic)
        assert corollary_check(s, p) is expected

    @pytest.mark.parametrize("p", [0, -1])
    def test_corollary_genus_below_one_rejected(self, p):
        with pytest.raises(ValueError):
            corollary_check(IndexSet((1, 1)), p)

    @pytest.mark.parametrize("genus", [0, 1, 2, 5])
    def test_handle_equilibria_centre_plus_one_per_handle(self, genus):
        assert handle_equilibria(genus) == 1 + genus

    def test_handle_equilibria_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            handle_equilibria(-1)


class TestTwistWordHomology:
    @pytest.mark.parametrize(
        "text, genus, expected",
        [
            ("a1", 1, AbelianGroup(0)),
            ("b1", 1, AbelianGroup(1)),
            ("a1^5 b1", 1, AbelianGroup(0, (5,))),
            ("a1^-3", 1, AbelianGroup(0, (3,))),
            ("a1^4 a2^6", 2, AbelianGroup(0, (2, 12))),
            ("", 2, AbelianGroup(2)),
        ],
    )
    def test_known_groups(self, text, genus, expected):
        assert h1_from_gluing(compose_word(parse_twist_word(text), genus)) == expected

    @pytest.mark.parametrize("p", range(2, 8))
    def test_lens_space_order(self, p):
        # gluing by a1^p gives the lens space L(p, 1), with H1 = Z/p
        assert h1_from_gluing(compose_word(parse_twist_word(f"a1^{p}"), 1)) == AbelianGroup(0, (p,))

    def test_power_stays_one_letter(self):
        word = parse_twist_word("a1^3 b1^-2 a2^0 g1")
        assert word == TwistWord((("a1", 3), ("b1", -2), ("g1", 1)))
        assert list(word) == [("a1", 3), ("b1", -2), ("g1", 1)]
        assert len(word) == 6  # unit twists: 3 + 2 + 1
        assert len(parse_twist_word("")) == len(parse_twist_word("a1^0")) == 0

    @pytest.mark.parametrize("token", ["c1", "a", "a1^", "a1^+2", "a1^2.5", "A1", "a1b1"])
    def test_bad_twist_token_rejected(self, token):
        with pytest.raises(ValueError, match=f"bad twist token '{re.escape(token)}'"):
            parse_twist_word(f"a1 {token} b1")

    def test_huge_power_is_one_update(self):
        # T^k = I + k c w^T: a1^1000000 b1 is two letters, not a million
        word = parse_twist_word("a1^1000000 b1")
        assert word.letters == (("a1", 1000000), ("b1", 1))
        assert len(word) == 1000001
        gluing = compose_word(word, 1)
        assert gluing.entries == ((-999999, 1000000), (-1, 1))
        assert h1_from_gluing(gluing) == AbelianGroup(0, (1000000,))

    def test_group_text(self):
        assert str(AbelianGroup(0, (2, 12))) == "Z/2 + Z/12"
        assert str(AbelianGroup(2)) == "Z^2"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(1, (3,))) == "Z + Z/3"
        assert str(AbelianGroup(0)) == "0"

    @pytest.mark.parametrize(
        "rank, torsion, message",
        [(-1, (), "rank must be at least 0"), (0, (1,), "at least 2"), (0, (0,), "at least 2"),
         (1, (2, -4), "at least 2"), (0, (2, 3), "divisibility chain"),
         (0, (4, 2), "divisibility chain"), (2, (2, 4, 6), "divisibility chain")],
    )
    def test_group_rejects_a_negative_rank_or_bad_torsion(self, rank, torsion, message):
        with pytest.raises(ValueError, match=message):
            AbelianGroup(rank, torsion)

    @pytest.mark.parametrize(
        "rank, torsion",
        [(0, (2.9,)), (1.5, ()), (0, (2, math.inf)), (math.nan, ()), (0, (math.nan,))],
    )
    def test_group_rejects_fractional_or_non_finite_input(self, rank, torsion):
        # truncation printed Z/2 for torsion 2.9, and Z^1.5 for rank 1.5
        with pytest.raises(ValueError, match="must be"):
            AbelianGroup(rank, torsion)

    def test_group_takes_numpy_and_sympy_integers(self):
        import sympy

        group = AbelianGroup(np.int64(2), (sympy.Integer(3), np.int64(6), 12.0))
        assert group == AbelianGroup(2, (3, 6, 12))
        assert str(group) == "Z^2 + Z/3 + Z/6 + Z/12"


def _oracle_class(curve: str, genus: int):
    """Homology class from the module docstring: a_i, b_i basis vectors, g_i = b_i - b_(i+1)."""
    import sympy

    kind, i = curve[0], int(curve[1:])
    c = sympy.zeros(2 * genus, 1)
    if kind == "a":
        c[2 * i - 2] = 1
    elif kind == "b":
        c[2 * i - 1] = 1
    else:
        c[2 * i - 1] = 1
        c[2 * i + 1] = -1
    return c


def _oracle_j(genus: int):
    import sympy

    j = sympy.zeros(2 * genus, 2 * genus)
    for i in range(genus):
        j[2 * i, 2 * i + 1] = 1
        j[2 * i + 1, 2 * i] = -1
    return j


def standard_curves(genus: int) -> list[str]:
    curves = [f"{k}{i}" for k in "ab" for i in range(1, genus + 1)]
    return curves + [f"g{i}" for i in range(1, genus)]


@st.composite
def twist_words(draw):
    # the benchmark's twist-h1 words run at genus 3-6 with tens of letters
    genus = draw(st.integers(1, 6))
    letters = st.tuples(st.sampled_from(standard_curves(genus)), st.sampled_from((1, -1)))
    return genus, draw(st.lists(letters, max_size=60))


class TestGluingMatrix:
    def test_accepts_a_symplectic_matrix(self):
        m = GluingMatrix(1, ((1, 1), (0, 1)))
        assert m.entries == ((1, 1), (0, 1))

    def test_rejects_a_non_symplectic_matrix(self):
        with pytest.raises(ValueError, match="not integrally symplectic"):
            GluingMatrix(1, ((1, 1), (1, 1)))
        with pytest.raises(ValueError, match="not integrally symplectic"):
            GluingMatrix(2, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    @pytest.mark.parametrize(
        "genus, entries",
        [(2, ((1, 0), (0, 1))), (1, ((1, 0, 0), (0, 1, 0))), (1, ((1, 0), (0,)))],
    )
    def test_rejects_a_wrong_shape(self, genus, entries):
        with pytest.raises(ValueError, match="entries must be"):
            GluingMatrix(genus, entries)

    @pytest.mark.parametrize("genus", [0, -1])
    def test_rejects_genus_below_one(self, genus):
        with pytest.raises(ValueError, match="genus must be at least 1"):
            GluingMatrix(genus, ())

    @pytest.mark.parametrize(
        "word, genus, message",
        [
            ([("a3", 1)], 2, "out of range"),
            ([("b1", 1), ("g2", 1)], 2, "chain curves"),
            ([("x1", 1)], 1, "bad curve id"),
            ([("a1", 1.5)], 1, "exponent"),
            ([("a1", 1), ("b1", 0)], 1, "exponent"),
            ([], 0, "genus must be at least 1"),
            ([("a1", 1)], 0, "genus must be at least 1"),
            ([("a1", 1)], -1, "genus must be at least 1"),
            # each index range at its edges
            ([("a0", 1)], 3, "out of range"),
            ([("b4", 1)], 3, "out of range"),
            ([("g0", 1)], 3, "chain curves"),
            ([("g3", 1)], 3, "chain curves"),
            # curve ids that are not str, hashable or not
            ([(1, 1)], 1, "bad curve id"),
            ([(["a1"], 1)], 1, "bad curve id"),
        ],
    )
    def test_compose_word_rejects_bad_input(self, word, genus, message):
        with pytest.raises(ValueError, match=message):
            compose_word(word, genus)

    @settings(max_examples=60, deadline=None)
    @given(twist_words())
    def test_compose_word_matches_a_sympy_product_of_transvections(self, case):
        import sympy

        genus, word = case
        j = _oracle_j(genus)
        expected = sympy.eye(2 * genus)
        for curve, exponent in word:
            c = _oracle_class(curve, genus)
            expected = expected * (sympy.eye(2 * genus) + exponent * c * c.T * j)
        assert expected.T * j * expected == j
        got = compose_word(word, genus)
        assert got.genus == genus
        assert got.entries == tuple(tuple(int(x) for x in row) for row in expected.tolist())

    @pytest.mark.parametrize("curve", standard_curves(3))
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_twist_power_is_a_closed_form_transvection(self, curve, k):
        # <c, c> = 0 makes the transvection unipotent: T^k = I + k c (J^T c)^T
        import sympy

        c, j = _oracle_class(curve, 3), _oracle_j(3)
        step = c * (j.T * c).T
        assert step * step == sympy.zeros(6, 6)
        expected = sympy.eye(6) + k * step
        got = compose_word(parse_twist_word(f"{curve}^{k}"), 3)
        assert got.entries == tuple(tuple(int(x) for x in row) for row in expected.tolist())

    @settings(max_examples=60, deadline=None)
    @given(twist_words(), st.lists(st.integers(-5, 5).filter(bool), min_size=60, max_size=60))
    def test_power_letter_equals_its_unit_letters(self, case, powers):
        # (curve, k) composes as |k| letters (curve, sign k), and exponents
        # arrive through exact_int, so numpy integers pass
        genus, word = case
        word = [(curve, e * k) for (curve, e), k in zip(word, powers)]
        units = [(curve, 1 if k > 0 else -1) for curve, k in word for _ in range(abs(k))]
        expected = compose_word(units, genus).entries
        assert compose_word(word, genus).entries == expected
        assert compose_word([(c, np.int64(k)) for c, k in word], genus).entries == expected

    @settings(max_examples=60, deadline=None)
    @given(twist_words())
    def test_word_then_reversed_inverse_is_the_identity(self, case):
        genus, word = case
        inverse = [(curve, -exponent) for curve, exponent in reversed(word)]
        identity = tuple(tuple(int(i == j) for j in range(2 * genus)) for i in range(2 * genus))
        assert compose_word(word + inverse, genus).entries == identity
        assert compose_word(inverse + word, genus).entries == identity

    def test_accepts_a_perturbed_product_exactly_when_it_stays_symplectic(self):
        # twist-h1-shaped words with one entry moved by +-1: the check must
        # agree with an exact M^T J M == J on every matrix.  Some stay
        # symplectic, e.g. the identity with one b-entry moved, a transvection.
        rng = random.Random(3)
        verdicts = []
        for _ in range(300):
            genus = rng.randint(3, 6)
            curves = standard_curves(genus)
            word = [(rng.choice(curves), rng.choice((1, 1, 1, -1, -1, 2, -2, 3, -3)))
                    for _ in range(rng.randint(0, 60))]
            entries = [list(row) for row in compose_word(word, genus).entries]
            entries[rng.randrange(2 * genus)][rng.randrange(2 * genus)] += rng.choice((1, -1))
            m = np.array(entries, dtype=object)
            j = np.array(_oracle_j(genus).tolist(), dtype=object)
            symplectic = bool((m.T @ j @ m == j).all())
            try:
                GluingMatrix(genus, entries)
            except ValueError as raised:
                assert "not integrally symplectic" in str(raised)
                accepted = False
            else:
                accepted = True
            assert accepted == symplectic, (genus, word, entries)
            verdicts.append(accepted)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize(
        "entries",
        [((1, 0.5), (0, 1)), ((1, 1.5), (0, 1)), ((1, math.inf), (0, 1)), ((math.nan, 0), (0, 1))],
    )
    def test_rejects_fractional_or_non_finite_entries(self, entries):
        # truncating ((1, 0.5), (0, 1)) would give the identity, and H1 = Z
        with pytest.raises(ValueError, match="matrix entry must be"):
            GluingMatrix(1, entries)

    def test_numpy_and_sympy_entries_become_ints(self):
        import sympy

        for entries in (np.array([[1, 1], [0, 1]]), sympy.Matrix([[1, 1], [0, 1]]).tolist(),
                        ((1.0, 1.0), (0.0, 1.0))):
            m = GluingMatrix(np.int64(1), entries)
            assert m.entries == ((1, 1), (0, 1))
            assert type(m.genus) is int
            assert all(type(x) is int for row in m.entries for x in row)


def lens_word(p: int, q: int, handle: int = 1) -> list[tuple[str, int]]:
    """A gluing word of the lens space L(p, q) on one handle: the continued
    fraction p/q = [k1; k2, ...] gives a^k1 b^-k2 a^k3 ..., and the rotation
    a b a follows when the product's B entry is not +-p."""
    ks, n, m = [], p, q
    while m:
        ks.append(n // m)
        n, m = m, n % m
    word = [("b1", -k) if i % 2 else ("a1", k) for i, k in enumerate(ks)]
    if abs(compose_word(word, 1).entries[0][1]) != p:
        word += [("a1", 1), ("b1", 1), ("a1", 1)]
    return [(f"{curve[0]}{handle}", k) for curve, k in word]


class TestLensSpaces:
    """Exact oracles for the twist path: lens spaces, whose H1 and
    Reidemeister class are known from p and q."""

    COPRIME_PAIRS = [(p, q) for p in range(2, 60) for q in range(1, p) if math.gcd(p, q) == 1]

    def test_every_pair_gives_its_order_and_its_class(self):
        assert len(self.COPRIME_PAIRS) == 1085
        rotated = 0
        for p, q in self.COPRIME_PAIRS:
            word = lens_word(p, q)
            rotated += word[-3:] == [("a1", 1), ("b1", 1), ("a1", 1)]
            gluing = compose_word(word, 1)
            assert h1_from_gluing(gluing) == AbelianGroup(0, (p,)), (p, q, word)
            (_, b), (_, d) = gluing.entries
            q_inverse = pow(q, -1, p)
            # the linking class D sign(B) mod p is +-q^(+-1) (Reidemeister)
            assert (d if b > 0 else -d) % p in {q, p - q, q_inverse, p - q_inverse}, (p, q, word)
        assert rotated == 542

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(COPRIME_PAIRS), min_size=2, max_size=6))
    def test_lens_sums_give_the_smith_form_of_their_orders(self, pairs):
        word = [letter for i, (p, q) in enumerate(pairs, 1) for letter in lens_word(p, q, i)]
        torsion = tuple(d for d in sympy_smith_diagonal(
            [[p if i == j else 0 for j, (p, _) in enumerate(pairs)] for i in range(len(pairs))])
            if d > 1)
        assert h1_from_gluing(compose_word(word, len(pairs))) == AbelianGroup(0, torsion)


class TestBallExtension:
    def test_dipole_extension_has_no_interior_zero(self):
        scan = interior_zero_scan(BallExtensionField(dipole_sphere_field()), 2000, seed=3)
        assert scan["interior_hits"] == 0
        assert scan["hit_points"] == []
        assert scan["checked"] > 0

    def test_value_is_the_scaled_surface_field_plus_a_normal_push(self):
        u = np.array([2.0, -1.0, 2.0]) / 3.0
        f = BallExtensionField(rotation)
        assert np.allclose(f(0.5 * u), 0.5 * rotation(u) + 0.25 * u, rtol=0, atol=1e-15)
        assert np.allclose(f(u), rotation(u), rtol=0, atol=1e-15)

    def test_centre_is_an_equilibrium(self):
        f = BallExtensionField(dipole_sphere_field())
        assert np.array_equal(f(np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), 0.5])
    def test_a_point_that_is_not_a_3_vector_is_rejected(self, x):
        with pytest.raises(ValueError, match="x must be a 3-vector"):
            BallExtensionField(rotation)(x)

    @pytest.mark.parametrize("x", [[math.nan, 0.0, 0.0], [0.0, math.nan, 0.0],
                                   [0.0, 0.0, math.nan], [math.inf, 0.0, 0.0],
                                   [0.0, -math.inf, 0.0]])
    def test_a_point_that_is_not_finite_is_rejected(self, x):
        # NaN fails the |x| > 1 test, so it needs its own check
        with pytest.raises(ValueError, match="x must be finite"):
            BallExtensionField(dipole_sphere_field())(x)

    def test_a_point_outside_the_unit_ball_is_rejected(self):
        f = BallExtensionField(rotation)
        f(np.array([0.0, 0.6, 0.8]) * (1.0 + 1e-13))  # within the 1e-12 slack
        with pytest.raises(ValueError, match=r"\|x\| = 1.1 outside the unit ball"):
            f(np.array([0.0, 0.66, 0.88]))

    def test_scan_skips_the_origin_neighbourhood(self, monkeypatch):
        # no sample comes within the real 1e-3 of the centre (odds ~1e-9
        # each): widened to the whole ball, every sample is skipped
        monkeypatch.setattr(heegaard, "ORIGIN_EXCLUSION", 1.0)
        scan = interior_zero_scan(BallExtensionField(dipole_sphere_field()), 50, seed=3)
        assert scan["samples"] == 50 and scan["checked"] == 0
        assert scan["origin_exclusion"] == 1.0
        assert scan["min_field_magnitude"] is None

    def test_scan_reports_every_hit(self):
        # |V| = r |0.5 - r| / 100 vanishes on the sphere of radius 1/2: about
        # 3% of the samples fall within INTERIOR_HIT_TOL of it
        def f(p):
            return 0.01 * (0.5 - float(np.linalg.norm(p))) * p

        scan = interior_zero_scan(f, 2000, seed=1)
        hits = scan["hit_points"]
        assert scan["checked"] == 2000 and scan["interior_hits"] == len(hits) > 20
        for p in map(np.array, hits):
            assert np.linalg.norm(f(p)) < INTERIOR_HIT_TOL
            assert abs(np.linalg.norm(p) - 0.5) < 0.021
        assert scan["min_field_magnitude"] < INTERIOR_HIT_TOL

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan])
    def test_scan_rejects_a_bad_sample_count(self, n):
        with pytest.raises(ValueError, match="sample count must be"):
            interior_zero_scan(BallExtensionField(rotation), n)


class TestSphereSurfaceZeros:
    def test_dipole_double_zero_reported_once(self):
        zeros = sphere_surface_zeros(dipole_sphere_field())
        assert len(zeros) == 1
        assert np.linalg.norm(zeros[0] - SOUTH) < 1e-6

    def test_two_simple_zeros_at_the_poles(self):
        diag = 1.0 / math.sqrt(2.0)
        equator = [
            np.array([-diag, -diag, 0.0]),
            np.array([diag, -diag, 0.0]),
            np.array([diag, diag, 0.0]),
            np.array([-diag, diag, 0.0]),
        ]
        cases = [
            (toward_north, [SOUTH, NORTH]),
            (rotation, [SOUTH, NORTH]),
            (xy_gradient, [SOUTH] + equator + [NORTH]),
        ]
        for field, expected in cases:
            zeros = sphere_surface_zeros(field)
            assert len(zeros) == len(expected)
            for z in expected:
                assert min(np.linalg.norm(z - w) for w in zeros) < 1e-9

    def test_all_critical_points_of_a_quartic(self):
        # the tangential gradient of x^4 + 2y^4 + 3z^4 vanishes where
        # a_i x_i^2 is equal on the support: 6 + 12 + 8 points
        weights = np.array([1.0, 2.0, 3.0])
        expected = []
        for support in itertools.chain(*(itertools.combinations(range(3), k) for k in (1, 2, 3))):
            support = list(support)
            squares = 1.0 / weights[support]
            for signs in itertools.product((-1.0, 1.0), repeat=len(support)):
                p = np.zeros(3)
                p[support] = np.array(signs) * np.sqrt(squares / squares.sum())
                expected.append(p)
        zeros = sphere_surface_zeros(tangential(lambda u: 4.0 * weights * u**3))
        assert len(expected) == 26
        assert len(zeros) == 26
        for z in expected:
            assert min(np.linalg.norm(z - w) for w in zeros) < 1e-9

    @pytest.mark.parametrize("theta", [0.0] + [math.pi * k / 4.0 + 0.1 for k in range(8)])
    def test_equator_zeros_reported_once(self, theta):
        # a zero on the equator lies on |w| = 1 in both charts, and each
        # chart may place it just outside its unit disc; theta = 0 is the
        # gradient of x, with zeros at +-e1
        a = np.array([math.cos(theta), math.sin(theta), 0.0])
        zeros = sphere_surface_zeros(tangential(lambda u: a))
        assert len(zeros) == 2
        for z in (a, -a):
            assert min(np.linalg.norm(z - w) for w in zeros) < 1e-9

    def test_circle_of_zeros_shows_as_equator_points(self):
        # u2 (e3 - u2 u) vanishes at both poles and on the whole equator; no
        # winding circle can be drawn around a point of the equator, but its
        # zeros are still located
        field = tangential(lambda u: np.array([0.0, 0.0, u[2]]))
        zeros = sphere_surface_zeros(field)
        for pole in (SOUTH, NORTH):
            assert min(np.linalg.norm(pole - w) for w in zeros) < 1e-9
        assert all(np.linalg.norm(field(z)) <= SPHERE_ZERO_TOL for z in zeros)
        on_equator = [z for z in zeros if abs(z[2]) < 1e-9]
        assert on_equator and len(on_equator) == len(zeros) - 2

    def test_each_chart_skips_the_zero_past_its_hemisphere(self):
        # zeros +-p at latitude +-0.1 lie at |w| = 0.905 in one chart and at
        # |w| = 1.105 in the other: each chart's scan returns only the zero in
        # its own closed unit disc, and the field is checked once per chart
        p = np.array([math.sqrt(0.99), 0.0, 0.1])
        calls, marks, radii = [], [], []

        def surface(u):
            calls.append(u)
            return p - (u @ p) * u

        def recording(*args, **kwargs):
            marks.append(len(calls))
            found = locate_zeros(*args, **kwargs)
            marks.append(len(calls))
            radii.append([abs(w) for w in found[0]])
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heegaard, "locate_zeros", recording)
            zeros = sphere_surface_zeros(surface)
        marks.append(len(calls))
        assert radii == [pytest.approx([math.sqrt(0.9 / 1.1)], rel=1e-9)] * 2
        assert [marks[2] - marks[1], marks[4] - marks[3]] == [1, 1]
        # the cells of the 31 x 31 grid that meet the unit disc have 584
        # corners, and the one Newton run adds 15 evaluations; the cells
        # meeting the grid's whole |w| <= 1.25 disc have 864 corners
        scans = [marks[1] - marks[0], marks[3] - marks[2]]
        assert all(584 <= n < 620 for n in scans)
        assert len(zeros) == 2
        for z in (p, -p):
            assert min(np.linalg.norm(z - w) for w in zeros) < 1e-9

    def test_a_chart_zero_where_the_field_has_a_normal_part_is_skipped(self):
        # the chart sees only the tangent part, which vanishes at the poles;
        # the field itself is 0.5 u there, far above SPHERE_ZERO_TOL
        assert sphere_surface_zeros(lambda u: toward_north(u) + 0.5 * u) == []
        assert len(sphere_surface_zeros(toward_north)) == 2

    def test_identically_zero_field_has_no_isolated_zeros(self):
        assert sphere_surface_zeros(zero_sphere_field()) == []

    def test_dipole_is_constant_at_the_north_pole(self):
        # the plane chart at infinity sees a constant field: (-2, 0, 0) at the
        # pole itself, where the projection divides by zero, and near it
        surf = dipole_sphere_field()
        assert np.array_equal(surf(NORTH), [-2.0, 0.0, 0.0])
        near = np.array([1e-4, 2e-4, 0.0])
        near[2] = math.sqrt(1.0 - near @ near)
        assert np.allclose(surf(near), [-2.0, 0.0, 0.0], rtol=0, atol=1e-3)

    def test_results_are_unit_vectors(self):
        for field in (dipole_sphere_field(), rotation, xy_gradient):
            for z in sphere_surface_zeros(field):
                assert math.isclose(float(np.linalg.norm(z)), 1.0, rel_tol=1e-12)
                assert np.linalg.norm(field(z)) <= SPHERE_ZERO_TOL

    @pytest.mark.parametrize("eps", [1e-6, 5e-9, 5e-11])
    def test_never_vanishing_field_has_no_zeros(self, eps):
        # |V| >= 2 eps, with its minimum at the south pole: the solver's own
        # planar acceptance (ZERO_TOL = 1e-8) must not stand in for the
        # sphere's SPHERE_ZERO_TOL
        field = plane_field_on_sphere(lambda z: abs(z) ** 2 + eps)
        assert np.linalg.norm(field(SOUTH)) == pytest.approx(2.0 * eps)
        assert sphere_surface_zeros(field) == []

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_chart_inverts_stereographic_projection(self, s):
        rng = np.random.default_rng(7)
        for w in rng.normal(size=20) + 1j * rng.normal(size=20):
            u = _from_chart(w, s)
            assert math.isclose(float(np.linalg.norm(u)), 1.0, rel_tol=1e-14)
            assert abs(complex(u[0], u[1]) / (1.0 - s * u[2]) - w) < 1e-13 * max(1.0, abs(w))
        assert np.array_equal(_from_chart(0j, s), -s * NORTH)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_chart_value_keeps_the_tangent_length(self, s):
        rng = np.random.default_rng(11)
        for field in (toward_north, rotation, xy_gradient, dipole_sphere_field()):
            chart = _chart(field, s)
            for w in 2.0 * (rng.normal(size=10) + 1j * rng.normal(size=10)):
                assert abs(chart(w)) == pytest.approx(
                    np.linalg.norm(field(_from_chart(w, s))), rel=1e-12, abs=1e-15
                )
