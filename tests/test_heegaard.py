import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows.errors import TooManyEquilibria
from surfaceflows.heegaard import (
    MAX_SUBSET_INDICES,
    SPHERE_ZERO_TOL,
    AbelianGroup,
    BallExtensionField,
    IndexSet,
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


integer_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)


class TestSmithDiagonal:
    @given(integer_matrices)
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

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_diagonal([[1, 2], [3]])


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

    def test_group_text(self):
        assert str(AbelianGroup(0, (2, 12))) == "Z/2 + Z/12"
        assert str(AbelianGroup(2)) == "Z^2"
        assert str(AbelianGroup(0)) == "0"


class TestBallExtension:
    @pytest.mark.parametrize(
        "profiles",
        [
            {"a": lambda r: r + 0.1},            # a(0) != 0
            {"b": lambda r: r * (1.0 - r) + 0.1},  # b(0), b(1) != 0
            {"b": lambda r: r * (r - 1.0)},       # negative inside
            {"b": lambda r: r * (1.0 - r) * (r - 0.5) ** 2},  # zero at r = 1/2
        ],
    )
    def test_bad_profiles_rejected(self, profiles):
        with pytest.raises(ValueError):
            BallExtensionField(dipole_sphere_field(), **profiles)

    def test_dipole_extension_has_no_interior_zero(self):
        scan = interior_zero_scan(BallExtensionField(dipole_sphere_field()), 2000, seed=3)
        assert scan["interior_hits"] == 0
        assert scan["hit_points"] == []
        assert scan["checked"] > 0

    def test_centre_is_an_equilibrium(self):
        f = BallExtensionField(dipole_sphere_field())
        assert np.array_equal(f(np.zeros(3)), np.zeros(3))


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

    def test_identically_zero_field_has_no_isolated_zeros(self):
        assert sphere_surface_zeros(zero_sphere_field()) == []

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
