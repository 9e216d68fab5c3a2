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
    AbelianGroup,
    BallExtensionField,
    IndexSet,
    compose_word,
    dipole_sphere_field,
    feasible_genera,
    h1_from_gluing,
    interior_zero_scan,
    parse_twist_word,
    smith_diagonal,
    sphere_surface_zeros,
    zero_sphere_field,
)

SOUTH = np.array([0.0, 0.0, -1.0])
NORTH = np.array([0.0, 0.0, 1.0])


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
        def toward_north(u):
            return NORTH - (u @ NORTH) * u

        zeros = sphere_surface_zeros(toward_north)
        assert len(zeros) == 2
        assert np.linalg.norm(zeros[0] - SOUTH) < 1e-9
        assert np.linalg.norm(zeros[1] - NORTH) < 1e-9

    def test_identically_zero_field_has_no_isolated_zeros(self):
        assert sphere_surface_zeros(zero_sphere_field()) == []

    def test_results_are_unit_vectors(self):
        for z in sphere_surface_zeros(dipole_sphere_field()):
            assert math.isclose(float(np.linalg.norm(z)), 1.0, rel_tol=1e-12)
