import cmath
import os

import numpy as np
import pytest
from hypothesis import settings

from surfaceflows.autovec import build_automorphic_field
from surfaceflows.errors import NearPole
from surfaceflows.moebius import MoebiusMap

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run, so a new
# property cannot turn a push red by chance.  Example counts are unchanged.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")

# Generating set of the genus-two demo system: three det-1 maps plus one
# affine scaling, and the two seed poles its field is built from.
GENUS2_GENERATORS = (
    MoebiusMap(-2, -13, 1, 6),
    MoebiusMap(0, -1, 1, 4),
    MoebiusMap(6, -13, 1, -2),
    MoebiusMap(7, -28, 0, 1),
)
NUMERATOR_POLE = -2 + 3j    # the field has a pole here
DENOMINATOR_POLE = 2 + 3j   # ... and a zero here


@pytest.fixture(scope="session")
def genus2_generators():
    return GENUS2_GENERATORS


@pytest.fixture(scope="session")
def demo_field():
    """Fields of the genus-two demo system, cached per truncation radius."""
    cache = {}

    def get(truncation=4):
        if truncation not in cache:
            cache[truncation] = build_automorphic_field(
                GENUS2_GENERATORS, NUMERATOR_POLE, DENOMINATOR_POLE, truncation=truncation
            )
        return cache[truncation]

    return get


def assert_array_form_matches(field, points):
    """``field.on_array`` on ``points`` equals the scalar field point by point
    within 1e-14 max(1, |F|), and is NaN exactly where the scalar form raises
    NearPole."""
    got = field.on_array(np.array(points, dtype=complex)).tolist()
    assert len(got) == len(points)
    for z, g in zip(points, got):
        try:
            want = field(z)
        except NearPole:
            assert cmath.isnan(g), z
            continue
        assert abs(g - want) <= 1e-14 * max(1.0, abs(want)), (z, g, want)
