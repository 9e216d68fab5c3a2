import os

import pytest
from hypothesis import settings

from surfaceflows.autovec import build_automorphic_field
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
