from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows.autovec import canonical_field
from surfaceflows.errors import (
    DiscContainsZero,
    MissingEquilibrium,
    NotInverse,
    PlanMismatch,
)
from surfaceflows.flowlab import sector_index
from surfaceflows.surgery import (
    EquilibriumSpec,
    SumMode,
    SumPlan,
    Sum3Inventory,
    SurfaceInventory,
    connect_inventories,
    elliptic_spec,
    hyperbolic_spec,
    numeric_connected_sum,
    sum3_check,
    verify_inventory,
)

specs = st.builds(EquilibriumSpec, st.integers(0, 4), st.integers(0, 4))


@st.composite
def surfaces(draw):
    orientable = draw(st.booleans())
    genus = draw(st.integers(0 if orientable else 1, 3))
    return genus, orientable


def balanced(genus, orientable, equilibria):
    """Pads ``equilibria`` with half-saddles, centres and saddles until the
    index sum equals chi."""
    chi = 2 - 2 * genus if orientable else 2 - genus
    eq = list(equilibria)
    gap = chi - sum((e.index for e in eq), Fraction(0))
    if gap.denominator == 2:
        eq.append(EquilibriumSpec(0, 1))  # index 1/2
        gap -= Fraction(1, 2)
    pad = elliptic_spec() if gap > 0 else hyperbolic_spec()
    eq += [pad] * abs(int(gap))
    return SurfaceInventory(genus, orientable, tuple(eq))


@st.composite
def sums(draw):
    """Two balanced inventories and a plan that is valid for them."""
    mode = draw(st.sampled_from(list(SumMode)))
    if mode is SumMode.NO_EQUILIBRIA:
        plan = SumPlan(mode)
    else:
        r1 = draw(specs)
        if mode is SumMode.DUAL:
            plan = SumPlan(mode, r1, r1.dual())
        elif mode is SumMode.SAME_STRUCTURE:
            plan = SumPlan(mode, r1, r1)
        else:
            n11 = draw(st.integers(0, r1.n_e))
            n21 = draw(st.integers(0, r1.n_h))
            r2 = EquilibriumSpec(n11 + r1.n_h - n21, n21 + r1.n_e - n11)
            plan = SumPlan(mode, r1, r2, n11, n21)
    invs = []
    for removed in (plan.removed1, plan.removed2):
        extra = draw(st.lists(specs, max_size=4))
        invs.append(balanced(*draw(surfaces()), extra + ([removed] if removed else [])))
    return invs[0], invs[1], plan


class TestConnectInventories:
    @given(sums())
    @settings(max_examples=300, deadline=None)
    def test_chi_and_index_sum(self, case):
        inv1, inv2, plan = case
        out = connect_inventories(inv1, inv2, plan)
        assert out.chi == inv1.chi + inv2.chi - 2
        assert out.index_sum == out.chi
        assert out.orientable == (inv1.orientable and inv2.orientable)
        assert verify_inventory(out).ok

    @given(sums())
    @settings(max_examples=100, deadline=None)
    def test_kept_equilibria_survive(self, case):
        inv1, inv2, plan = case
        out = Counter(connect_inventories(inv1, inv2, plan).equilibria)
        kept = Counter(inv1.equilibria) + Counter(inv2.equilibria)
        kept -= Counter(r for r in (plan.removed1, plan.removed2) if r is not None)
        assert not kept - out

    def test_crosscap_arithmetic(self):
        torus = balanced(1, True, [])
        klein = balanced(2, False, [])
        plane = balanced(1, False, [])
        out = connect_inventories(torus, plane, SumPlan(SumMode.NO_EQUILIBRIA))
        assert (out.genus, out.orientable, out.chi) == (3, False, -1)
        out = connect_inventories(klein, plane, SumPlan(SumMode.NO_EQUILIBRIA))
        assert (out.genus, out.orientable, out.chi) == (3, False, -1)
        out = connect_inventories(torus, torus, SumPlan(SumMode.NO_EQUILIBRIA))
        assert (out.genus, out.orientable, out.chi) == (2, True, -2)

    def test_unbalanced_input_rejected(self):
        sphere = SurfaceInventory(0, True, (elliptic_spec(),))
        with pytest.raises(ValueError):
            connect_inventories(sphere, balanced(0, True, []), SumPlan(SumMode.NO_EQUILIBRIA))

    def test_dual_mode_needs_the_dual(self):
        sphere = balanced(0, True, [EquilibriumSpec(2, 0)])
        plan = SumPlan(SumMode.DUAL, EquilibriumSpec(2, 0), EquilibriumSpec(2, 0))
        with pytest.raises(PlanMismatch):
            connect_inventories(sphere, sphere, plan)

    def test_missing_equilibrium(self):
        sphere = balanced(0, True, [])
        plan = SumPlan(SumMode.SAME_STRUCTURE, EquilibriumSpec(3, 1), EquilibriumSpec(3, 1))
        with pytest.raises(MissingEquilibrium):
            connect_inventories(sphere, sphere, plan)

    @pytest.mark.parametrize("n_e, n_h", [(0, 0), (0, 4), (2, 0), (3, 1), (1, 4)])
    def test_spec_index_is_the_sector_formula(self, n_e, n_h):
        spec = EquilibriumSpec(n_e, n_h)
        assert spec.index == sector_index(n_e, n_h) == 1 + Fraction(n_e - n_h, 2)
        assert spec.index + spec.dual().index == 2


DISC1 = (2 + 0j, 0.5)
DISC2 = (-1 + 1.5j, 0.6)


class TestNumericConnectedSum:
    @pytest.mark.parametrize(
        "kind1, kind2", [("center", "center"), ("node", "saddle"), ("saddle", "saddle")]
    )
    def test_boundary_winding_counts_tube_zeros(self, kind1, kind2):
        chart = numeric_connected_sum(canonical_field(kind1), DISC1, canonical_field(kind2), DISC2)
        assert chart.boundary_winding == sum(z.winding_index for z in chart.zeros)
        # two index +1 zeros removed, chi drops by two: the tube holds -2
        assert chart.boundary_winding == -2

    def test_disc_over_a_zero_rejected(self):
        with pytest.raises(DiscContainsZero, match="disc1"):
            numeric_connected_sum(
                canonical_field("node"), (0.1 + 0j, 0.5), canonical_field("node"), DISC2
            )
        with pytest.raises(DiscContainsZero, match="disc2"):
            numeric_connected_sum(
                canonical_field("node"), DISC1, canonical_field("node"), (0.1 + 0j, 0.5)
            )


class TestSum3:
    def test_removed_pair_cancels(self):
        a = Sum3Inventory((1, -1, 2, -2))
        b = Sum3Inventory((-2, 2))
        out = sum3_check(a, b, removed=(2, -2))
        assert sorted(out.indices) == [-2, -1, 1, 2]
        assert sum(out.indices) == 0
        assert out.marker == "none"

    def test_no_removal_leaves_a_circle_or_cycle(self):
        a, b = Sum3Inventory((1, -1)), Sum3Inventory(())
        assert sum3_check(a, b).marker == "circle-of-equilibria"
        assert sum3_check(a, b, twist=True).marker == "limit-cycle"
        assert sum3_check(a, b).indices == (1, -1)

    def test_not_inverse(self):
        with pytest.raises(NotInverse):
            sum3_check(Sum3Inventory((1, -1)), Sum3Inventory((1, -1)), removed=(1, 1))

    def test_missing_index(self):
        with pytest.raises(MissingEquilibrium):
            sum3_check(Sum3Inventory((1, -1)), Sum3Inventory(()), removed=(1, -1))

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError):
            Sum3Inventory((1, 1))
