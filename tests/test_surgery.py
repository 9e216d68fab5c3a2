import cmath
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows import flowlab
from surfaceflows.autovec import CANONICAL_KINDS, PlanarField, canonical_field
from surfaceflows.errors import (
    BlendDegenerate,
    DiscContainsZero,
    MissingEquilibrium,
    NonIntegerWinding,
    NotInverse,
    PlanMismatch,
)
from surfaceflows.flowlab import find_zeros, sector_index
from surfaceflows.surgery import (
    TUBE_GRID,
    EquilibriumSpec,
    SumMode,
    SumPlan,
    Sum3Inventory,
    SurfaceInventory,
    TubeBlend,
    connect_inventories,
    elliptic_spec,
    hyperbolic_spec,
    numeric_connected_sum,
    sum3_check,
)

from conftest import assert_array_form_matches

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
        assert out.balanced

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

    @pytest.mark.parametrize("mode", [SumMode.DUAL, SumMode.SAME_STRUCTURE])
    @pytest.mark.parametrize("n_e, n_h", [(0, 0), (2, 0), (0, 4), (3, 1), (1, 3)])
    def test_dual_and_same_structure_are_split_plans(self, mode, n_e, n_h):
        r1 = EquilibriumSpec(n_e, n_h)
        if mode is SumMode.DUAL:
            r2, split = r1.dual(), (0, 0)
        else:
            r2, split = r1, (n_e, n_h)
        inv1 = balanced(1, True, [r1, hyperbolic_spec()])
        inv2 = balanced(2, False, [r2, elliptic_spec()])
        out = connect_inventories(inv1, inv2, SumPlan(mode, r1, r2))
        assert out == connect_inventories(inv1, inv2, SumPlan(SumMode.SPLIT, r1, r2, *split))

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


def clear_disc(uniform):
    """A disc clear of the canonical fields' zero at 0, its centre 2r + 0.5
    to 2r + 1.5 from it; ``uniform(lo, hi)`` draws each number."""
    r = uniform(0.3, 0.8)
    return cmath.rect(uniform(2.0 * r + 0.5, 2.0 * r + 1.5), uniform(0.0, 2.0 * math.pi)), r


def chart_summary(chart):
    return (chart.boundary_winding, [z.winding_index for z in chart.zeros],
            len(chart.zeros.zeros), len(chart.zeros.dropped))


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

    @pytest.mark.parametrize("disc, message", [
        ((complex(math.nan, 3.0), 0.5), "centre must be finite"),
        ((complex(3.0, math.inf), 0.5), "centre must be finite"),
        ((3 + 0j, math.nan), "radius must be positive and finite"),
        ((3 + 0j, math.inf), "radius must be positive and finite"),
        ((3 + 0j, 0.0), "radius must be positive and finite"),
        ((3 + 0j, -0.5), "radius must be positive and finite"),
    ], ids=["nan centre", "inf centre", "nan radius", "inf radius", "zero radius",
            "negative radius"])
    @pytest.mark.parametrize("side", ["disc1", "disc2"])
    def test_bad_disc_rejected_by_name(self, disc, message, side):
        discs = {"disc1": DISC1, "disc2": DISC2, side: disc}
        with pytest.raises(ValueError, match=f"^{side} {message}$"):
            numeric_connected_sum(canonical_field("node"), discs["disc1"],
                                  canonical_field("node"), discs["disc2"])

    def test_disc_centred_on_a_zero_rejected(self):
        # a disc has no inner boundary: a zero at its centre lies inside it
        with pytest.raises(DiscContainsZero, match="disc1"):
            numeric_connected_sum(
                canonical_field("node"), (0j, 0.5), canonical_field("node"), DISC2
            )

    def test_disc_zero_without_an_index_rejected(self, monkeypatch):
        # the zero is located but its winding fails: the disc is still not clear
        def no_index(field, center, radius):
            raise NonIntegerWinding("patched")

        monkeypatch.setattr(flowlab, "winding_index", no_index)
        with pytest.raises(DiscContainsZero, match="disc1"):
            numeric_connected_sum(
                canonical_field("node"), (0.1 + 0j, 0.5), canonical_field("node"), DISC2
            )

    def test_zero_on_the_tube_boundary_is_degenerate(self):
        # the outer tube circle's first sample, c1 + r_outer, is node's zero at 0
        r1, w = 0.5, 0.3
        with pytest.raises(BlendDegenerate, match="field vanishes on the tube boundary"):
            numeric_connected_sum(canonical_field("node"), (-(1 + w) * r1, r1),
                                  canonical_field("node"), (3, 0.5), TubeBlend(w))

    def test_winding_circle_stays_in_the_scanned_annulus(self):
        # field2's zero pulls back to 1.995+0.097i, 0.36 from c1: inside the
        # inner disc (radius 0.42), so never scanned, and 0.13 from the tube
        # zero at 1.868+0.108i, whose winding circle would give index 0 if
        # it reached that far
        c1 = 2.35 + 0.03j
        chart = numeric_connected_sum(canonical_field("saddle"), (c1, 0.52),
                                      canonical_field("node"), (0.58 - 0.11j, 0.41),
                                      TubeBlend(width=0.19))
        span = 1.02 * chart.r_outer
        full = find_zeros(chart.field, (c1.real - span, c1.real + span,
                                        c1.imag - span, c1.imag + span), TUBE_GRID)
        assert any(abs(z.location - c1) < chart.r_inner - 0.05 for z in full)
        in_tube = [z.winding_index for z in full
                   if chart.r_inner < abs(z.location - c1) < chart.r_outer]
        assert [z.winding_index for z in chart.zeros] == in_tube == [-1, -1]
        assert chart.boundary_winding == sum(in_tube)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(CANONICAL_KINDS), st.sampled_from(CANONICAL_KINDS),
           st.floats(0.05, 0.6), st.data())
    def test_array_form_matches_the_scalar_chart(self, kind1, kind2, width, data):
        def uniform(lo, hi):
            return data.draw(st.floats(lo, hi))

        (c1, r1), disc2 = clear_disc(uniform), clear_disc(uniform)
        chart = numeric_connected_sum(canonical_field(kind1), (c1, r1), canonical_field(kind2),
                                      disc2, TubeBlend(width))
        # both band edges, both tube edges, the disc centre, a point the
        # scalar form calls the centre (NearPole) and one just outside it
        rhos = (1.0 - 0.5 * width, 1.0 + 0.5 * width, 1.0 - width, 1.0 + width, 0.0, 1e-10, 1e-8)
        points = [c1 + r1 * rho * cmath.exp(1j * uniform(0.0, 2.0 * math.pi)) for rho in rhos]
        points += data.draw(st.lists(st.complex_numbers(
            max_magnitude=1.6 * r1, allow_nan=False, allow_infinity=False).map(lambda d: c1 + d),
            max_size=30))
        assert_array_form_matches(chart.field, points)

    @pytest.mark.parametrize("width", [0.25, 0.5])
    @pytest.mark.parametrize("kind1, kind2", [("saddle", "dipole"), ("dipole", "node"),
                                              ("center", "saddle")])
    def test_array_form_matches_the_scalar_chart_on_its_branch_edges(self, kind1, kind2, width):
        # dyadic centre, radius and widths: rho is exactly 1 - half or 1 + half
        # at the points on the axes through c1
        c1, r1, half = 0.5 + 0.25j, 0.5, 0.5 * width
        chart = numeric_connected_sum(canonical_field(kind1), (c1, r1), canonical_field(kind2),
                                      (2.0 + 1.0j, 1.0), TubeBlend(width))
        edges = [c1 + r1 * rho * u for rho in (1.0 - half, 1.0 + half) for u in (1, 1j, -1, -1j)]
        assert {abs(z - c1) / r1 for z in edges} == {1.0 - half, 1.0 + half}
        # the centre and points the scalar form calls the centre (NearPole)
        centre = [c1, c1 + 1e-12, c1 + 4e-10j, c1 - 3e-10 - 3e-10j]
        assert all(abs(z - c1) < 1e-9 * r1 for z in centre)
        assert_array_form_matches(chart.field, edges + centre)
        # one-sided arrays (the outer edge alone, then the inner edge and the
        # centre) take one field's branch only, and give each point the value
        # the mixed array gave it, bit for bit
        mixed = chart.field.on_array(np.array(edges + centre))
        for points, want in ((edges[4:], mixed[4:8]),
                             (edges[:4] + centre, np.r_[mixed[:4], mixed[8:]])):
            assert_array_form_matches(chart.field, points)
            np.testing.assert_array_equal(chart.field.on_array(np.array(points)), want)

    @pytest.mark.parametrize("width", [0.25, 0.5])
    def test_one_sided_arrays_evaluate_one_field(self, width):
        # a tube boundary circle lies on one side of the blend band: its
        # array reads only the field of that side
        calls = []

        def counted(kind, name):
            f = canonical_field(kind)
            return PlanarField(kind, f.func, on_array=lambda z: calls.append(name) or f.on_array(z))

        c1, r1, half = 0.5 + 0.25j, 0.5, 0.5 * width
        chart = numeric_connected_sum(counted("saddle", "field1"), (c1, r1),
                                      counted("node", "field2"), (2.0 + 1.0j, 1.0),
                                      TubeBlend(width))
        circle = np.exp(2j * np.pi * np.arange(32) / 32)
        axes = np.array([1, 1j, -1, -1j])  # dyadic: rho is exactly 1 - half or 1 + half
        for points, sides in ((c1 + chart.r_outer * circle, ["field1"]),
                              (c1 + r1 * (1.0 + half) * axes, ["field1"]),
                              (c1 + chart.r_inner * circle, ["field2"]),
                              (np.r_[c1 + r1 * (1.0 - half) * axes, c1], ["field2"]),
                              (c1 + r1 * circle, ["field1", "field2"])):
            calls.clear()
            chart.field.on_array(points)
            assert sorted(calls) == sides

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scalar_fallback_gives_the_same_chart(self, seed):
        # fields without an array form make the chart's scans loop point by point
        rng = random.Random(seed)
        for kind1, kind2 in zip(CANONICAL_KINDS, CANONICAL_KINDS[::-1]):
            f1, f2 = canonical_field(kind1), canonical_field(kind2)
            disc1, disc2 = clear_disc(rng.uniform), clear_disc(rng.uniform)
            tube = TubeBlend(rng.uniform(0.15, 0.45))
            charts = [numeric_connected_sum(a, disc1, b, disc2, tube)
                      for a, b in ((f1, f2), (lambda z: f1(z), lambda z: f2(z)), (f1, lambda z: f2(z)))]
            assert [hasattr(c.field, "on_array") for c in charts] == [True, False, False]
            assert chart_summary(charts[1]) == chart_summary(charts[0])

    def test_chart_dict_survives_json(self):
        chart = numeric_connected_sum(canonical_field("node"), (2.5 + 0j, 0.5),
                                      canonical_field("saddle"), (-2.5 + 0j, 0.5))
        data = chart.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert [z["winding_index"] for z in data["tube_zeros"]] == [
            z.winding_index for z in chart.zeros]
        assert data["boundary_winding"] == chart.boundary_winding


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

    @pytest.mark.parametrize("indices", [(0.7, 0.7), (1.5, -1.5), (math.inf, -math.inf)])
    def test_fractional_or_non_finite_indices_rejected(self, indices):
        # truncating (0.7, 0.7) to (0, 0) would pass the zero-sum check
        with pytest.raises(ValueError, match="index must be"):
            Sum3Inventory(indices)

    @pytest.mark.parametrize("removed", [(1.5, -1.5), (1, math.nan)])
    def test_fractional_or_non_finite_removed_pair_rejected(self, removed):
        with pytest.raises(ValueError, match="removed index must be"):
            sum3_check(Sum3Inventory((1, -1)), Sum3Inventory((1, -1)), removed=removed)

    def test_numpy_indices_accepted(self):
        a = Sum3Inventory(np.array([2, -2, 1, -1]))
        assert a.indices == (2, -2, 1, -1)
        assert all(type(i) is int for i in a.indices)
        out = sum3_check(a, Sum3Inventory((-2, 2)), removed=(np.int64(2), np.int64(-2)))
        assert sorted(out.indices) == [-2, -1, 1, 2]


class TestEquilibriumSpecInput:
    @pytest.mark.parametrize("n_e, n_h", [(0.5, 0), (0, 1.5), (math.inf, 0), (0, math.nan)])
    def test_fractional_or_non_finite_counts_rejected(self, n_e, n_h):
        with pytest.raises(ValueError, match="must be"):
            EquilibriumSpec(n_e, n_h)

    def test_whole_numbers_become_ints(self):
        spec = EquilibriumSpec(np.int64(2), 1.0)
        assert (spec.n_e, spec.n_h) == (2, 1)
        assert type(spec.n_e) is int and type(spec.n_h) is int


class TestIntegerInputs:
    @pytest.mark.parametrize("genus", [2.5, math.nan, math.inf])
    def test_fractional_or_non_finite_genus_rejected(self, genus):
        # 2.5 used to give chi = -3.0 and nan a nan chi
        with pytest.raises(ValueError, match="genus must be"):
            SurfaceInventory(genus, True)

    def test_whole_genus_becomes_int(self):
        for genus in (np.int64(2), 2.0):
            inv = SurfaceInventory(genus, True)
            assert type(inv.genus) is int and inv.chi == -2
        assert SurfaceInventory(np.int32(3), False).chi == -1

    @pytest.mark.parametrize("n11, n21", [(0.5, 0), (0, 1.5), (math.nan, 0), (0, -math.inf)])
    def test_fractional_or_non_finite_split_counts_rejected(self, n11, n21):
        r = EquilibriumSpec(2, 2)
        with pytest.raises(ValueError, match="n[12]1 must be"):
            SumPlan(SumMode.SPLIT, r, r, n11=n11, n21=n21)

    def test_whole_split_counts_become_ints(self):
        r = EquilibriumSpec(2, 2)
        plan = SumPlan("Split", r, r, n11=np.int64(1), n21=2.0)
        assert (plan.n11, plan.n21) == (1, 2)
        assert type(plan.n11) is int and type(plan.n21) is int
