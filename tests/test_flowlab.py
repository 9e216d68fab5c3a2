import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflows import flowlab
from surfaceflows.autovec import (
    PlanarField,
    build_automorphic_field,
    canonical_field,
    field_eval,
    pendulum_field,
)
from surfaceflows.errors import (
    EquilibriumInBox,
    NearPole,
    NewtonDiverged,
    NonIntegerWinding,
    ZeroOnContour,
)
from surfaceflows.flowlab import (
    DEFAULT_MAX_DISP,
    WINDING_MAX_SAMPLES,
    WINDING_SAMPLES,
    Trajectory,
    classify_index,
    covariance_check,
    find_zeros,
    integrate,
    newton_refine,
    poincare_hopf_check,
    rectify,
    sector_index,
    winding_estimate_circle,
    winding_index,
    winding_on_path,
)
from surfaceflows.moebius import MoebiusMap, apply, derivative

from conftest import DENOMINATOR_POLE, GENUS2_GENERATORS, NUMERATOR_POLE

def walled(field, x_max):
    """``field``, not evaluable to the right of Re z = x_max."""

    def f(z):
        if z.real > x_max:
            raise NearPole("beyond the wall")
        return field(z)

    return PlanarField("custom", f)


def grid_field(values, region, n):
    """Field taking ``values[j][i]`` at grid node (i, j) of ``region``; a
    None node is not evaluable."""
    x0, x1, y0, y1 = region
    xs = np.linspace(x0, x1, n + 1).tolist()
    ys = np.linspace(y0, y1, n + 1).tolist()
    table = {complex(x, y): values[j][i] for j, y in enumerate(ys) for i, x in enumerate(xs)}

    def f(z):
        if table[z] is None:
            raise NearPole("unevaluable node")
        return table[z]

    return PlanarField("custom", f), xs, ys


def grid_starts(values, region, n):
    """The Newton starts the zero scan seeds on a grid of node values, in order."""
    field, _, _ = grid_field(values, region, n)

    def record_only(field, start, step_cap):
        raise NewtonDiverged("recorded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowlab, "newton_refine", record_only)
        _, dropped = flowlab._locate_zero_points(field, region, n)
    return [complex(*d["start"]) for d in dropped]


def reference_starts(values, xs, ys):
    """Per-cell reference loop: a cell seeds its midpoint when its four
    corners are evaluable and finite and both components bracket zero."""
    n = len(xs) - 1
    starts = []
    for j in range(n):
        for i in range(n):
            corners = (values[j][i], values[j][i + 1], values[j + 1][i + 1], values[j + 1][i])
            if any(v is None or not cmath.isfinite(v) for v in corners):
                continue
            re = [v.real for v in corners]
            im = [v.imag for v in corners]
            if min(re) <= 0.0 <= max(re) and min(im) <= 0.0 <= max(im):
                starts.append(complex(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))
    return starts


NODE_VALUES = st.one_of(
    st.sampled_from([
        None, complex(math.nan, 0.0), complex(0.0, math.inf), complex(math.nan, math.nan),
        0j, complex(-0.0, 0.0), 1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j,
    ]),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


SADDLE = canonical_field("saddle")
NODE = canonical_field("node")
CENTER = canonical_field("center")
DIPOLE = canonical_field("dipole")
PENDULUM = pendulum_field(1.0)


class TestIntegrate:
    def test_center_closed_orbit(self):
        # rotation field: the time-2pi flow is the identity
        tr = integrate(CENTER, 1 + 0j, 2 * math.pi)
        assert abs(tr.end_point - (1 + 0j)) < 1e-4
        assert tr.termination == "time-limit"

    def test_node_exponential(self):
        tr = integrate(NODE, 1 + 0j, 1.0)
        assert abs(tr.end_point - math.e) < 1e-6

    def test_tiny_horizon_stays_put(self):
        tr = integrate(NODE, 1 + 0j, 1e-12)
        assert all(abs(p - (1 + 0j)) < 1e-9 for p in tr.points)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            integrate(NODE, 1 + 0j, 0.0)

    def test_reverse_time(self):
        tr = integrate(NODE, 1 + 0j, -1.0)
        assert abs(tr.end_point - math.exp(-1.0)) < 1e-6
        assert tr.times[0] > tr.times[-1] or len(tr.times) == 1
        assert tr.end_time == pytest.approx(-1.0)

    def test_reverse_time_roundtrip(self):
        for field in (PENDULUM, CENTER, NODE, SADDLE):
            fwd = integrate(field, 0.5 + 0.5j, 2.0)
            back = integrate(field, fwd.end_point, -2.0)
            assert abs(back.end_point - (0.5 + 0.5j)) < 1e-6

    def test_region_exit(self):
        tr = integrate(NODE, 1 + 0j, 5.0, region=(-2.0, 2.0, -2.0, 2.0))
        assert tr.termination == "region-exit"
        assert tr.end_point.real > 2.0

    def test_pole_proximity_termination(self):
        def guarded(z):
            if abs(z - 1.0) < 1e-3:
                raise NearPole("inside the guard radius")
            return 1.0 / (1.0 - z)

        tr = integrate(PlanarField("custom", guarded), 0j, 10.0)
        assert tr.termination == "pole-proximity"
        assert abs(tr.end_point - 1.0) < 0.05

    def test_max_step_displacement(self):
        # the node's speed reaches e^3 ~ 20, so the bound cuts steps of DEFAULT_H0
        tr = integrate(NODE, 1 + 0j, 3.0)
        steps = [abs(p1 - p0) for p0, p1 in zip(tr.points, tr.points[1:])]
        assert max(steps) <= DEFAULT_MAX_DISP + 1e-12
        assert max(steps) > 0.5 * DEFAULT_MAX_DISP

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, t_end):
        with pytest.raises(ValueError):
            integrate(NODE, 1 + 0j, t_end)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory((0.0, 0.0), (0j, 1j), "time-limit")


class TestWinding:
    @pytest.mark.parametrize(
        "kind,expected", [("saddle", -1), ("node", 1), ("dipole", 2)]
    )
    def test_canonical_indices_three_radii(self, kind, expected):
        field = canonical_field(kind)
        for radius in (0.05, 0.1, 0.2):
            assert winding_index(field, 0j, radius) == expected

    @pytest.mark.parametrize("kind", ["saddle", "node", "dipole"])
    def test_matches_brute_force_oracle(self, kind):
        # independent oracle: plain 4096-point angle accumulation
        field = canonical_field(kind)
        brute = winding_estimate_circle(field, 0j, 0.1, 4096)
        assert winding_index(field, 0j, 0.1) == round(brute)
        assert abs(brute - round(brute)) < 1e-6

    def test_nonzero_point_has_degree_zero(self):
        for field in (SADDLE, NODE, DIPOLE, PENDULUM):
            assert winding_index(field, 1.0 + 0.5j, 0.05) == 0

    def test_radius_independence(self):
        assert winding_index(SADDLE, 0j, 0.07) == winding_index(SADDLE, 0j, 0.14)

    def test_zero_on_contour(self):
        with pytest.raises(ZeroOnContour):
            winding_index(SADDLE, 0j, 1e-10)

    def test_non_integer_winding_when_sampling_cannot_settle(self):
        # unit-magnitude vortex of degree 4000 just inside the contour:
        # every sampling density aliases to a different count, so the
        # adaptive doubling must give up rather than return a guess, having
        # evaluated each point of the largest circle exactly once
        import cmath

        calls = []

        def vortex(z):
            calls.append(z)
            w = z - 0.49
            return cmath.exp(4000j * math.atan2(w.imag, w.real))

        with pytest.raises(NonIntegerWinding):
            winding_index(PlanarField("custom", vortex), 0j, 0.5)
        assert len(calls) == len(set(calls)) == WINDING_MAX_SAMPLES

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(math.nan, math.nan)]
    )
    def test_non_finite_sample_fails_at_once(self, bad):
        # no sampling density can settle around a non-finite value, so the
        # first sample set raises instead of doubling to WINDING_MAX_SAMPLES
        calls = []

        def spiked(z):
            calls.append(z)
            return bad if z == 0.5 else z  # 0.5 is point 0 of every circle below

        with pytest.raises(NonIntegerWinding, match="non-finite"):
            winding_index(PlanarField("custom", spiked), 0j, 0.5)
        assert len(calls) <= 2 * WINDING_SAMPLES
        with pytest.raises(NonIntegerWinding, match="non-finite"):
            winding_on_path(PlanarField("custom", spiked), [0.5, 0.5j, -0.5, -0.5j])

    @pytest.mark.parametrize("n", [8, 1024, 2048])
    def test_circle_matches_the_scalar_formula(self, n):
        # the points of the scalar math.cos / math.sin formula, bit for bit
        # (numpy's cos and sin round as the C library's do on x86-64)
        for center, radius, first, stride in [
            (0j, 1.0, 0, 1), (0.3 - 1.7j, 0.05, 1, 2), (-2.5654 + 0.636j, 0.302, 0, 2)
        ]:
            expected = [
                center + radius * complex(math.cos(2.0 * math.pi * k / n),
                                          math.sin(2.0 * math.pi * k / n))
                for k in range(first, n, stride)
            ]
            points = flowlab._circle(center, radius, n, first, stride)
            assert [(z.real.hex(), z.imag.hex()) for z in points] == [
                (z.real.hex(), z.imag.hex()) for z in expected
            ]

    def test_settled_circle_reuses_samples(self, monkeypatch):
        # the 2n-point circle contains the n-point one: a circle settled at
        # the first doubling costs 2n evaluations, not 3n, and each
        # estimate is bit-identical to a fresh count at its sample count
        n = WINDING_SAMPLES
        expected = [winding_estimate_circle(DIPOLE, 0.1j, 0.3, k).hex() for k in (n, 2 * n)]
        points = []

        def counting(z):
            points.append(z)
            return DIPOLE(z)

        estimates = []
        count = flowlab._winding_of_values

        def recording(values):
            estimates.append(count(values))
            return estimates[-1]

        monkeypatch.setattr(flowlab, "_winding_of_values", recording)
        assert winding_index(PlanarField("custom", counting), 0.1j, 0.3) == 2
        assert len(points) == 2 * n
        assert [e.hex() for e in estimates] == expected

    def test_winding_additivity_polynomials(self):
        # boundary degree equals the number of enclosed simple roots
        rng = np.random.default_rng(5)
        for _ in range(10):
            roots = [complex(x, y) for x, y in rng.uniform(-0.7, 0.7, size=(3, 2))]

            def poly(z, roots=roots):
                out = 1 + 0j
                for r in roots:
                    out *= z - r
                return out

            field = PlanarField("custom", poly)
            rect = [complex(x, y) for x, y in
                    [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
            pts = []
            for a, b in zip(rect, rect[1:] + rect[:1]):
                pts.extend(a + (b - a) * t for t in np.linspace(0, 1, 256, endpoint=False))
            boundary = winding_on_path(field, pts)
            assert round(boundary) == 3
            scan = find_zeros(field, (-1, 1, -1, 1), 24)
            assert sum(z.winding_index for z in scan) == 3

    @pytest.mark.parametrize(
        "center, radius",
        [(0j, math.nan), (0j, math.inf), (complex(math.nan, 0), 0.1),
         (complex(0, math.inf), 0.1), (0j, 0.0), (0j, -0.1)],
    )
    def test_non_finite_or_non_positive_circle_rejected(self, center, radius):
        with pytest.raises(ValueError):
            winding_index(SADDLE, center, radius)


class TestNewtonRefine:
    @pytest.mark.parametrize("offset", [1e-3, 3e-3])
    def test_takes_its_final_step(self, offset):
        # a simple zero with curvature: the last, negligible step still
        # moves the iterate from ~1e-10 off the zero onto it
        r = 0.6 + 0.3j
        field = PlanarField("custom", lambda z: (z - r) + (z - r) ** 2)
        assert abs(newton_refine(field, r + offset, step_cap=0.5) - r) <= 1e-14


class TestSectorIndex:
    def test_four_hyperbolic_sectors_is_saddle(self):
        assert sector_index(0, 4) == Fraction(-1)

    def test_balanced_sectors_give_one(self):
        for n in range(5):
            assert sector_index(n, n) == Fraction(1)

    def test_two_elliptic_sectors_is_dipole(self):
        assert sector_index(2, 0) == Fraction(2)

    def test_half_integer_flagged_by_denominator(self):
        q = sector_index(1, 0)
        assert q == Fraction(3, 2)
        assert q.denominator == 2

    def test_consistency_with_winding(self):
        assert winding_index(SADDLE, 0j, 0.1) == sector_index(0, 4)
        assert winding_index(NODE, 0j, 0.1) == sector_index(0, 0)
        assert winding_index(CENTER, 0j, 0.1) == sector_index(0, 0)
        assert winding_index(DIPOLE, 0j, 0.1) == sector_index(2, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sector_index(-1, 0)


class TestFindZeros:
    def test_pendulum_window(self):
        scan = find_zeros(PENDULUM, (-4, 4, -3, 3), 48)
        locations = sorted(z.location.real for z in scan)
        assert len(scan) == 3
        assert locations == pytest.approx([-math.pi, 0.0, math.pi], abs=1e-6)
        assert all(abs(z.location.imag) < 1e-6 for z in scan)
        indices = [z.winding_index for z in sorted(scan, key=lambda r: r.location.real)]
        assert indices == [-1, 1, -1]
        classes = {z.classification for z in scan}
        assert classes == {"hyperbolic-like", "elliptic/center-like"}

    def test_saddle_origin(self):
        scan = find_zeros(SADDLE, (-1, 1, -1, 1), 16)
        assert len(scan) == 1
        assert abs(scan[0].location) < 1e-9
        assert scan[0].winding_index == -1

    def test_center_window_without_origin(self):
        scan = find_zeros(CENTER, (0.5, 1.5, 0.5, 1.5), 16)
        assert len(scan) == 0

    def test_residuals_below_tolerance(self):
        scan = find_zeros(PENDULUM, (-4, 4, -3, 3), 48)
        assert all(z.residual < 1e-8 for z in scan)

    def test_non_finite_corner_seeds_nothing(self):
        # cell (0, 0) brackets zero over its three finite corners; the NaN
        # corner makes the cell unevaluable whatever its place in the cell
        region, n = (0.0, 8.0, 0.0, 8.0), 8
        values = [[1 + 1j] * (n + 1) for _ in range(n + 1)]
        values[0][0] = -1 - 1j
        assert grid_starts(values, region, n) == [0.5 + 0.5j]
        values[0][1] = complex(math.nan, 0.0)
        assert grid_starts(values, region, n) == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(8, 10).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(NODE_VALUES, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2)
            )
        )
    )
    def test_seeds_match_a_per_cell_loop(self, grid):
        n, flat = grid
        values = [flat[j * (n + 1):(j + 1) * (n + 1)] for j in range(n + 1)]
        region = (-1.0, 2.0, -0.5, 1.5)
        _, xs, ys = grid_field(values, region, n)
        assert grid_starts(values, region, n) == reference_starts(values, xs, ys)

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            find_zeros(SADDLE, (-1, 1, -1, 1), 4)

    def test_classify_index(self):
        assert classify_index(-1) == "hyperbolic-like"
        assert classify_index(1) == "elliptic/center-like"
        assert classify_index(2) == "higher"
        assert classify_index(-3) == "higher"
        assert classify_index(0) == "unclassified"


class TestPoincareHopf:
    def test_pendulum_fundamental_strip(self):
        # one period: theta in [-pi, pi), so (pi, 0) is identified away
        scan = find_zeros(PENDULUM, (-4, 4, -3, 3), 48)
        strip = [z for z in scan if -math.pi - 1e-9 <= z.location.real < math.pi - 1e-9]
        report = poincare_hopf_check(strip, chi=0)
        assert report.ok and report.total == 0

    def test_dipole_on_sphere(self):
        # z^2 has one finite zero of index 2; in the chart at infinity the
        # field is the constant -1, whose degree around the origin is 0
        scan = find_zeros(DIPOLE, (-1, 1, -1, 1), 16)
        chart_at_infinity = PlanarField("custom", lambda w: -1 + 0j)
        assert winding_index(chart_at_infinity, 0j, 0.3) == 0
        report = poincare_hopf_check(scan, chi=2)
        assert report.ok and report.total == 2

    def test_empty_zero_set(self):
        report = poincare_hopf_check([], chi=0)
        assert report.ok and report.total == 0

    def test_duplicate_zeros_rejected(self):
        scan = find_zeros(SADDLE, (-1, 1, -1, 1), 16)
        with pytest.raises(ValueError):
            poincare_hopf_check(list(scan) + list(scan), chi=-2)

    def test_report_dict(self):
        report = poincare_hopf_check([], chi=2)
        data = report.to_dict()
        assert data["ok"] is False
        assert data["chi"] == 2


class TestRectify:
    def test_constant_field_already_straight(self):
        const = PlanarField("custom", lambda z: 1 + 0j)
        chart = rectify(const, 0.3 + 0.2j, 0.1)
        assert chart.residual < 1e-10
        assert chart.speed == 1.0

    def test_pendulum_regular_point(self):
        chart = rectify(PENDULUM, 0 + 1j, 0.1)
        assert chart.residual < 1e-3

    def test_transversal_orthogonal_to_flow(self):
        chart = rectify(PENDULUM, 0 + 1j, 0.1)
        a, b = chart.transversal
        direction = (b - a) / abs(b - a)
        flow = PENDULUM(0 + 1j)
        inner = direction.real * flow.real + direction.imag * flow.imag
        assert abs(inner) / abs(flow) < 1e-12

    def test_equilibrium_rejected(self):
        with pytest.raises(EquilibriumInBox):
            rectify(PENDULUM, 0j, 0.1)

    def test_equilibrium_inside_box_rejected(self):
        # base point is regular, but the box reaches the saddle at (pi, 0)
        with pytest.raises(EquilibriumInBox):
            rectify(PENDULUM, complex(math.pi - 0.001, 0.0), 0.05)

    def test_pole_inside_box_rejected(self):
        # forward chart flows from the transversal at x = 0 run into the wall
        field = walled(PlanarField("custom", lambda z: 1 + 0j), 0.05)
        with pytest.raises(NearPole, match="chart integration hit a pole inside the box"):
            rectify(field, 0j, 0.1)


class TestCovariance:
    def test_identity_is_exactly_zero(self, demo_field):
        f = demo_field(4)
        assert covariance_check(f, MoebiusMap.identity(), 0.5 + 2j, 0.2) == 0.0

    def test_one_term_identity_zero(self):
        f = build_automorphic_field(
            [GENUS2_GENERATORS[0]], NUMERATOR_POLE, DENOMINATOR_POLE, truncation=0
        )
        assert covariance_check(f, MoebiusMap.identity(), 0.3 + 1.5j, 0.5) == 0.0

    def test_demo_field_bounded_by_transformation_defect(self, demo_field):
        # orbit mismatch accumulates at the rate of the Eq-residual defect,
        # so compare against the measured defect integrated over the run
        f = demo_field(4)
        m = GENUS2_GENERATORS[1]
        z0, t_end = 0.5 + 2j, 0.2
        value = covariance_check(f, m, z0, t_end)
        trajectory = integrate(f, z0, t_end)
        defect = max(
            abs(field_eval(f, apply(m, p)) - derivative(m, p) * field_eval(f, p))
            for p in trajectory.points
        )
        assert value <= 10.0 * defect * t_end
        assert value > 0.0

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, t_end):
        with pytest.raises(ValueError):
            covariance_check(NODE, MoebiusMap.identity(), 1 + 0j, t_end)

    def test_truncates_to_common_range(self):
        # node flow z e^t; the shifted start 1.5 reaches the wall at x = 2
        # first, after 9 of the 32 samples t = k/32 (1.5 e^(9/32) < 2 <
        # 1.5 e^(10/32)).  The defect |(e^t + 0.5) - 1.5 e^t| grows with t,
        # so its maximum over the common samples is at t = 9/32.
        shift = MoebiusMap(1, 0.5, 0, 1)
        value = covariance_check(walled(NODE, 2.0), shift, 1 + 0j, 1.0)
        assert value == pytest.approx(0.5 * (math.exp(9 / 32) - 1), rel=1e-9)

    def test_no_reachable_sample_raises(self):
        # the wall is 1e-4 ahead, the first sample 1/32 away
        field = walled(PlanarField("custom", lambda z: 1 + 0j), 0.5)
        with pytest.raises(NearPole, match="no common integrable range"):
            covariance_check(field, MoebiusMap.identity(), 0.5 - 1e-4, 1.0)
