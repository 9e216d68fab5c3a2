import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surfaceflows import flowlab
from surfaceflows.autovec import (
    CANONICAL_KINDS,
    PlanarField,
    build_automorphic_field,
    canonical_field,
    equivariance_report,
    field_eval,
    pendulum_field,
)
from surfaceflows.errors import (
    EquilibriumInBox,
    NearPole,
    NewtonDiverged,
    NonIntegerWinding,
    PoleHit,
    ZeroOnContour,
)
from surfaceflows.flowlab import (
    DEFAULT_MAX_DISP,
    RECTIFY_GRID,
    WINDING_FINEST,
    WINDING_MAX_SAMPLES,
    WINDING_START,
    Trajectory,
    ZeroRecord,
    covariance_check,
    exact_int,
    find_zeros,
    integrate,
    locate_zeros,
    newton_refine,
    poincare_hopf_check,
    rectify,
    sector_index,
    winding_index,
    winding_on_path,
)
from surfaceflows.heegaard import (
    AbelianGroup,
    BallExtensionField,
    GluingMatrix,
    IndexSet,
    compose_word,
    corollary_check,
    curve_class,
    dipole_sphere_field,
    handle_equilibria,
    interior_zero_scan,
)
from surfaceflows.moebius import GroupWord, MoebiusMap, apply, derivative, enumerate_ball
from surfaceflows.surgery import EquilibriumSpec, SurfaceInventory

from conftest import DENOMINATOR_POLE, GENUS2_GENERATORS, NUMERATOR_POLE

def rational(z, zeros, poles):
    """prod(z - zeros) / prod(z - poles)."""
    out = 1 + 0j
    for a in zeros:
        out *= z - a
    for b in poles:
        out /= z - b
    return out


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


def record_only(field, start, step_cap, known, within):
    """Stand-in for ``newton_refine`` that drops every start it is given."""
    raise NewtonDiverged("recorded")


def grid_starts(values, region, n, annulus=None):
    """The Newton starts the zero scan seeds on a grid of node values, in order."""
    field, _, _ = grid_field(values, region, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowlab, "newton_refine", record_only)
        _, dropped = locate_zeros(field, region, n, annulus)
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


NODE_GRIDS = st.integers(8, 10).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(NODE_VALUES, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2)
    )
)


def counting(field):
    """``field``, and the list of the points it is evaluated at, in order."""
    seen = []

    def f(z):
        seen.append(z)
        return field(z)

    return PlanarField("custom", f), seen


def cells_meeting(xs, ys, annulus, slack):
    """Per-cell reference loop: cells (j, i) whose nearest point lies within
    r_outer + slack of the centre and whose farthest point lies at least
    r_inner - slack from it."""
    centre, r_inner, r_outer = annulus
    cells = []
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            dx = (xs[i] - centre.real, xs[i + 1] - centre.real)
            dy = (ys[j] - centre.imag, ys[j + 1] - centre.imag)
            near = math.hypot(max(dx[0], -dx[1], 0.0), max(dy[0], -dy[1], 0.0))
            far = math.hypot(max(map(abs, dx)), max(map(abs, dy)))
            if near <= r_outer + slack and far >= r_inner - slack:
                cells.append((j, i))
    return cells


def hypot_cells_meeting(xs, ys, annulus):
    """Reference mask: ``cells_meeting`` with slack 0, from 2-D np.hypot
    arrays."""
    centre, r_inner, r_outer = annulus
    near, far = [], []
    for t, c in ((ys, centre.imag), (xs, centre.real)):
        lo, hi = t[:-1] - c, t[1:] - c
        near.append(np.maximum(np.maximum(lo, -hi), 0.0))
        far.append(np.maximum(np.abs(lo), np.abs(hi)))
    return ((np.hypot(near[0][:, None], near[1]) <= r_outer)
            & (np.hypot(far[0][:, None], far[1]) >= r_inner))


ANNULI = st.tuples(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    st.floats(0.05, 1.5),
).map(lambda a: (a[0], a[1], a[1] + a[2]))


@st.composite
def fields_with_zeros(draw):
    """A canonical field (zero at 0), or a rational one whose zeros are 0.1
    apart and at least 0.3 from every pole: a winding circle on (-1, 1)^2,
    at most 0.25 wide, then holds one zero and no pole."""
    if draw(st.booleans()):
        return canonical_field(draw(st.sampled_from(CANONICAL_KINDS))), [0j]
    points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
    zeros = draw(st.lists(points, min_size=1, max_size=3))
    poles = draw(st.lists(points, max_size=2))
    assume(all(abs(a - b) >= 0.1 for k, a in enumerate(zeros) for b in zeros[:k]))
    assume(all(abs(a - b) >= 0.3 for a in zeros for b in poles))

    def f(z):
        if any(abs(z - b) < 1e-6 for b in poles):
            raise NearPole("at a pole")
        return rational(z, zeros, poles)

    return PlanarField("custom", f), zeros


SADDLE = canonical_field("saddle")
NODE = canonical_field("node")
CENTER = canonical_field("center")
DIPOLE = canonical_field("dipole")
PENDULUM = pendulum_field(1.0)


def _guarded_pole(z):
    if abs(z - 1.0) < 1e-3:
        raise NearPole("inside the guard radius")
    return 1.0 / (1.0 - z)


GUARDED_POLE = PlanarField("custom", _guarded_pole)  # 1/(1 - z), not evaluable near 1


def punctured_line(r, hole, scale=1.0):
    """F(z) = scale (z - r), not evaluable within 1e-6 of ``hole``: with the
    hole at r, a removable zero that a guard refuses to evaluate."""

    def f(z):
        if abs(z - hole) < 1e-6:
            raise NearPole("inside the guard radius")
        return scale * (z - r)

    return PlanarField("custom", f)


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

    @pytest.mark.parametrize("region, message", [
        ((math.nan, 2.0, -2.0, 2.0), "region bounds must be finite"),
        ((-2.0, 2.0, -math.inf, 2.0), "region bounds must be finite"),
        ((2.0, -2.0, -2.0, 2.0), "degenerate region"),
        ((-2.0, 2.0, 2.0, 2.0), "degenerate region"),
    ])
    def test_region_that_locate_zeros_rejects_is_rejected(self, region, message):
        # one rule for both: integrate must not step and report "region-exit"
        for call in (lambda: locate_zeros(NODE, region, 8),
                     lambda: integrate(NODE, 1 + 0j, 5.0, region=region)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_pole_proximity_termination(self):
        tr = integrate(GUARDED_POLE, 0j, 10.0)
        assert tr.termination == "pole-proximity"
        assert abs(tr.end_point - 1.0) < 0.05

    def test_minus_one_over_z_stops_before_its_pole(self):
        # z' = -1/z: z^2 = z0^2 - 2t reaches the singularity at t = 5e-5
        tr = integrate(PlanarField("custom", lambda z: -1 / z), 0.01, 1.0)
        assert tr.termination == "pole-proximity"
        assert tr.end_time < 5e-5

    def test_minus_one_over_z_does_not_jump_its_pole(self):
        # near the pole the error test is absolute, so a step as long as |z|
        # can pass it and land across 0; F turning round within half a step
        # must reject that step (t* = z0^2 / 2)
        tr = integrate(PlanarField("custom", lambda z: -1 / z), 0.01, 5.652638276924169)
        assert tr.termination == "pole-proximity"
        assert tr.end_time < 0.01 * 0.01 / 2
        assert all(z.real > 0 for z in tr.points)

    def test_guarded_pole_is_not_crossed(self):
        tr = integrate(GUARDED_POLE, 0.99, 1.0)
        assert tr.termination == "pole-proximity"
        assert max(p.real for p in tr.points) < 1.0

    @given(
        st.floats(0.01, 2.0).flatmap(lambda r: st.sampled_from([r, -r])),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_minus_one_over_z_follows_the_exact_flow(self, z0, t_end):
        # z^2 = z0^2 - 2t until the orbit reaches 0 at t* = z0^2 / 2; the
        # absolute tolerance leaves the sign unresolved within 1e-4 of 0
        tr = integrate(PlanarField("custom", lambda z: -1 / z), complex(z0), t_end)
        t_star = z0 * z0 / 2
        for t, z in zip(tr.times, tr.points):
            exact = z0 * z0 - 2 * t
            assert z.imag == 0.0 and abs(z.real ** 2 - exact) <= 1e-8
            assert z.real * z0 > 0 or exact <= 1e-8
        if t_end < t_star - 1e-6:
            assert tr.termination == "time-limit"
        elif t_end >= t_star:
            assert tr.termination == "pole-proximity"
        assert tr.end_time < t_star

    @pytest.mark.parametrize("z0", [complex(math.nan, 0), complex(0, math.inf),
                                    complex(math.nan, math.nan)])
    def test_non_finite_start_rejected(self, z0):
        with pytest.raises(ValueError, match="z0 must be finite"):
            integrate(NODE, z0, 1.0)

    def test_step_budget_ends_the_run(self, monkeypatch):
        # the circle of the center field is never left: only the step budget ends the run
        monkeypatch.setattr(flowlab, "MAX_STEPS", 5)
        trajectory = integrate(CENTER, 1 + 0j, 100.0)
        assert trajectory.termination == "time-limit"
        assert len(trajectory.points) == 6 and trajectory.end_time < 100.0

    def test_max_step_displacement(self):
        # the node's speed reaches e^3 ~ 20, so DEFAULT_MAX_DISP, not the
        # error estimate, sets the late step sizes
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
        for times, points in (((0.0, 1.0), (0j,)), ((0.0,), (0j, 1j)), ((), ())):
            with pytest.raises(ValueError, match="equal-length and nonempty"):
                Trajectory(times, points, "time-limit")
        # NaN fails every comparison, so it must fail the ordering itself
        for times in ((0.0, math.nan, 1.0), (0.0, 1.0, math.nan), (1.0, math.nan, 0.0)):
            with pytest.raises(ValueError, match="strictly monotone"):
                Trajectory(times, (0j, 1j, 2j), "time-limit")


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
        values = np.array([field(z) for z in 0.1 * np.exp(2j * np.pi * np.arange(4096) / 4096)])
        brute = np.angle(np.roll(values, -1) / values).sum() / (2 * math.pi)
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
        # unit-magnitude vortex of degree 4000 just inside the contour: the
        # arcs nearest 0.49 do not pass the chord test at 2 pi / 2^17, and
        # thousands of them are left, so bisection gives up there rather
        # than go deeper and return a guess, within the evaluation budget
        # and having evaluated no point twice
        import cmath

        calls = []

        def vortex(z):
            calls.append(z)
            w = z - 0.49
            return cmath.exp(4000j * math.atan2(w.imag, w.real))

        with pytest.raises(NonIntegerWinding, match=f"1/{WINDING_MAX_SAMPLES} of the loop wide"):
            winding_index(PlanarField("custom", vortex), 0j, 0.5)
        assert len(calls) == len(set(calls)) <= WINDING_MAX_SAMPLES

    def test_a_phase_sum_off_a_whole_turn_is_not_rounded(self, monkeypatch):
        # the settled arcs' turns telescope to a whole number of turns up to
        # rounding, so only a tolerance below 0 makes the estimate too far
        # from its nearest integer
        assert winding_index(NODE, 0j, 0.5) == 1
        monkeypatch.setattr(flowlab, "WINDING_INTEGER_TOL", -1.0)
        with pytest.raises(NonIntegerWinding, match=r"estimate 1\.0000 is not near an integer"):
            winding_index(NODE, 0j, 0.5)

    @pytest.mark.parametrize("angle", [0.3, 1.9, 3.7, 5.2])
    @pytest.mark.parametrize("side", [1, -1])
    def test_lone_pole_next_to_the_circle(self, angle, side):
        # a pole 1e-5 off the unit circle needs arcs about 1e-5 wide, far
        # below 2 pi / 2^17; bisection there is local and cheap
        b = (1 + side * 1e-5) * cmath.exp(1j * angle)
        calls = []

        def pole(z):
            calls.append(z)
            return 1 / (z - b)

        assert winding_index(PlanarField("custom", pole), 0j, 1.0) == (0 if side > 0 else -1)
        assert len(calls) < 300

    @pytest.mark.parametrize("d", [1e-6, 1e-7])
    def test_lone_zero_just_inside_the_circle(self, d):
        # F turns by about half a turn across the arc above the zero while
        # staying close to its chord, so a half-arc phase step near pi must
        # send the arc to bisection rather than be summed as it stands
        for j in range(16):
            b = (1 - d) * cmath.exp(1j * (0.1 + 2 * math.pi * j / 16))
            calls = []

            def zero(z):
                calls.append(z)
                return z - b

            assert winding_index(PlanarField("custom", zero), 0j, 1.0) == 1
            assert len(calls) < 150

    def test_evaluation_budget_is_a_hard_cap(self):
        # unit values of random phase: almost no arc settles, so the arcs
        # nearly double each level until the next level would pass the budget
        rng = np.random.default_rng(3)
        calls = []

        def noise(z):
            calls.append(z)
            return cmath.exp(1j * rng.uniform(0, 2 * math.pi))

        with pytest.raises(NonIntegerWinding, match=f"of {WINDING_MAX_SAMPLES} evaluations"):
            winding_index(PlanarField("custom", noise), 0j, 1.0)
        assert len(calls) == len(set(calls))
        assert WINDING_MAX_SAMPLES // 2 < len(calls) <= WINDING_MAX_SAMPLES

    def test_pole_on_the_circle_is_not_evaluable(self):
        # point 0 of the circle is the pole at 1: a division by zero there
        # means no winding count, not a crash
        with pytest.raises(NonIntegerWinding, match="non-finite"):
            winding_index(lambda z: 1 / (z - 1), 0, 1.0)
        with pytest.raises(NonIntegerWinding, match="non-finite"):
            winding_on_path(lambda z: 1 / (z - 1), [1, 1j, -1, -1j])

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(math.nan, math.nan)]
    )
    def test_non_finite_sample_fails_at_once(self, bad):
        # no bisection can settle around a non-finite value, so the first
        # level raises instead of splitting arcs down to the finest width
        calls = []

        def spiked(z):
            calls.append(z)
            return bad if z == 0.5 else z  # 0.5 is point 0 of every circle below

        with pytest.raises(NonIntegerWinding, match="non-finite"):
            winding_index(PlanarField("custom", spiked), 0j, 0.5)
        assert len(calls) == WINDING_START
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
            points = flowlab._circle_at(center, radius, n, np.arange(first, n, stride))
            assert [(z.real.hex(), z.imag.hex()) for z in points] == [
                (z.real.hex(), z.imag.hex()) for z in expected
            ]

    def test_settled_circle_reuses_samples(self):
        # an arc's midpoint becomes an endpoint of both its halves: every
        # sample is a distinct point, the WINDING_START points come first,
        # and each later point halves an arc between two earlier ones
        points = []

        def counting(z):
            points.append(z)
            return DIPOLE(z)

        assert winding_index(PlanarField("custom", counting), 0.1j, 0.3) == 2
        assert len(points) == len(set(points))
        assert WINDING_START < len(points) <= 4 * WINDING_START
        grid = 2 * WINDING_FINEST  # midpoints of the finest arcs
        ticks = [round(cmath.phase((z - 0.1j) / 0.3) % (2 * math.pi) * grid / (2 * math.pi)) % grid
                 for z in points]
        step = grid // WINDING_START
        assert ticks[:WINDING_START] == [step * k for k in range(WINDING_START)]
        seen = set(ticks[:WINDING_START])
        for tick in ticks[WINDING_START:]:
            width = tick & -tick  # half the arc this point bisects
            assert width < step
            assert {tick - width, (tick + width) % grid} <= seen
            seen.add(tick)

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0, 3.3, 5.1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_straddling_pair_is_counted_exactly(self, t, sign):
        # a zero and a pole 0.002 apart on either side of the unit circle
        # fit between two samples of a 2,048-point circle; the chord test
        # finds them and counts the one inside
        u = cmath.exp(1j * t)
        zero, pole = u * (1 - sign * 0.001), u * (1 + sign * 0.001)
        field = PlanarField("custom", lambda z: (z - zero) / (z - pole))
        assert winding_index(field, 0j, 1.0) == sign

    def test_pair_that_fooled_a_phase_jump_rule(self):
        # the zero -0.52337-0.85038i is inside the unit circle and the pole
        # -0.52644-0.85296i just outside: no phase jump between samples
        # shows the pair, so a rule bisecting on phase alone counts 0
        zeros = (-1.25105 - 1.04610j, -0.52337 - 0.85038j)
        poles = (-1.46381 + 0.99328j, -0.52644 - 0.85296j)
        field = PlanarField("custom", lambda z: rational(z, zeros, poles))
        assert winding_index(field, 0j, 1.0) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_function_index_is_zeros_minus_poles_inside(self, data):
        # argument principle: the unit circle's index is the number of
        # zeros inside minus the number of poles inside
        def points():
            radius = st.one_of(st.floats(0.0, 0.98), st.floats(1.02, 3.0))
            return st.lists(st.builds(cmath.rect, radius, st.floats(0.0, 2 * math.pi)),
                            max_size=5)

        zeros, poles = data.draw(points()), data.draw(points())
        field = PlanarField("custom", lambda z: rational(z, zeros, poles))
        expected = sum(abs(z) < 1 for z in zeros) - sum(abs(p) < 1 for p in poles)
        assert winding_index(field, 0j, 1.0) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rectangle_index_is_zeros_minus_poles_inside(self, data):
        # argument principle on the non-square rectangle [-1.5, 1] x [-0.5, 0.8],
        # with every zero and pole at least 0.02 from its boundary
        x0, x1, y0, y1 = -1.5, 1.0, -0.5, 0.8

        def inside(z, margin=0.0):
            return x0 + margin < z.real < x1 - margin and y0 + margin < z.imag < y1 - margin

        def clear(z):
            return inside(z, 0.02) or not inside(z, -0.02)

        def points():
            point = st.builds(complex, st.floats(-2.5, 2.0), st.floats(-1.5, 1.8)).filter(clear)
            return st.lists(point, max_size=5)

        zeros, poles = data.draw(points()), data.draw(points())
        field = PlanarField("custom", lambda z: rational(z, zeros, poles))
        corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
        expected = sum(map(inside, zeros)) - sum(map(inside, poles))
        assert winding_on_path(field, corners) == expected

    @pytest.mark.parametrize("vertices", [[0.5, 0.5j], [0.5, complex(math.nan, 0), -0.5]])
    def test_polygon_needs_three_finite_vertices(self, vertices):
        with pytest.raises(ValueError):
            winding_on_path(SADDLE, vertices)

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
            assert winding_on_path(field, [-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j]) == 3
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

    def test_constant_field_has_a_singular_jacobian(self):
        with pytest.raises(NewtonDiverged, match="singular jacobian"):
            newton_refine(PlanarField("custom", lambda z: 1 + 0j), 0j, step_cap=1.0)

    @pytest.mark.parametrize("start", [0.2 - 0.1j, -0.05 + 0.15j])
    def test_converges_on_a_non_holomorphic_field(self, start):
        # Re F and Im F have unequal diagonal and non-opposite off-diagonal
        # Jacobian terms, so no Cauchy-Riemann shortcut would converge here
        r = 0.4 + 0.3j
        field = PlanarField("custom", lambda z: (z - r).conjugate() + (0.3 + 0.2j) * (z - r)
                            + 0.5 * (z - r) ** 2)
        assert abs(newton_refine(field, r + start, step_cap=0.5) - r) <= 1e-14

    def test_two_forward_probes_per_iteration_until_it_polishes(self):
        # F(z) = z - r is linear: one iteration lands within ZERO_TOL of r,
        # and the step that follows is negligible.  Start, two forward
        # probes and one trial, then four central probes and the final step:
        # 9 evaluations (11 with central differences throughout)
        r = 0.25 - 0.5j
        z0 = r + 0.1
        field, seen = counting(PlanarField("custom", lambda z: z - r))
        assert abs(newton_refine(field, z0, step_cap=1.0) - r) <= 1e-15
        assert len(seen) == 9
        h = 1e-7 * max(1.0, abs(z0))
        assert seen[:3] == [z0, z0 + h, z0 + 1j * h]
        z1 = seen[3]
        h = 1e-7 * max(1.0, abs(z1))
        assert seen[4:8] == [z1 + h, z1 - h, z1 + 1j * h, z1 - 1j * h]

    @pytest.mark.parametrize("start", [0.06, 0.06j, -0.04 + 0.03j])
    def test_polishes_a_double_zero_from_every_side(self, start):
        # a forward difference's O(h) error swamps F' = 2z once |z| < h =
        # 1e-7, and would stop the polish ~4e-9 from the zero, on the side
        # the run came from; central differences are exact for z^2
        assert abs(newton_refine(PlanarField("custom", lambda z: z * z), start,
                                 step_cap=0.5)) <= 1e-9

    def test_a_run_reaching_a_known_zero_returns_it(self):
        r = 0.6 + 0.3j
        field, seen = counting(PlanarField("custom", lambda z: (z - r) + (z - r) ** 2))
        free = newton_refine(field, r + 1e-3, step_cap=0.5)
        cost = len(seen)
        seen.clear()
        # the first step lands within ~1e-6 of r: start, two probes, one trial
        known = [r + 1e-9]
        assert newton_refine(field, r + 1e-3, step_cap=0.5, known=known, within=1e-5) is known[0]
        assert len(seen) == 4 < cost
        assert abs(free - r) <= 1e-14
        seen.clear()
        # a known zero farther than ``within`` from every iterate is not taken
        assert newton_refine(field, r + 1e-3, step_cap=0.5, known=[r + 1e-4], within=1e-5) == free
        assert len(seen) == cost

    def test_stops_where_its_zero_estimate_is_not_evaluable(self):
        # the uncapped first trial is the linear model's zero r, inside the
        # guard: start, two forward probes and that trial, where halving
        # toward the guard took 92 evaluations and ended "damped step stalled"
        r = 0.25 - 0.5j
        field, seen = counting(punctured_line(r, r))
        with pytest.raises(NewtonDiverged, match="zero estimate not evaluable"):
            newton_refine(field, r + 0.01, step_cap=1.0)
        assert len(seen) == 4
        assert abs(seen[3] - r) < 1e-6

    def test_a_capped_trial_that_is_not_evaluable_is_halved(self):
        # the first step is capped at 0.5 and its trial lands in the guard at
        # r + 0.5; it is no zero estimate, so the step halves and the run goes on
        r = 0.25 - 0.5j
        field, seen = counting(punctured_line(r, r + 0.5))
        assert abs(newton_refine(field, r + 1.0, step_cap=0.5) - r) <= 1e-14
        assert abs(seen[3] - (r + 0.5)) < 1e-6
        assert abs(seen[4] - (r + 0.75)) < 1e-6

    def test_a_run_below_tolerance_returns_its_iterate(self):
        # |F| = 5e-9 <= ZERO_TOL at the start, and the polish target r is in
        # the guard: start, four central probes and the trial (25 when the
        # step halved toward the guard)
        r = 0.25 - 0.5j
        field, seen = counting(punctured_line(r, r, scale=1e-3))
        assert newton_refine(field, r + 5e-6, step_cap=1.0) == r + 5e-6
        assert len(seen) == 6

    def test_a_start_that_is_not_evaluable_is_dropped(self):
        r = 0.25 - 0.5j
        field, seen = counting(punctured_line(r, r + 0.5))
        with pytest.raises(NewtonDiverged, match="start not evaluable"):
            newton_refine(field, r + 0.5, step_cap=1.0)
        assert seen == [r + 0.5]

    def test_a_probe_that_is_not_evaluable_drops_the_run(self):
        # a wall between z0 and its probe z0 + h, h = 1e-7, with |F(z0)| =
        # 5e-6: start and the two forward probes
        r = 0.25 - 0.5j
        z0 = r + 5e-6
        field, seen = counting(walled(PlanarField("custom", lambda z: z - r), z0.real + 5e-8))
        with pytest.raises(NewtonDiverged, match="jacobian probe hit a pole"):
            newton_refine(field, z0, step_cap=1.0)
        assert len(seen) == 3

    def test_a_probe_that_is_not_evaluable_below_tolerance_returns_its_iterate(self):
        # the same wall with |F(z0)| = 5e-9 <= ZERO_TOL: start and the four
        # central probes
        r = 0.25 - 0.5j
        z0 = r + 5e-6
        field, seen = counting(walled(PlanarField("custom", lambda z: 1e-3 * (z - r)),
                                      z0.real + 5e-8))
        assert newton_refine(field, z0, step_cap=1.0) == z0
        assert len(seen) == 5

    def test_a_singular_jacobian_below_tolerance_returns_its_iterate(self):
        # |F| = 1e-9 <= ZERO_TOL, and the four central probes see no slope
        field, seen = counting(PlanarField("custom", lambda z: 1e-9 + 0j))
        assert newton_refine(field, 0.5 + 0.5j, step_cap=1.0) == 0.5 + 0.5j
        assert len(seen) == 5

    def test_a_stalled_step_below_tolerance_returns_its_iterate(self):
        # |F(z0)| = 5e-9 <= ZERO_TOL, and the polish step to r, 5e-4 away, is
        # capped at 2e-4; a wall 1.5e-7 to the right, past the central probes,
        # refuses every trial down to 2e-4/1024: start, four probes, 11 trials
        r = 0.25 - 0.5j
        z0 = r - 5e-4
        field, seen = counting(walled(PlanarField("custom", lambda z: 1e-5 * (z - r)),
                                      z0.real + 1.5e-7))
        assert newton_refine(field, z0, step_cap=2e-4) == z0
        assert len(seen) == 16

    def test_a_field_s_own_newton_diverged_propagates(self):
        # the give-up rule covers Newton's own reasons: below tolerance, a
        # probe at which the field raises NewtonDiverged is not a pole
        r = 0.25 - 0.5j
        z0 = r + 5e-6

        def field(z):
            if z.real > z0.real + 5e-8:
                raise NewtonDiverged("raised by the field")
            return 1e-3 * (z - r)

        with pytest.raises(NewtonDiverged, match="raised by the field"):
            newton_refine(PlanarField("custom", field), z0, step_cap=1.0)

    @pytest.mark.parametrize("step_cap", [-1.0, 0.0, -0.0, math.nan, -math.inf])
    def test_step_cap_must_be_positive(self, step_cap):
        # a negative cap reversed every step, a zero one stalled, and NaN
        # turned the cap off
        field, seen = counting(PlanarField("custom", lambda z: z))
        with pytest.raises(ValueError, match="step_cap must be positive"):
            newton_refine(field, 0.5 + 0.5j, step_cap=step_cap)
        assert seen == []

    def test_an_infinite_step_cap_is_no_cap(self):
        assert abs(newton_refine(PlanarField("custom", lambda z: z), 0.5 + 0.5j,
                                 step_cap=math.inf)) <= 1e-15

    @pytest.mark.parametrize("z0", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                                    complex(0.0, -math.inf)])
    def test_non_finite_start_rejected(self, z0):
        field, seen = counting(PlanarField("custom", lambda z: z))
        with pytest.raises(ValueError, match="z0 must be finite"):
            newton_refine(field, z0, step_cap=1.0)
        assert seen == []


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


class TestExactInt:
    @pytest.mark.parametrize("x", [3, -2, True, 4.0, np.int64(7), np.float64(-1.0), Fraction(6, 2)])
    def test_whole_numbers_pass_as_int(self, x):
        got = exact_int(x, "x")
        assert type(got) is int and got == x

    def test_sympy_integers_pass(self):
        import sympy

        assert exact_int(sympy.Integer(-5), "x") == -5
        with pytest.raises(ValueError, match="x must be an integer"):
            exact_int(sympy.Rational(1, 2), "x")

    @pytest.mark.parametrize("x", [0.5, -0.7, 2.9, np.float64(1.5), Fraction(1, 3), "2"])
    def test_fractions_rejected(self, x):
        with pytest.raises(ValueError, match="x must be an integer"):
            exact_int(x, "x")

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64("nan")])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match="x must be a finite integer"):
            exact_int(x, "x")


WHOLE_NUMBER_INPUTS = {
    "poincare_hopf_check chi": (lambda k: poincare_hopf_check([], k).chi, 2.0),
    "handle_equilibria genus": (handle_equilibria, 2.0),
    "sector_index n_e": (lambda k: sector_index(k, 0), 2.0),
    "sector_index n_h": (lambda k: sector_index(0, k), 2.0),
    "corollary_check p": (lambda k: corollary_check(IndexSet((1, -1), 2), k), 2.0),
    "find_zeros n": (lambda k: find_zeros(NODE, (-1, 1, -1, 1), k).zeros, 8.0),
    "enumerate_ball radius": (lambda k: len(enumerate_ball(GENUS2_GENERATORS, k)), 2.0),
    "compose_word genus": (lambda k: compose_word([("a1", 1)], k).entries, 2.0),
    "curve_class genus": (lambda k: curve_class("g1", k), 2.0),
    "interior_zero_scan n": (
        lambda k: interior_zero_scan(BallExtensionField(dipole_sphere_field()), k), 2.0),
    # repr, so that a whole float kept as a float shows
    "GroupWord index": (lambda k: repr(GroupWord(((k, 1),)).letters), 1.0),
    "GroupWord exponent": (lambda k: repr(GroupWord(((2, k),)).letters), -1.0),
    "GroupBall.truncated radius": (
        lambda k: repr(enumerate_ball(GENUS2_GENERATORS, 2).truncated(k).radius), 1.0),
    "equivariance_report truncation": (
        lambda k: list(equivariance_report(GENUS2_GENERATORS, NUMERATOR_POLE, DENOMINATOR_POLE,
                                           truncation=k, sample_points=[0.4 + 1.8j])["truncations"]),
        2.0),
}


@pytest.mark.parametrize("call, whole", WHOLE_NUMBER_INPUTS.values(), ids=WHOLE_NUMBER_INPUTS)
def test_integer_inputs_go_through_exact_int(call, whole):
    # a whole float acts as its int; a fractional one is rejected, never
    # truncated (poincare_hopf_check(..., 1.5) used to audit against 1)
    assert call(whole) == call(int(whole))
    with pytest.raises(ValueError, match="must be an integer"):
        call(whole + 0.5)


# each input checked by whole_at_least, with its name in the message and its bound
LOWER_BOUNDS = {
    "sector_index n_e": (lambda k: sector_index(k, 0), "n_e", 0),
    "sector_index n_h": (lambda k: sector_index(0, k), "n_h", 0),
    "locate_zeros n": (lambda k: locate_zeros(NODE, (-1, 1, -1, 1), k), "grid resolution", 8),
    "corollary_check p": (lambda k: corollary_check(IndexSet((1, -1), 2), k), "p", 1),
    "GluingMatrix genus": (lambda k: GluingMatrix(k, ((1, 0), (0, 1))), "genus", 1),
    "compose_word genus": (lambda k: compose_word([], k), "genus", 1),
    "AbelianGroup rank": (lambda k: AbelianGroup(k), "rank", 0),
    "AbelianGroup torsion": (lambda k: AbelianGroup(0, (k,)), "torsion coefficient", 2),
    "handle_equilibria genus": (handle_equilibria, "genus", 0),
    "interior_zero_scan n": (
        lambda k: interior_zero_scan(BallExtensionField(dipole_sphere_field()), k),
        "sample count", 0),
    "enumerate_ball radius": (lambda k: enumerate_ball(GENUS2_GENERATORS, k), "radius", 0),
    "EquilibriumSpec n_e": (lambda k: EquilibriumSpec(k, 0), "n_e", 0),
    "EquilibriumSpec n_h": (lambda k: EquilibriumSpec(0, k), "n_h", 0),
    "SurfaceInventory genus": (lambda k: SurfaceInventory(k, True), "genus", 0),
}


@pytest.mark.parametrize("call, name, least", LOWER_BOUNDS.values(), ids=LOWER_BOUNDS)
def test_integer_inputs_below_their_bound_are_rejected(call, name, least):
    call(least)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {least - 1}$"):
        call(least - 1)


class TestFindZeros:
    def test_pendulum_window(self):
        scan = find_zeros(PENDULUM, (-4, 4, -3, 3), 48)
        locations = sorted(z.location.real for z in scan)
        assert len(scan) == 3
        assert locations == pytest.approx([-math.pi, 0.0, math.pi], abs=1e-6)
        assert all(abs(z.location.imag) < 1e-6 for z in scan)
        indices = [z.winding_index for z in sorted(scan, key=lambda r: r.location.real)]
        assert indices == [-1, 1, -1]

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

    def test_failing_winding_is_halved_six_times_then_dropped(self, monkeypatch):
        radii = []

        def no_index(field, center, radius):
            radii.append(radius)
            raise NonIntegerWinding("patched")

        monkeypatch.setattr(flowlab, "winding_index", no_index)
        scan = find_zeros(SADDLE, (-1, 1, -1, 1), 16)
        assert len(scan) == 0
        assert radii == [0.25 * 0.5 ** k for k in range(6)]  # min(width, height) / 8 first
        assert [d["reason"] for d in scan.dropped] == ["winding failed"]

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
    @given(NODE_GRIDS)
    def test_seeds_match_a_per_cell_loop(self, grid):
        n, flat = grid
        values = [flat[j * (n + 1):(j + 1) * (n + 1)] for j in range(n + 1)]
        region = (-1.0, 2.0, -0.5, 1.5)
        _, xs, ys = grid_field(values, region, n)
        assert grid_starts(values, region, n) == reference_starts(values, xs, ys)

    @settings(max_examples=60, deadline=None)
    @given(NODE_GRIDS, ANNULI)
    def test_annulus_seeds_match_a_per_cell_loop(self, grid, annulus):
        n, flat = grid
        values = [flat[j * (n + 1):(j + 1) * (n + 1)] for j in range(n + 1)]
        region = (-1.0, 2.0, -0.5, 1.5)
        _, xs, ys = grid_field(values, region, n)
        meeting = cells_meeting(xs, ys, annulus, 0.0)
        # a cell within 1e-9 of the annulus boundary may fall either way: the
        # scan compares squared distances, the reference hypots
        assume(cells_meeting(xs, ys, annulus, 1e-9) == meeting
               == cells_meeting(xs, ys, annulus, -1e-9))
        middles = {complex(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                   for j, i in meeting}
        want = [z for z in reference_starts(values, xs, ys) if z in middles]
        assert grid_starts(values, region, n, annulus) == want

    @settings(max_examples=60, deadline=None)
    @given(ANNULI, fields_with_zeros(), st.integers(8, 24))
    def test_annulus_scan_evaluates_only_meeting_cells(self, annulus, case, n):
        field, seen = counting(case[0])
        region = (-1.0, 1.0, -1.0, 1.0)
        xs = np.linspace(-1.0, 1.0, n + 1).tolist()
        with pytest.MonkeyPatch.context() as mp:
            # no Newton run: the scan evaluates grid corners only
            mp.setattr(flowlab, "newton_refine", record_only)
            find_zeros(field, region, n, annulus=annulus)
        allowed = {complex(xs[i + di], xs[j + dj])
                   for j, i in cells_meeting(xs, xs, annulus, 1e-9)
                   for dj in (0, 1) for di in (0, 1)}
        required = {complex(xs[i + di], xs[j + dj])
                    for j, i in cells_meeting(xs, xs, annulus, -1e-9)
                    for dj in (0, 1) for di in (0, 1)}
        assert len(set(seen)) == len(seen)
        assert required <= set(seen) <= allowed
        assert seen == sorted(seen, key=lambda z: (z.imag, z.real))  # row-major

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e170, 1e300])
    @pytest.mark.parametrize("holed", [False, True], ids=["disc", "annulus"])
    def test_annulus_mask_matches_hypot_at_any_scale(self, scale, holed):
        # squares of distances 1e-170 or 1e170 wide underflow or overflow
        # unless they are scaled first; no RuntimeWarning may escape
        rng = np.random.default_rng([round(math.log10(scale)) + 300, holed])
        for _ in range(40):
            n = int(rng.integers(8, 65))
            x0, y0 = rng.uniform(-1.0, 0.0, 2)
            x1, y1 = x0 + rng.uniform(0.5, 2.0), y0 + rng.uniform(0.5, 2.0)
            xs, ys = np.linspace(x0, x1, n + 1) * scale, np.linspace(y0, y1, n + 1) * scale
            r_outer = rng.uniform(0.05, 1.5)
            # the region holds a point at each distance below 0.35 from the centre,
            # so some cell meets the annulus
            r_inner = rng.uniform(0.0, min(r_outer, 0.3)) if holed else 0.0
            centre = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
            annulus = (centre * scale, r_inner * scale, r_outer * scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = flowlab._cells_meeting(xs, ys, flowlab._annulus(annulus))
            assert np.array_equal(got, hypot_cells_meeting(xs, ys, annulus))
            assert got.any()

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000])
    @pytest.mark.parametrize("a, b, c", [(0.375, 0.5, 0.625), (50.0, 120.0, 130.0)],
                             ids=["3-4-5", "5-12-13"])
    def test_annulus_mask_is_closed(self, scale, a, b, c):
        # right triangles exact in binary: the cell's nearest point (a, b)
        # lies exactly r_outer = c from the centre, and its farthest point
        # (-a, -b) exactly r_inner = c from it; both cells meet the closed
        # annulus, and neither does once the bound moves by 1e-12
        def meets(xs, ys, r_inner, r_outer):
            annulus = (0j, r_inner * scale, r_outer * scale)
            xs, ys = np.array(xs) * scale, np.array(ys) * scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return flowlab._cells_meeting(xs, ys, flowlab._annulus(annulus)).tolist()

        cell = ([a, 2 * a], [b, 2 * b])
        assert meets(*cell, 0.0, c) == [[True]]
        assert meets(*cell, 0.0, c * (1 - 1e-12)) == [[False]]
        hole = ([-a, 0.0], [-b, 0.0])
        assert meets(*hole, c, 2 * c) == [[True]]
        assert meets(*hole, c * (1 + 1e-12), 2 * c) == [[False]]

    @pytest.mark.parametrize("r_inner, r_outer", [(1e-170, 1.0), (1e-300, 1.0),
                                                  (1e-250, 1e-80), (1e-150, 1e300)])
    def test_annulus_mask_with_a_tiny_hole_matches_hypot(self, r_inner, r_outer):
        # below about 1e-154 r_outer the far squares, in units of r_outer,
        # underflow to 0 like (r_inner / r_outer)^2 did, and admitted the
        # cells wholly inside the hole; in units of r_inner they do not
        xs = np.array([-1.5, -0.5, 0.5, 1.5]) * r_inner
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flowlab._cells_meeting(xs, xs, flowlab._annulus((0j, r_inner, r_outer)))
        assert got.tolist() == [[True, True, True], [True, False, True], [True, True, True]]
        rng = np.random.default_rng(round(-math.log10(r_inner)))
        for _ in range(40):
            # cells at most 0.375 r_inner wide on a region around the hole
            n = int(rng.integers(16, 65))
            (x0, y0), (x1, y1) = rng.uniform(-3.0, -1.0, 2), rng.uniform(1.0, 3.0, 2)
            xs, ys = np.linspace(x0, x1, n + 1) * r_inner, np.linspace(y0, y1, n + 1) * r_inner
            annulus = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) * r_inner,
                       r_inner, r_outer)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = flowlab._cells_meeting(xs, ys, flowlab._annulus(annulus))
            assert np.array_equal(got, hypot_cells_meeting(xs, ys, annulus))
            assert got.any() and not got.all()  # the hole holds whole cells

    @settings(max_examples=60, deadline=None)
    @given(ANNULI, fields_with_zeros(), st.integers(16, 24))
    def test_annulus_scan_matches_the_filtered_full_scan(self, annulus, case, n):
        field, zeros = case
        centre, r_inner, r_outer = annulus

        def to_boundary(z):  # signed: negative outside the annulus
            d = abs(z - centre)
            return r_outer - d if r_inner == 0 else min(d - r_inner, r_outer - d)

        # a zero on the boundary may converge to either side of it
        assume(all(abs(to_boundary(z)) > 1e-3 for z in zeros))
        region = (-1.0, 1.0, -1.0, 1.0)
        inside = [z for z in find_zeros(field, region, n)
                  if r_inner <= abs(z.location - centre) <= r_outer]
        scan = find_zeros(field, region, n, annulus=annulus)
        assert len(scan) == len(inside)
        for z in scan:  # matched by location: the sort order breaks ties on rounding noise
            match = [w.winding_index for w in inside if abs(w.location - z.location) <= 1e-9]
            assert match == [z.winding_index]

    @pytest.mark.parametrize("noise", [1e-22, -1e-22])
    def test_zeros_on_a_vertical_line_keep_their_order(self, noise):
        # Newton lands on each zero with rounding noise in its real part;
        # the order must come from the imaginary parts alone
        targets = (complex(noise, 0.109375), complex(-noise, -0.375))
        field = PlanarField("custom", lambda z: rational(z, [0.109375j, -0.375j], []))

        def nearest(field, start, step_cap, known, within):
            return min(targets, key=lambda t: abs(t - start))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flowlab, "newton_refine", nearest)
            scan = find_zeros(field, (-1, 1, -1, 1), 16)
        assert [z.location for z in scan] == [targets[1], targets[0]]

    @pytest.mark.parametrize("zeros", [(0.24 + 0.2j, 0.3 + 0.2j), (0.3 + 0.2j, 0.36 + 0.2j),
                                       (0.1 - 0.3j, 0.16 - 0.26j)])
    def test_zeros_closer_than_a_grid_cell_are_both_found(self, zeros):
        # cells are 0.125 wide: the first pair lies in two cells, the others in one
        field = PlanarField("custom", lambda z: rational(z, zeros, []))
        found, dropped = locate_zeros(field, (-1, 1, -1, 1), 16)
        assert found == [pytest.approx(z, abs=1e-12) for z in zeros]
        assert dropped == []

    @pytest.mark.parametrize("centre", [0j, 0.3 + 0.2j, 0.31 + 0.17j])
    @pytest.mark.parametrize("direction", [1, 1j, cmath.exp(0.25j * math.pi)])
    def test_capture_merges_only_within_the_dedup_distance(self, centre, direction):
        # two simple zeros 3 dedup distances (1e-5 of the window's diagonal)
        # apart: a run bound for one never comes within the dedup distance of
        # the other, so it is not captured by it
        offset = 1.5e-5 * abs(complex(2, 2)) * direction
        zeros = (centre - offset, centre + offset)
        field = PlanarField("custom", lambda z: rational(z, zeros, []))
        found, dropped = locate_zeros(field, (-1, 1, -1, 1), 16)
        assert len(found) == 2 and dropped == []
        for z in zeros:
            assert min(abs(z - w) for w in found) <= 1e-12

    @pytest.mark.parametrize("zero, annulus, reason", [(3.0, None, "left the region"),
                                                       (0.8, (0j, 0.0, 0.5), "left the annulus")])
    def test_a_run_that_leaves_the_scan_is_dropped(self, zero, annulus, reason):
        # the one seed is the cell around the pole at p, where F is about
        # (p - zero) / (z - p); Newton runs from it down |F| to the zero,
        # past the region's 5% pad or outside the annulus
        p = 0.05 + 0.03j
        field = PlanarField("custom", lambda z: (z - zero) / (z - p))
        zeros, dropped = locate_zeros(field, (-1.0, 1.0, -1.0, 1.0), 16, annulus)
        assert zeros == []
        assert dropped == [{"start": [0.0625, 0.0625], "reason": reason}]

    @pytest.mark.parametrize("annulus", [(0j, 0.5, 0.5), (0j, -0.1, 0.5), (0j, 0.0, math.inf),
                                         (complex(math.nan, 0.0), 0.0, 0.5)])
    def test_bad_annulus_rejected(self, annulus):
        with pytest.raises(ValueError):
            find_zeros(NODE, (-1, 1, -1, 1), 8, annulus=annulus)

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            find_zeros(SADDLE, (-1, 1, -1, 1), 4)

    @pytest.mark.parametrize("region", [(-1, math.inf, -1, 1), (-math.inf, 1, -1, 1),
                                        (-1, 1, -1, math.inf), (-1, 1, math.nan, 1)])
    def test_non_finite_window_rejected(self, region):
        # the node's zero at 0 lies inside each of these windows
        with pytest.raises(ValueError, match="region bounds must be finite"):
            find_zeros(NODE, region, 8)

    @pytest.mark.parametrize("field, expected", [
        (lambda z: 1 / z, []),
        (lambda z: (z - 0.5) / z, [(0.5, 1)]),
    ])
    def test_pole_on_a_grid_corner_is_not_evaluable(self, field, expected):
        # the corner at 0 divides by zero: that cell seeds nothing, and the
        # rest of the scan goes on
        scan = find_zeros(field, (-1, 1, -1, 1), 8)
        assert [(z.location, z.winding_index) for z in scan] == [
            (pytest.approx(w, abs=1e-12), k) for w, k in expected]
        assert locate_zeros(field, (-1, 1, -1, 1), 8)[0] == [z.location for z in scan]


def array_counting(field):
    """``field`` with an array form, and the list of the arrays that form is
    called with, in order; scalar calls are not recorded."""
    calls = []

    def on_array(z):
        calls.append(z.copy())
        return field.on_array(z)

    return PlanarField("custom", field.func, on_array=on_array), calls


class TestArrayFields:
    """A field carrying ``on_array`` is read one array per scan or winding
    level; any other field one Python complex per point."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.none(), ANNULI), st.sampled_from(CANONICAL_KINDS), st.integers(8, 24))
    def test_scan_reads_the_needed_corners_as_one_array(self, annulus, kind, n):
        scalar, seen = counting(canonical_field(kind))
        array, calls = array_counting(canonical_field(kind))
        region = (-1.0, 1.0, -1.0, 1.0)
        with pytest.MonkeyPatch.context() as mp:
            # no Newton run: the scan evaluates grid corners only
            mp.setattr(flowlab, "newton_refine", record_only)
            locate_zeros(scalar, region, n, annulus)
            locate_zeros(array, region, n, annulus)
        assert all(type(z) is complex for z in seen)
        assert len(calls) == 1
        assert calls[0].dtype == complex and calls[0].tolist() == seen  # row-major, bit for bit

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_winding_reads_one_array_per_level(self, kind):
        scalar, seen = counting(canonical_field(kind))
        array, calls = array_counting(canonical_field(kind))
        for wind in (lambda f: winding_index(f, 0.1 - 0.05j, 0.4),
                     lambda f: winding_on_path(f, [0.5, 0.3 + 0.4j, -0.5j])):
            seen.clear()
            calls.clear()
            assert wind(array) == wind(scalar)
            assert all(type(z) is complex for z in seen)
            assert calls[0].size == WINDING_START
            assert all(0 < c.size <= 2 * p.size for p, c in zip(calls, calls[1:]))
            assert np.concatenate(calls).tolist() == seen

    @pytest.mark.parametrize("kind, degree", [("saddle", -1), ("node", 1), ("center", 1),
                                              ("dipole", 2)])
    def test_circle_settling_on_its_first_level_reads_two_arrays(self, kind, degree):
        # every start arc passes on the first level: the start points and
        # their midpoints, and nothing after them
        field, calls = array_counting(canonical_field(kind))
        assert winding_index(field, 0j, 1.0) == degree
        assert [c.size for c in calls] == [WINDING_START, WINDING_START]

    @pytest.mark.parametrize("on_array, expected", [
        (lambda z: 1 / z, []),
        (lambda z: (z - 0.5) / z, [(0.5, 1)]),
    ])
    def test_non_finite_array_element_is_not_evaluable(self, on_array, expected):
        # the corner at 0 divides by zero without a warning: that cell seeds
        # nothing, and the rest of the scan goes on
        field = PlanarField("custom", lambda z: on_array(np.array([z]))[0], on_array=on_array)
        scan = find_zeros(field, (-1, 1, -1, 1), 8)
        assert [(z.location, z.winding_index) for z in scan] == [
            (pytest.approx(w, abs=1e-12), k) for w, k in expected]


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

    @pytest.mark.parametrize("location", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_a_location_that_is_not_finite_is_rejected(self, location):
        # a NaN location passed the audit, and two of them passed as distinct
        for records in ([ZeroRecord(location, 1, 0.0)],
                        [ZeroRecord(location, 1, 0.0), ZeroRecord(location, 1, 0.0)]):
            with pytest.raises(ValueError, match="^zero location must be finite$"):
                poincare_hopf_check(records, chi=len(records))

    def test_report_dict(self):
        report = poincare_hopf_check([], chi=2)
        data = report.to_dict()
        assert data["ok"] is False
        assert data["chi"] == 2


def assert_chart_matches_per_line_flows(chart, field, p, box):
    """Assert that ``chart``'s points are within 1e-15 of rectify's lines run
    one at a time (the scalar ``_flow`` of each transversal point, forward
    through the positive times and backward through the negative ones), and
    return how many of those lines rejected a step."""
    fp = field(p)
    normal = 1j * fp / abs(fp)
    assert chart.base == p and chart.transversal == (p - box * normal, p + box * normal)
    mid = RECTIFY_GRID // 2
    t_values = chart.t_values
    rejecting = 0
    for s, row in zip(chart.s_values, chart.points):
        start = p + s * normal
        assert abs(row[mid] - start) <= 1e-15
        for targets, columns in ((t_values[mid + 1:], range(mid + 1, RECTIFY_GRID)),
                                 (t_values[mid - 1::-1], range(mid - 1, -1, -1))):
            counted, seen = counting(field)
            times, points, hits, _ = flowlab._flow(counted, start, targets)
            assert len(hits) == len(targets)
            rejecting += len(seen) > 11 * (len(times) - 1)  # 11 evaluations per step tried
            for column, i in zip(columns, hits):
                assert abs(row[column] - points[i]) <= 1e-15
    return rejecting


class TestRectify:
    def test_constant_field_already_straight(self):
        const = PlanarField("custom", lambda z: 1 + 0j)
        chart = rectify(const, 0.3 + 0.2j, 0.1)
        assert chart.residual < 1e-10
        # chart time is flow time: the point at (s, t) is the transversal
        # point s, carried t along the unit flow
        for s, row in zip(chart.s_values, chart.points):
            for t, z in zip(chart.t_values, row):
                assert z == pytest.approx(0.3 + 0.2j + 1j * s + t, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 0.3), st.floats(0.2, 5.0))
    @example(0.1, 1.0)  # np.linspace(-0.1, 0.1, 9) is not symmetric about 0
    def test_backward_times_are_the_forward_times_negated(self, box, speed):
        # the backward lines stop at -t for each forward t, so the negative
        # times must be the positive ones negated, bit for bit
        chart = rectify(PlanarField("custom", lambda z: complex(speed, 0.0)), 0.3 + 0.2j, box)
        t, mid = chart.t_values, RECTIFY_GRID // 2
        forward = np.linspace(-box / speed, box / speed, RECTIFY_GRID)[mid:].tolist()
        assert t[mid:] == tuple(forward) and math.copysign(1.0, t[mid]) == 1.0
        for k in range(1, mid + 1):
            assert t[mid - k] == -t[mid + k]

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

    def test_equilibrium_on_the_chart_grid_rejected(self):
        # (y - y0)^2 vanishes on the line through the top transversal point
        # and is never negative, so no scan cell brackets it: the grid's own
        # values are what find it
        p, box = 0.3 + 0.2j, 0.1
        y0 = p.imag + box
        field = PlanarField("custom", lambda z: complex((z.imag - y0) ** 2, 0.0))
        assert locate_zeros(field, (0.18, 0.42, 0.08, 0.32), 16) == ([], [])
        with pytest.raises(EquilibriumInBox, match=r"\|field\| = 0 inside the requested box"):
            rectify(field, p, box)

    def test_degenerate_chart_jacobian_rejected(self):
        # above y1 the field is vertical with real part 0.0 exactly, so the
        # top two transversal points keep their x, p.x; at the transversal
        # point between them both chart derivatives are vertical.  The
        # field vanishes nowhere: its real part is positive below y1, its
        # imaginary part above y2
        p = 0.3 + 0.2j
        y2, y1 = p.imag + 0.04, p.imag + 0.06
        field = PlanarField("custom", lambda z: complex(max(0.0, y1 - z.imag),
                                                        0.1 * max(0.0, z.imag - y2)))
        with pytest.raises(EquilibriumInBox, match="degenerate chart jacobian"):
            rectify(field, p, 0.1)

    def test_equilibrium_inside_box_rejected(self):
        # base point is regular, but the box reaches the saddle at (pi, 0)
        with pytest.raises(EquilibriumInBox):
            rectify(PENDULUM, complex(math.pi - 0.001, 0.0), 0.05)

    @pytest.mark.parametrize("box", [math.inf, math.nan, 0.0, -0.1])
    def test_box_must_be_positive_and_finite(self, box):
        with pytest.raises(ValueError, match="box must be positive and finite"):
            rectify(PENDULUM, 1j, box)

    @pytest.mark.parametrize("p", [complex(math.nan, 1), complex(0, math.inf)])
    def test_non_finite_base_point_rejected(self, p):
        with pytest.raises(ValueError, match="p must be finite"):
            rectify(PENDULUM, p, 0.1)

    def test_grid_is_read_as_one_array(self):
        field, calls = array_counting(PENDULUM)
        chart = rectify(field, 1j, 0.1)
        grid = [z for row in chart.points for z in row]  # row-major
        # the equilibrium probe's scan, then the 18 flow lines' RK4 stages,
        # 11 per step, then the grid, last and in one call
        assert calls[-1].dtype == complex and calls[-1].tolist() == grid
        stages = [c.size for c in calls[1:-1]]
        assert stages and len(stages) % 11 == 0 and set(stages) == {2 * RECTIFY_GRID}
        # without an array form, the same chart from 81 calls with a Python complex
        scalar, seen = counting(PENDULUM)
        assert rectify(scalar, 1j, 0.1) == chart
        assert seen[-81:] == grid and all(type(z) is complex for z in seen)

    def test_grid_point_that_is_not_evaluable_raises_near_pole(self):
        # F = 1 raises PoleHit at the last grid point read one by one (its
        # last call, after every flow step), or its array form is NaN there
        # in its last call, the grid's
        const, seen = counting(PlanarField("custom", lambda z: 1 + 0j))
        corner = rectify(const, 0j, 0.1).points[-1][-1]
        assert seen[-1] == corner
        calls = iter(range(1, len(seen) + 1))

        def pole_on_the_last_call(z):
            if next(calls) == len(seen):
                raise PoleHit("patched")
            return 1 + 0j

        const_array = PlanarField("custom", lambda z: 1 + 0j, on_array=np.ones_like)
        counted, arrays = array_counting(const_array)
        rectify(counted, 0j, 0.1)
        array_calls = iter(range(1, len(arrays) + 1))

        def nan_at_corner_on_the_last_call(z):
            return np.where((next(array_calls) == len(arrays)) & (z == corner), np.nan, 1 + 0j)

        for field in (PlanarField("custom", pole_on_the_last_call),
                      PlanarField("custom", lambda z: 1 + 0j,
                                  on_array=nan_at_corner_on_the_last_call)):
            with pytest.raises(NearPole, match="a chart grid point is not evaluable"):
                rectify(field, 0j, 0.1)
        # NaN at the corner in every call: the flow lines' last RK4 stage
        # meets it before the grid is read, and halving cannot pass it
        nan_at_corner = PlanarField("custom", lambda z: 1 + 0j,
                                    on_array=lambda z: np.where(z == corner, np.nan, 1 + 0j))
        with pytest.raises(NearPole, match="chart integration hit a pole inside the box"):
            rectify(nan_at_corner, 0j, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-2.0, 2.0), st.floats(0.6, 1.5),
           st.sampled_from([-1, 1]))
    def test_batched_lines_match_one_flow_per_line(self, k, theta, speed, side):
        # the workload's pendulum charts: every line takes the steps it
        # would take alone, up to rounding
        field, p = pendulum_field(k), complex(theta, side * speed)
        assert_chart_matches_per_line_flows(rectify(field, p, 0.1), field, p, 0.1)

    def test_a_step_one_line_rejects_is_retried_for_every_line(self):
        # the shear F = 1 + 2y is constant along each (horizontal) line, so
        # RK4 is exact whatever the steps; the first step of the lines above
        # y = 1/6 would move more than DEFAULT_MAX_DISP and is rejected, and
        # the batch retries every line at the smaller size
        shear = PlanarField("custom", lambda z: (1.0 + 2.0 * z.imag) + 0j,
                            on_array=lambda z: (1.0 + 2.0 * z.imag) + 0j)
        counted, calls = array_counting(shear)
        chart = rectify(counted, 0j, 0.3)
        rejecting = assert_chart_matches_per_line_flows(chart, shear, 0j, 0.3)
        assert 0 < rejecting < 2 * RECTIFY_GRID
        # the scan, 11 stages per step tried, the grid: more steps than targets
        assert (len(calls) - 2) // 11 > RECTIFY_GRID // 2

    def test_pole_inside_box_rejected(self):
        # forward chart flows from the transversal at x = 0 run into the
        # wall, where F raises NearPole or is infinite, read point by point
        # or as an array; the non-finite steps raise no warning (an error here)
        def infinite_past_the_wall(z):
            return np.where(z.real > 0.05, np.inf, 1.0) + 0j

        def infinite(z):
            return complex(infinite_past_the_wall(z))

        for field in (walled(PlanarField("custom", lambda z: 1 + 0j), 0.05),
                      PlanarField("custom", infinite),
                      PlanarField("custom", infinite, on_array=infinite_past_the_wall)):
            with pytest.raises(NearPole, match="chart integration hit a pole inside the box"):
                rectify(field, 0j, 0.1)

    def test_array_form_that_raises_on_a_flow_line_halves_the_step(self):
        # under the shear F = 1 + 5y the top lines reach x = 0.15, past the
        # equilibrium probe's square (|x| <= 0.12) and into a wall at x =
        # 0.13 where the array form raises NearPole: the batch halves its
        # step down to pole-proximity, as the point-by-point form does
        def shear(z):
            return (1.0 + 5.0 * z.imag) + 0j

        def raising_array_form(z):
            if (z.real > 0.13).any():
                raise NearPole("beyond the wall")
            return shear(z)

        for field in (walled(PlanarField("custom", shear), 0.13),
                      PlanarField("custom", shear, on_array=raising_array_form)):
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

    @pytest.mark.parametrize("z0", [complex(math.nan, 0), complex(math.inf, 1)])
    def test_non_finite_start_rejected(self, z0):
        # at a NaN start both orbits are NaN and their defect would read 0.0
        with pytest.raises(ValueError, match="z0 must be finite"):
            covariance_check(NODE, MoebiusMap(2, 0, 0, 1), z0, 1.0)

    def test_truncates_to_common_range(self):
        # node flow z e^t; the shifted start 1.5 reaches the wall at x = 2
        # first, after 9 of the 32 samples t = k/32 (1.5 e^(9/32) < 2 <
        # 1.5 e^(10/32)).  The defect |(e^t + 0.5) - 1.5 e^t| grows with t,
        # so its maximum over the common samples is at t = 9/32.
        shift = MoebiusMap(1, 0.5, 0, 1)
        value = covariance_check(walled(NODE, 2.0), shift, 1 + 0j, 1.0)
        assert value == pytest.approx(0.5 * (math.exp(9 / 32) - 1), rel=1e-9)

    def test_stops_where_the_map_meets_its_pole(self):
        # z -> 1/z fixes -1, so both orbits of F = 1 are -1 + t; at the last
        # sample, t = 1, they reach the map's pole at 0, and the defect
        # |1/z - z| is taken up to the sample before, z = -1/32
        const = PlanarField("custom", lambda z: 1 + 0j)
        value = covariance_check(const, MoebiusMap(0, 1, 1, 0), -1 + 0j, 1.0)
        assert value == pytest.approx(32 - 1 / 32, rel=1e-12)

    def test_start_on_the_map_s_pole_raises_pole_hit(self):
        # z -> 1 / (z - 1) has its pole at z0 = 1
        with pytest.raises(PoleHit):
            covariance_check(NODE, MoebiusMap(0, 1, 1, -1), 1 + 0j, 1.0)

    def test_no_reachable_sample_raises(self):
        # the wall is 1e-4 ahead, the first sample 1/32 away
        field = walled(PlanarField("custom", lambda z: 1 + 0j), 0.5)
        with pytest.raises(NearPole, match="no common integrable range"):
            covariance_check(field, MoebiusMap.identity(), 0.5 - 1e-4, 1.0)
