"""Numerical flow analysis: integration, zero finding, winding indices,
index-sum audits, flow-box rectification, and trajectory covariance checks.

Fields are callables taking a complex point and returning a complex value
(u + iv).  A field may also carry ``on_array``, its elementwise form on a
complex ndarray; the grid scan, the winding loops and ``rectify``'s chart
grid then read all the points of one scan, level or grid in one call
(``_values``), and ``rectify``'s flow lines read each RK4 stage of all 18
lines in one call; Newton and the flows of ``integrate`` and
``covariance_check`` stay scalar.  One rule: a point is not evaluable
where the field raises NearPole, PoleHit, DenominatorVanishes or
ZeroDivisionError (``_value`` reads these as NaN) or returns a non-finite
value, and an element of an array result is not evaluable where it is not
finite.  Scans, Newton, winding loops and flow steps then skip, drop, fail
or retry, and ``rectify`` raises NearPole for such a grid point, as
documented per function; at a point the caller hands in (``integrate``'s
z0, ``rectify``'s p) the field's own exception propagates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    _NOT_EVALUABLE,
    EquilibriumInBox,
    NearPole,
    NewtonDiverged,
    NonIntegerWinding,
    PoleHit,
    ZeroOnContour,
)
from .moebius import MoebiusMap, _finite_point, apply, exact_int, whole_at_least

ZERO_TOL = 1e-8
DEFAULT_MAX_DISP = 0.1
FLOW_TOL = 1e-9
MAX_STEPS = 200_000
WINDING_START = 32
WINDING_CHORD_TOL = 0.05
WINDING_MAX_SAMPLES = 1 << 17  # field evaluations per loop
WINDING_FINEST = 1 << 24  # the narrowest arc is 1 / WINDING_FINEST of the loop
WINDING_INTEGER_TOL = 0.05
NEWTON_MAX_ITER = 50
COVARIANCE_SAMPLES = 32
RECTIFY_GRID = 9


def _value(field, z) -> complex:
    """F(z), or NaN where the field is not evaluable."""
    try:
        return field(z)
    except _NOT_EVALUABLE:
        return complex(math.nan, math.nan)


def _values(field, points: np.ndarray) -> np.ndarray:
    """The array twin of ``_value``: F at each of ``points`` (a complex array).

    A field carrying ``on_array`` gets one call with the whole array, under
    np.errstate(all="ignore"); any other field is called once per point with
    a Python complex.  An element whose value is not finite is not evaluable.
    """
    on_array = getattr(field, "on_array", None)
    if on_array is not None:
        with np.errstate(all="ignore"):
            return np.asarray(on_array(points), dtype=complex)
    return np.array([_value(field, z) for z in points.tolist()], dtype=complex)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with its termination reason.

    Times are strictly monotone in the integration direction (increasing
    for forward runs, decreasing for reverse ones); each consecutive pair
    must hold that ordering, so a NaN time among two or more raises
    ValueError.
    """

    times: tuple[float, ...]
    points: tuple[complex, ...]
    termination: str  # "time-limit" | "pole-proximity" | "region-exit"

    def __post_init__(self):
        if len(self.times) != len(self.points) or not self.times:
            raise ValueError("times and points must be equal-length and nonempty")
        if len(self.times) > 1:
            forward = self.times[1] > self.times[0]
            for t0, t1 in zip(self.times, self.times[1:]):
                if not ((t1 > t0) if forward else (t1 < t0)):
                    raise ValueError("times must be strictly monotone")

    @property
    def end_point(self) -> complex:
        return self.points[-1]

    @property
    def end_time(self) -> float:
        return self.times[-1]


def _rk4_step(field, z: complex, step: float, k1: complex) -> complex:
    k2 = field(z + 0.5 * step * k1)
    k3 = field(z + 0.5 * step * k2)
    k4 = field(z + step * k3)
    return (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _inside(region, z: complex) -> bool:
    x0, x1, y0, y1 = region
    return x0 <= z.real <= x1 and y0 <= z.imag <= y1


def _flow(field, z0, targets, region=None):
    """Adaptive RK4 from time 0 through ``targets``, landing exactly on each.

    ``z0`` is one line's start, a complex, or the starts of several lines, a
    1-D complex array; for an array, ``field`` maps an array of points to
    their values, and an element that is not finite is not evaluable (the
    caller runs such a flow under np.errstate(all="ignore"), so that the
    steps of a non-finite line do not warn).
    Targets are nonzero, of one sign, and strictly monotone away from 0.
    Step doubling sizes each step: one RK4 step (full) against two of half
    the size (two) estimates the error err = |two - full| / 15, and the
    extrapolated dz = two + (two - full) / 15 is taken when err <= tol =
    FLOW_TOL * max(1, |z|) and |dz| <= DEFAULT_MAX_DISP.  The next size is
    0.9 * min((tol / err)^(1/5), DEFAULT_MAX_DISP / |dz|) times this one,
    clamped to [0.1, 2]; a step meeting a point that is not evaluable is
    retried at half the size.  A step is also rejected, with the next size
    capped at half, when the half-step value k_half = F(z + first) differs
    from k1 = F(z) by more than |k1|: the field turned around within half a
    step, so the step may have jumped a pole.  The first step tries the
    whole way to the first target.  All lines take one shared step, as one
    ODE system under a componentwise error test (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4), and one step test serves one line or many, the
    strictest line deciding: several lines first reduce to the smallest
    tol / err, the largest err and |dz|, and whether any line turned.  So a
    step is taken when every line passes, the next size is the smallest that
    any line allows, and a line that meets a point that is not evaluable or
    turns around halves it for all.

    With s = max(1, |target|) for the target being approached, the target
    counts as reached within 1e-15 * s, and a rejected step that leaves a
    size below 1e-14 * s ends the run with "pole-proximity".  Leaving
    ``region`` (one line only) after a step ends it with "region-exit";
    reaching every target, or taking MAX_STEPS steps, with "time-limit".

    Returns (times, points, hits, termination): every accepted step,
    starting with (0, z0), and for each target reached the index of its
    point (an array, for several lines) in ``points``.
    """
    lines = isinstance(z0, np.ndarray)
    direction = 1.0 if targets[-1] > 0 else -1.0
    t = 0.0
    z = z0
    h = abs(targets[0])
    times = [t]
    points = [z]
    hits = []
    for target in targets:
        scale = max(1.0, abs(target))
        while (target - t) * direction > 1e-15 * scale:
            if len(points) > MAX_STEPS:
                return times, points, hits, "time-limit"
            step = direction * min(h, abs(target - t))
            try:
                k1 = field(z)
                full = _rk4_step(field, z, step, k1)
                first = _rk4_step(field, z, 0.5 * step, k1)
                k_half = field(z + first)
                two = first + _rk4_step(field, z + first, 0.5 * step, k_half)
                err = abs(two - full) / 15.0
                dz = two + (two - full) / 15.0
                turned = abs(k_half - k1) > abs(k1)
            except _NOT_EVALUABLE:
                err = dz = np.full(z.shape, math.nan) if lines else math.nan
                turned = False
            disp = abs(dz)
            # ratio >= 1 exactly when err <= tol; several lines reduce to the strictest
            if lines:
                ratio = (FLOW_TOL * np.maximum(1.0, abs(z)) / np.maximum(err, 1e-300)).min()
                err, disp, turned = err.max(), disp.max(), np.any(turned)
            else:
                ratio = FLOW_TOL * max(1.0, abs(z)) / max(err, 1e-300)
            room = min(ratio ** 0.2, DEFAULT_MAX_DISP / max(disp, 1e-300))
            ok = ratio >= 1.0 and disp <= DEFAULT_MAX_DISP
            h = abs(step) * (min(2.0, max(0.1, 0.9 * room)) if math.isfinite(err) else 0.5)
            if turned:  # F moved by more than |k1| in half a step: it may have jumped a pole
                h, ok = min(h, 0.5 * abs(step)), False
            # NaN, from a failed or non-finite step, fails every comparison
            if not ok:
                if h < 1e-14 * scale:
                    return times, points, hits, "pole-proximity"
                continue
            z = z + dz
            t = t + step
            times.append(t)
            points.append(z)
            if region is not None and not _inside(region, z):
                return times, points, hits, "region-exit"
        hits.append(len(points) - 1)
    return times, points, hits, "time-limit"


def _check_horizon(t_end: float) -> None:
    if t_end == 0 or not math.isfinite(t_end):
        raise ValueError("t_end must be finite and nonzero")


def _region(region) -> tuple[float, float, float, float]:
    """``region`` as floats (x0, x1, y0, y1), or ValueError unless the bounds
    are finite with x0 < x1 and y0 < y1."""
    x0, x1, y0, y1 = (float(v) for v in region)
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("region bounds must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate region")
    return x0, x1, y0, y1


def integrate(field, z0: complex, t_end: float, region=None) -> Trajectory:
    """Orbit of ``z0`` up to time ``t_end``, sampled at every accepted step.

    Each step's size comes from its own step-doubling error estimate, held
    to FLOW_TOL * max(1, |z|), and no step moves more than DEFAULT_MAX_DISP
    (``_flow``).  A step meeting a point that is not evaluable, or across
    which the field turns around, is halved, so an orbit running into a pole
    ends with "pole-proximity" before reaching it.  Negative ``t_end``
    integrates in reverse time; exhausting MAX_STEPS reports "time-limit",
    and leaving ``region`` = (x0, x1, y0, y1) "region-exit".

    Raises ValueError for a non-finite ``z0``, a zero or non-finite
    ``t_end`` or a region ``locate_zeros`` would reject, and NearPole (or
    kin) only if the starting point itself is not evaluable.
    """
    z0 = _finite_point(z0, "z0")
    _check_horizon(t_end)
    region = None if region is None else _region(region)
    field(z0)  # not evaluable at the seed -> propagate
    times, points, _, termination = _flow(field, z0, [t_end], region)
    return Trajectory(tuple(times), tuple(points), termination)


# ---------------------------------------------------------------------------
# winding numbers


def _contour_values(values) -> np.ndarray:
    """``values`` as a complex array, once no sample rules out a winding count."""
    v = np.asarray(values, dtype=complex)
    if not np.isfinite(v).all():
        raise NonIntegerWinding("non-finite field value on the contour")
    if np.abs(v).min() < ZERO_TOL:
        raise ZeroOnContour("field magnitude below tolerance on the contour")
    return v


def _circle_at(center: complex, radius: float, n: int, k) -> np.ndarray:
    """Points k (an integer array) of the n-point circle, as a complex array.

    Point k depends on 2 pi k / n alone: numpy's cos and sin act per element
    (and match ``math.cos``/``math.sin`` bit for bit on x86-64, numpy 2.4).
    """
    angles = 2.0 * np.pi * k / n
    return center + radius * (np.cos(angles) + 1j * np.sin(angles))


def _winding(field, path) -> int:
    """Degree of the field around a closed loop, by adaptive arc bisection.

    ``path(k, n)`` returns points k (an integer array) of the loop cut into
    n equal parts, as a complex array; point k sits at loop fraction k / n.
    The loop starts as WINDING_START arcs.  Each level evaluates the midpoint
    m of every unsettled arc (a, b) in one ``_values`` call, no point twice.  It
    accepts the arc when F is close to its chord, |F(m) - (F(a) + F(b))/2|
    <= WINDING_CHORD_TOL * min(|F(a)|, |F(m)|, |F(b)|), and each half-arc
    turns F by less than a quarter turn; it then adds arg(F(m)/F(a)) +
    arg(F(b)/F(m)) to the phase sum.  A rejected arc is split in two for the
    next level, so each arc settles on its own and a smooth field costs a
    few dozen evaluations.  The chord test, not a phase-jump test, catches a
    zero and a pole close together (the argument principle on arcs: Ying &
    Katz, Numer. Math. 53, 1988): a pair straddling the unit circle is
    counted exactly down to a separation of 0.002.

    A loop costs at most WINDING_MAX_SAMPLES evaluations.  Arcs are halved
    down to 1 / WINDING_FINEST of the loop, but below 1 /
    WINDING_MAX_SAMPLES only while at most WINDING_START arcs are left: a
    lone pole 1e-6 r off a circle leaves about 10 per level and settles in
    about 250 evaluations, while thousands of unsettled arcs mean the field
    turns faster than the samples resolve.  Raises ZeroOnContour when |F| <
    ZERO_TOL at a sample, and NonIntegerWinding at once on a sample that is
    not evaluable or not finite, when arcs are still unsettled at the width
    limit that applies, when the next level would pass the evaluation
    budget, or when the phase sum is not within WINDING_INTEGER_TOL of a
    whole turn.
    """
    n = WINDING_START
    k = np.arange(n)  # arc k runs from point k to point k + 1 of the n-point loop
    fa = _contour_values(_values(field, path(k, n)))
    fb = np.concatenate((fa[1:], fa[:1]))
    total, evaluations = 0.0, n
    while True:
        if n > WINDING_FINEST or (n > WINDING_MAX_SAMPLES and k.size > WINDING_START):
            raise NonIntegerWinding(f"{k.size} arcs 1/{n // 2} of the loop wide did not settle")
        if evaluations + k.size > WINDING_MAX_SAMPLES:
            raise NonIntegerWinding(
                f"{k.size} arcs unsettled after {evaluations} of {WINDING_MAX_SAMPLES} evaluations"
            )
        evaluations += k.size
        k = 2 * k + 1  # the midpoints, on the 2n-point loop
        n *= 2
        fm = _contour_values(_values(field, path(k, n)))
        turn_a, turn_b = np.angle(fm / fa), np.angle(fb / fm)
        smallest = np.minimum(np.minimum(np.abs(fa), np.abs(fm)), np.abs(fb))
        ok = np.abs(fm - 0.5 * (fa + fb)) <= WINDING_CHORD_TOL * smallest
        # a half-arc step near +-pi may have aliased, so each is held under a quarter turn
        ok &= (np.abs(turn_a) < np.pi / 2) & (np.abs(turn_b) < np.pi / 2)
        total += float((turn_a[ok] + turn_b[ok]).sum())
        if ok.all():
            break
        # a rejected arc (a, b) becomes its halves (a, m) and (m, b)
        bad = ~ok
        k, fa, fm, fb = k[bad, None], fa[bad, None], fm[bad, None], fb[bad, None]
        k = np.concatenate((k - 1, k), axis=1).ravel()
        fa, fb = np.concatenate((fa, fm), axis=1).ravel(), np.concatenate((fm, fb), axis=1).ravel()
    estimate = total / (2.0 * math.pi)
    nearest = round(estimate)
    if abs(estimate - nearest) > WINDING_INTEGER_TOL:
        raise NonIntegerWinding(f"estimate {estimate:.4f} is not near an integer")
    return int(nearest)


def winding_index(field, center: complex, radius: float) -> int:
    """Degree of the field around a circle (counterclockwise), by ``_winding``.

    A circle through a point that is not evaluable raises NonIntegerWinding.
    Raises ValueError for a non-finite centre or a radius not in (0, inf).
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    center = _finite_point(center, "centre")
    return _winding(field, lambda k, n: _circle_at(center, radius, n, k))


def winding_on_path(field, vertices) -> int:
    """Degree of the field around a closed polygon, as ``winding_index``.

    ``vertices`` are traversed in order and closed back to the first; each
    of the m sides is 1/m of the loop, placed by exact integer arithmetic so
    that a sample at a vertex is that vertex.  Fewer than 3 vertices or a
    non-finite vertex raise ValueError.
    """
    v = np.array([_finite_point(p, "vertex") for p in vertices], dtype=complex)
    if v.size < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    step = np.roll(v, -1) - v

    def polygon(k, n):
        side, t = np.divmod(k * v.size, n)
        return v[side] + step[side] * (t / n)

    return _winding(field, polygon)


def sector_index(n_e: int, n_h: int) -> Fraction:
    """1 + (elliptic - hyperbolic)/2 as an exact rational.

    A half-integer result (odd sector imbalance) is representable and left
    to the caller to flag; it is not an error.  The counts go through
    ``whole_at_least`` with bound 0, so a whole float counts as its int and
    a negative count raises ValueError("n_e must be at least 0, ...").
    """
    n_e, n_h = whole_at_least(n_e, 0, "n_e"), whole_at_least(n_h, 0, "n_h")
    return Fraction(2 + n_e - n_h, 2)


# ---------------------------------------------------------------------------
# zero finding


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    winding_index: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "location": [self.location.real, self.location.imag],
            "winding_index": self.winding_index,
            "residual": self.residual,
        }


@dataclass
class ZeroScan:
    """Sequence of located zeros plus diagnostics for dropped candidates."""

    zeros: list[ZeroRecord]
    dropped: list[dict]

    def __iter__(self):
        return iter(self.zeros)

    def __len__(self):
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]


def newton_refine(field, z0, step_cap, known=(), within=0.0):
    """A zero of ``field`` near z0 by damped Newton iteration, or NewtonDiverged.

    Each of at most NEWTON_MAX_ITER iterations builds the Jacobian of
    (Re F, Im F) by differences with h = 1e-7 max(1, |z|): while
    |F| > ZERO_TOL from two forward probes, F(z + h) and F(z + ih), against
    the F(z) it already holds (Dennis & Schnabel, 1983, sec. 5.4), and once
    |F| <= ZERO_TOL from four central ones, F(z +- h) and F(z +- ih).  The
    Newton step is shortened to at most ``step_cap`` and then halved, down
    to 1/1024 of it, until |F| falls or is at most ZERO_TOL.  An uncapped
    step's first trial, z + delta, is the linear model's zero estimate: if
    F is not evaluable there, the run stops instead of halving toward a
    pole (backtracking answers a larger |F|, not a point where F is
    undefined; Dennis & Schnabel, sec. 6.3).  Once |F| <= ZERO_TOL the
    iteration polishes until the step is at most 1e-10 max(1, |z|), and
    takes that step unless it makes |F| larger.  After each accepted step
    an iterate within ``within`` of one of the ``known`` zeros returns that
    zero: a run that reaches a zero found before stops there.

    One give-up rule: a run that cannot go on returns its current z once
    |F| <= ZERO_TOL, and otherwise raises NewtonDiverged with its reason,
    "jacobian probe hit a pole", "singular jacobian", "zero estimate not
    evaluable", "damped step stalled" or "iteration budget exhausted".  Any
    other exception the field raises propagates.  Raises NewtonDiverged
    ("start not evaluable") when F(z0) is not evaluable, and ValueError,
    before any evaluation, for a non-finite z0 or unless ``step_cap`` > 0
    (inf is no cap).
    """
    z = _finite_point(z0, "z0")
    if not step_cap > 0:
        raise ValueError("step_cap must be positive")
    fz = _value(field, z)
    if cmath.isnan(fz):
        raise NewtonDiverged("start not evaluable")
    for _ in range(NEWTON_MAX_ITER):
        below_tol = abs(fz) <= ZERO_TOL
        h = 1e-7 * max(1.0, abs(z))
        if below_tol:
            # central differences: their error vanishes at a double zero,
            # where a forward difference's O(h) error would swamp F'
            probes = [_value(field, z + dz) for dz in (h, -h, 1j * h, -1j * h)]
            width = 2 * h
        else:
            probes = [_value(field, z + h), fz, _value(field, z + 1j * h), fz]
            width = h
        fxp, fxm, fyp, fym = probes
        j11 = (fxp.real - fxm.real) / width
        j12 = (fyp.real - fym.real) / width
        j21 = (fxp.imag - fxm.imag) / width
        j22 = (fyp.imag - fym.imag) / width
        det = j11 * j22 - j12 * j21
        if not math.isfinite(det) or abs(det) < 1e-300:  # a NaN probe makes det NaN
            pole = any(map(cmath.isnan, probes))
            reason = "jacobian probe hit a pole" if pole else "singular jacobian"
            break
        dx = -(j22 * fz.real - j12 * fz.imag) / det
        dy = -(-j21 * fz.real + j11 * fz.imag) / det
        delta = complex(dx, dy)
        # once below tolerance, keep polishing until the step itself is
        # negligible: stopping at |f| <= tol alone leaves a sqrt(tol)-sized
        # ring of pseudo-locations around a multiple zero
        if below_tol and abs(delta) <= 1e-10 * max(1.0, abs(z)):
            # take that last step too, unless it makes |f| larger (or NaN)
            if abs(_value(field, z + delta)) <= abs(fz):
                return z + delta
            return z
        capped = abs(delta) > step_cap
        if capped:
            delta *= step_cap / abs(delta)
        lam, reason = 1.0, None
        while lam >= 1.0 / 1024.0:
            trial = z + lam * delta
            ftrial = _value(field, trial)
            if abs(ftrial) < abs(fz) or abs(ftrial) <= ZERO_TOL:
                break
            if lam == 1.0 and not capped and cmath.isnan(ftrial):
                reason = "zero estimate not evaluable"
                break
            lam *= 0.5
        else:
            reason = "damped step stalled"
        if reason is not None:
            break
        z, fz = trial, ftrial
        for w in known:
            if abs(z - w) <= within:
                return w
    else:
        reason = "iteration budget exhausted"
    # the one give-up rule: a run that cannot go on returns z once |F| <= ZERO_TOL
    if abs(fz) <= ZERO_TOL:
        return z
    raise NewtonDiverged(reason)


def _annulus(annulus) -> tuple[complex, float, float]:
    """``annulus`` as (centre, r_inner, r_outer), or ValueError unless the
    centre is finite and 0 <= r_inner < r_outer < inf."""
    centre, r_inner, r_outer = annulus
    centre = _finite_point(centre, "annulus centre")
    r_inner, r_outer = float(r_inner), float(r_outer)
    if not 0.0 <= r_inner < r_outer < math.inf:
        raise ValueError("annulus radii must satisfy 0 <= r_inner < r_outer < inf")
    return centre, r_inner, r_outer


def _cells_meeting(xs, ys, annulus) -> np.ndarray:
    """Mask of the grid cells that meet the closed annulus; cell (j, i) is
    [xs[i], xs[i + 1]] x [ys[j], ys[j + 1]].

    A cell meets it when its nearest point is within r_outer of the centre
    and its farthest point at least r_inner away, both ends included.  The
    distances are compared squared, per axis in units of the radius they
    are held to: the near sums, in units of r_outer, must be at most 1, and
    the far sums, in units of r_inner, at least 1 (r_inner = 0, a disc,
    needs no far test).  Each side of a comparison rounds at most three
    times, so each bound is widened by 2^-49 (16 ulps): no cell that meets
    the closed annulus is dropped (a 5-12-13 corner exactly on r_outer would
    be, unwidened), and one that misses it is admitted only within about 16
    ulps.  Scaling keeps the squares in range on grids of any scale, 1e-300
    or 1e300 wide, and for any ratio of the radii.  A square that still
    overflows or underflows does so without a warning and on the right side
    of its bound: a near or far distance far past its radius overflows, and
    the sum fails the near test and passes the far one; one far inside its
    radius underflows to 0, and the sum passes the near test and fails the
    far one.
    """
    centre, r_inner, r_outer = annulus
    axes = [(t[:-1] - c, t[1:] - c) for t, c in ((ys, centre.imag), (xs, centre.real))]
    with np.errstate(over="ignore", under="ignore"):
        near = [np.square(np.maximum(np.maximum(lo, -hi), 0.0) / r_outer) for lo, hi in axes]
        meets = near[0][:, None] + near[1] <= 1.0 + 2.0 ** -49
        if r_inner > 0.0:
            far = [np.square(np.maximum(np.abs(lo), np.abs(hi)) / r_inner) for lo, hi in axes]
            meets &= far[0][:, None] + far[1] >= 1.0 - 2.0 ** -49
    return meets


def locate_zeros(field, region, n: int, annulus=None) -> tuple[list[complex], list[dict]]:
    """(zeros, dropped): zero locations on the rectangle (x0, x1, y0, y1),
    for callers that ask only where zeros are, not their indices.

    The needed grid corners are read in one ``_values`` call, in row-major
    order.  A cell of the n x n grid whose corners are all evaluable and
    finite, and bracket zero in both field components (min <= 0 <= max, so a
    -0.0 or 0.0 corner brackets), seeds a damped Newton refinement.  The
    test is one AND per cell: each corner gets a code, bit 0 set when its
    value is finite and bits 1-4 when Re > 0, Re < 0, Im > 0 and Im < 0,
    and a cell brackets exactly when the AND of its four codes is 1.  A
    run that comes within the dedup distance of a zero already converged
    stops there and returns that zero, and converged locations are
    deduplicated.  A candidate that diverges or leaves the region is
    reported in ``dropped`` with a reason; so is a run whose Newton zero
    estimate is not evaluable, such as one converging onto a removable zero
    inside a pole guard ("zero estimate not evaluable").
    Zeros come sorted by real part, rounded to the dedup distance, then by
    imaginary part.  ``annulus`` = (centre, r_inner, r_outer) restricts the
    scan to the closed annulus r_inner <= |z - centre| <= r_outer (r_inner =
    0 is a disc): only the corners of cells that meet it are evaluated, only
    those cells seed, and a zero outside it is dropped ("left the annulus").
    Non-finite bounds, an empty rectangle, an n that is not a whole number
    of at least 8 ("grid resolution must be at least 8, ..."), or an annulus
    without a finite centre and 0 <= r_inner < r_outer < inf raise
    ValueError.
    """
    if annulus is not None:
        annulus = _annulus(annulus)
    x0, x1, y0, y1 = _region(region)
    n = whole_at_least(n, 8, "grid resolution")
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    meets = np.ones((n, n), bool) if annulus is None else _cells_meeting(xs, ys, annulus)
    # corners (j, i), (j, i + 1), (j + 1, i) and (j + 1, i + 1) of cell (j, i)
    quarters = ((slice(None, -1), slice(None, -1)), (slice(None, -1), slice(1, None)),
                (slice(1, None), slice(None, -1)), (slice(1, None), slice(1, None)))
    needed = np.zeros((n + 1, n + 1), bool)
    for q in quarters:
        needed[q] |= meets
    grid = np.empty((n + 1, n + 1), dtype=complex)
    grid.real, grid.imag = xs, ys[:, None]
    values = _values(field, grid[needed])  # row-major
    # one code per corner: bit 0 finite, bits 1-4 Re > 0, Re < 0, Im > 0, Im < 0
    codes = np.zeros((n + 1, n + 1), np.uint8)
    codes[needed] = (np.isfinite(values) | (values.real > 0.0) * np.uint8(2)
                     | (values.real < 0.0) * np.uint8(4) | (values.imag > 0.0) * np.uint8(8)
                     | (values.imag < 0.0) * np.uint8(16))
    seeds = meets & (codes[quarters[0]] & codes[quarters[1]] & codes[quarters[2]]
                     & codes[quarters[3]] == 1)
    xs, ys = xs.tolist(), ys.tolist()

    diag = math.hypot(x1 - x0, y1 - y0)
    cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    dedup_dist = max(1e-12, 1e-5 * diag)

    candidates = [complex(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                  for j, i in np.argwhere(seeds).tolist()]

    dropped: list[dict] = []
    converged: list[complex] = []
    pad = 0.05 * diag
    for start in candidates:
        try:
            z = newton_refine(field, start, step_cap=2.0 * cell,
                              known=converged, within=dedup_dist)
            if not (x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad):
                raise NewtonDiverged("left the region")
            if annulus is not None and not annulus[1] <= abs(z - annulus[0]) <= annulus[2]:
                raise NewtonDiverged("left the annulus")
            converged.append(z)
        except NewtonDiverged as exc:  # one drop path for every reason
            dropped.append({"start": [start.real, start.imag], "reason": str(exc)})

    converged.sort(key=lambda z: (z.real, z.imag))
    zeros: list[complex] = []
    for z in converged:
        if all(abs(z - w) > dedup_dist for w in zeros):
            zeros.append(z)
    # real parts rounded to the dedup distance: zeros on one vertical line
    # keep their order whatever the noise in their real parts
    zeros.sort(key=lambda z: (round(z.real / dedup_dist), z.imag))
    return zeros, dropped


def find_zeros(field, region, n: int, annulus=None) -> ZeroScan:
    """``locate_zeros`` (same arguments, order and errors) plus a winding
    index for each zero, as a ZeroScan.

    The circle around a zero is at most min(width, height) / 8, 0.45 of the
    distance to the next zero and 0.9 of that to the region edge.  With an
    ``annulus`` it is also capped at 0.9 times the distance to the annulus
    boundary: a wider circle could reach cells that were never scanned and
    enclose a zero that was never found.  A circle whose winding fails is
    halved, up to six tries; a zero whose every try fails is reported in
    ``dropped`` ("winding failed").
    """
    zeros, dropped = locate_zeros(field, region, n, annulus)
    x0, x1, y0, y1 = _region(region)

    if annulus is not None:
        centre, r_inner, r_outer = _annulus(annulus)
    records: list[ZeroRecord] = []
    width, height = x1 - x0, y1 - y0
    for z in zeros:
        radius = min(width, height) / 8.0
        others = [w for w in zeros if w != z]
        if others:
            radius = min(radius, 0.45 * min(abs(z - w) for w in others))
        edge = min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag)
        if edge > 0:
            radius = min(radius, 0.9 * edge)
        if annulus is not None:
            d = abs(z - centre)
            gap = r_outer - d if r_inner == 0 else min(d - r_inner, r_outer - d)
            radius = min(radius, 0.9 * gap)
        radius = max(radius, 64.0 * ZERO_TOL)
        index = None
        for _ in range(6):
            try:
                index = winding_index(field, z, radius)
                break
            except (ZeroOnContour, NonIntegerWinding):
                radius *= 0.5
        if index is None:
            dropped.append({"start": [z.real, z.imag], "reason": "winding failed"})
            continue
        records.append(ZeroRecord(location=z, winding_index=index, residual=abs(field(z))))

    return ZeroScan(zeros=records, dropped=dropped)


# ---------------------------------------------------------------------------
# index-sum audit


@dataclass(frozen=True)
class PoincareHopfReport:
    total: int
    chi: int
    ok: bool
    table: tuple[tuple[complex, int], ...]

    def to_dict(self) -> dict:
        return {
            "total_index": self.total,
            "chi": self.chi,
            "ok": self.ok,
            "equilibria": [
                {"location": [z.real, z.imag], "index": k} for z, k in self.table
            ],
        }


def poincare_hopf_check(zeros, chi: int) -> PoincareHopfReport:
    """Compare the sum of winding indices against a target characteristic.

    Raises ValueError unless every location is finite (``_finite_point``)
    and no two lie within 1e-12 of each other.
    """
    chi = exact_int(chi, "chi")
    records = list(zeros)
    for i, r in enumerate(records):
        _finite_point(r.location, "zero location")
        for other in records[i + 1:]:
            if abs(r.location - other.location) < 1e-12:
                raise ValueError("zeros must be pairwise distinct")
    total = sum(r.winding_index for r in records)
    table = tuple((r.location, r.winding_index) for r in records)
    return PoincareHopfReport(total=total, chi=chi, ok=(total == chi), table=table)


# ---------------------------------------------------------------------------
# flow boxes


@dataclass(frozen=True)
class FlowBoxChart:
    """Local chart in which the flow is numerically straightened.

    The grid point at (s_i, t_j) is the time-t_j flow image of the
    transversal point at arc parameter s_i, so chart time is flow time and
    the straightened field is (1, 0); ``residual`` is the worst interior
    deviation of the pushed-forward field from it.
    """

    base: complex
    transversal: tuple[complex, complex]
    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    points: tuple[tuple[complex, ...], ...]  # rows by s, columns by t
    residual: float


def rectify(field, p: complex, box: float) -> FlowBoxChart:
    """Build a RECTIFY_GRID x RECTIFY_GRID flow-box chart of half-width
    ``box`` around a regular point.

    The transversal's RECTIFY_GRID points flow forward under F and backward
    as forward under -F, all 2 * RECTIFY_GRID lines in one ``_flow`` run
    under one shared step, each RK4 stage read in one ``_values`` call; the
    grid's values are then read in one more call, in row-major order.
    Raises EquilibriumInBox when the field is below tolerance at the base
    point or anywhere on the constructed grid, NearPole when a flow line
    meets a pole or a grid point is not evaluable, and ValueError for a
    non-finite ``p`` or a ``box`` that is not positive and finite.
    """
    p = _finite_point(p, "p")
    if not 0 < box < math.inf:
        raise ValueError("box must be positive and finite")
    fp = field(p)
    if abs(fp) <= ZERO_TOL:
        raise EquilibriumInBox(f"|field| = {abs(fp):.3g} at the base point")
    probe = 1.2 * box
    zeros_nearby, _ = locate_zeros(
        field, (p.real - probe, p.real + probe, p.imag - probe, p.imag + probe), 16
    )
    if zeros_nearby:
        z = zeros_nearby[0]
        raise EquilibriumInBox(
            f"equilibrium at ({z.real:.6g}, {z.imag:.6g}) inside the box scale"
        )
    speed0 = abs(fp)
    normal = 1j * fp / speed0
    t_span = box / speed0
    s_values = tuple(np.linspace(-box, box, RECTIFY_GRID).tolist())
    mid = RECTIFY_GRID // 2  # t_values[mid] is 0.0
    # the backward lines stop at -t for each forward time t: the negative half
    # is the positive half negated (np.linspace is not symmetric in the last bit)
    forward = np.linspace(-t_span, t_span, RECTIFY_GRID)[mid:]
    t_values = tuple(np.concatenate((-forward[:0:-1], forward)).tolist())

    grid = np.empty((RECTIFY_GRID, RECTIFY_GRID), dtype=complex)  # rows by s, columns by t
    grid[:, mid] = zs = p + np.array(s_values) * normal
    # the transversal's lines forward under F, then backward as forward under -F
    sign = np.repeat([1.0, -1.0], RECTIFY_GRID)
    targets, starts = t_values[mid + 1:], np.concatenate((zs, zs))
    with np.errstate(all="ignore"):  # a line's non-finite stage is retried, not warned about
        _, pts, hits, _ = _flow(lambda z: sign * _values(field, z), starts, targets)
    if len(hits) < len(targets):
        raise NearPole("chart integration hit a pole inside the box")
    ends = np.array([pts[i] for i in hits]).T  # lines by target
    grid[:, mid + 1:], grid[:, mid - 1::-1] = ends[:RECTIFY_GRID], ends[RECTIFY_GRID:]

    values = _values(field, grid.ravel()).reshape(grid.shape)
    if not np.isfinite(values).all():
        raise NearPole("a chart grid point is not evaluable")
    smallest = float(np.hypot(values.real, values.imag).min())  # abs() bit for bit
    if smallest <= ZERO_TOL:
        raise EquilibriumInBox(f"|field| = {smallest:.3g} inside the requested box")

    # central differences at the interior points, each part divided on its own
    # as Python divides a complex by a float (numpy's complex division is not bit-equal)
    dp_t = grid[1:-1, 2:] - grid[1:-1, :-2]
    dp_s = grid[2:, 1:-1] - grid[:-2, 1:-1]
    dt2, ds2 = 2.0 * (t_values[1] - t_values[0]), 2.0 * (s_values[1] - s_values[0])
    pt_re, pt_im, ps_re, ps_im = dp_t.real / dt2, dp_t.imag / dt2, dp_s.real / ds2, dp_s.imag / ds2
    f_re, f_im = values.real[1:-1, 1:-1], values.imag[1:-1, 1:-1]
    det = pt_re * ps_im - pt_im * ps_re
    if (np.abs(det) < 1e-300).any():
        raise EquilibriumInBox("degenerate chart jacobian")
    alpha = (ps_im * f_re - ps_re * f_im) / det
    beta = (-pt_im * f_re + pt_re * f_im) / det
    residual = max([0.0, *map(math.hypot, (alpha - 1.0).ravel().tolist(), beta.ravel().tolist())])

    return FlowBoxChart(
        base=p,
        transversal=(p - box * normal, p + box * normal),
        s_values=s_values,
        t_values=t_values,
        points=tuple(map(tuple, grid.tolist())),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# covariance of trajectories under a Moebius map


def covariance_check(field, m: MoebiusMap, z0: complex, t_end: float) -> float:
    """Max of |m(flow_t(z0)) - flow_t(m(z0))| over COVARIANCE_SAMPLES times t.

    The sample times divide (0, t_end] evenly.  If either trajectory
    leaves the evaluable region early the comparison truncates to the
    common time range; with no common samples at all, NearPole is raised.
    A non-finite ``z0`` or a zero or non-finite ``t_end`` raises ValueError,
    and a ``z0`` on m's pole raises PoleHit (from ``apply(m, z0)``).
    """
    z0 = _finite_point(z0, "z0")
    _check_horizon(t_end)
    targets = [t_end * (k + 1) / COVARIANCE_SAMPLES for k in range(COVARIANCE_SAMPLES)]
    _, pts_a, hits_a, _ = _flow(field, z0, targets)
    _, pts_b, hits_b, _ = _flow(field, apply(m, z0), targets)
    common = min(len(hits_a), len(hits_b))
    if common == 0:
        raise NearPole("no common integrable range for the covariance check")
    worst = 0.0
    for i, j in zip(hits_a[:common], hits_b[:common]):
        try:
            worst = max(worst, abs(apply(m, pts_a[i]) - pts_b[j]))
        except PoleHit:
            break
    return worst
