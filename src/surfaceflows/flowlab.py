"""Numerical flow analysis: integration, zero finding, winding indices,
index-sum audits, flow-box rectification, and trajectory covariance checks.

Fields are callables taking a complex point and returning a complex value
(u + iv).  Evaluation may raise NearPole / PoleHit / DenominatorVanishes;
every routine here treats those as "the point is not evaluable" and either
terminates, skips, or retries at a safer location, as documented per
function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DenominatorVanishes,
    EquilibriumInBox,
    NearPole,
    NewtonDiverged,
    NonIntegerWinding,
    PoleHit,
    ZeroOnContour,
)
from .moebius import MoebiusMap, apply

_POLE_ERRORS = (NearPole, PoleHit, DenominatorVanishes)

ZERO_TOL = 1e-8
DEFAULT_MAX_DISP = 0.1
DEFAULT_H0 = 0.01
MAX_STEPS = 200_000
WINDING_SAMPLES = 1024
WINDING_AGREE_TOL = 0.01
WINDING_MAX_SAMPLES = 1 << 17
WINDING_INTEGER_TOL = 0.05
NEWTON_MAX_ITER = 50
COVARIANCE_SAMPLES = 32
RECTIFY_GRID = 9

CLASS_HYPERBOLIC = "hyperbolic-like"
CLASS_ELLIPTIC = "elliptic/center-like"
CLASS_HIGHER = "higher"
CLASS_UNCLASSIFIED = "unclassified"


def classify_index(index: int) -> str:
    if index == -1:
        return CLASS_HYPERBOLIC
    if index == 1:
        return CLASS_ELLIPTIC
    if abs(index) >= 2:
        return CLASS_HIGHER
    return CLASS_UNCLASSIFIED


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with its termination reason.

    Times are strictly monotone in the integration direction (increasing
    for forward runs, decreasing for reverse ones).
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
                if (t1 <= t0) if forward else (t1 >= t0):
                    raise ValueError("times must be strictly monotone")

    @property
    def end_point(self) -> complex:
        return self.points[-1]

    @property
    def end_time(self) -> float:
        return self.times[-1]


def _rk4_step(field, z: complex, step: float) -> complex:
    k1 = field(z)
    k2 = field(z + 0.5 * step * k1)
    k3 = field(z + 0.5 * step * k2)
    k4 = field(z + step * k3)
    return (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _inside(region, z: complex) -> bool:
    x0, x1, y0, y1 = region
    return x0 <= z.real <= x1 and y0 <= z.imag <= y1


def _flow(field, z0, targets, region=None, h0=DEFAULT_H0, max_disp=DEFAULT_MAX_DISP):
    """Adaptive RK4 from time 0 through ``targets``, landing exactly on each.

    Targets are nonzero, of one sign, and strictly monotone away from 0.
    Each step is the classical fourth-order step; one whose displacement
    exceeds ``max_disp``, or whose stages are not evaluable, is retried at
    half the size.  With s = max(1, |target|) for the target being
    approached, the target counts as reached within 1e-15 * s, and a step
    size below 1e-14 * s ends the run with "pole-proximity".  Leaving
    ``region`` after a step ends it with "region-exit"; reaching every
    target, or taking MAX_STEPS steps, with "time-limit".

    Returns (times, points, hits, termination): every accepted step,
    starting with (0, z0), and for each target reached the index of its
    point in ``points``.
    """
    direction = 1.0 if targets[-1] > 0 else -1.0
    t = 0.0
    z = z0
    h = h0
    times = [t]
    points = [z]
    hits = []
    for target in targets:
        scale = max(1.0, abs(target))
        while (target - t) * direction > 1e-15 * scale:
            if len(points) > MAX_STEPS:
                return times, points, hits, "time-limit"
            step = min(h, abs(target - t))
            try:
                dz = _rk4_step(field, z, direction * step)
            except _POLE_ERRORS:
                dz = None
            if dz is None or abs(dz) > max_disp:
                h = step * 0.5
                if h < 1e-14 * scale:
                    return times, points, hits, "pole-proximity"
                continue
            z = z + dz
            t = t + direction * step
            times.append(t)
            points.append(z)
            if abs(dz) < 0.25 * max_disp:
                h = min(step * 2.0, h0)
            # else h stays as it is: after a step clipped to land on a
            # target, the next target starts from the unclipped size
            if region is not None and not _inside(region, z):
                return times, points, hits, "region-exit"
        hits.append(len(points) - 1)
    return times, points, hits, "time-limit"


def _check_horizon(t_end: float) -> None:
    if t_end == 0 or not math.isfinite(t_end):
        raise ValueError("t_end must be finite and nonzero")


def integrate(field, z0: complex, t_end: float, region=None) -> Trajectory:
    """Orbit of ``z0`` up to time ``t_end``, sampled at every accepted step.

    Steps follow the adaptive RK4 rule of ``_flow`` from a first step of
    DEFAULT_H0: a step is halved while it moves more than DEFAULT_MAX_DISP
    or a stage is not evaluable, and the run ends with "pole-proximity"
    when the step falls below 1e-14 * max(1, |t_end|).  Nothing bounds a
    step's error, so one whose stages straddle a pole can be accepted and
    carry the orbit past it: -1/z from 0.01 ends "time-limit" beyond the
    singularity (ROADMAP.md, step control from an error estimate).
    Negative ``t_end`` integrates in reverse time.  Exhausting the
    MAX_STEPS step budget reports "time-limit" (the budget, like the
    horizon, caps the time actually reached).

    Raises ValueError for a zero or non-finite ``t_end``, and NearPole (or
    kin) only if the starting point itself is not evaluable.
    """
    z0 = complex(z0)
    _check_horizon(t_end)
    field(z0)  # not evaluable at the seed -> propagate
    times, points, _, termination = _flow(field, z0, [t_end], region)
    return Trajectory(tuple(times), tuple(points), termination)


# ---------------------------------------------------------------------------
# winding numbers


def winding_on_path(field, points) -> float:
    """Accumulated change of arg(field)/2pi along a closed polyline.

    ``points`` is traversed in order and closed back to the first point.
    Raises ZeroOnContour when |field| < ZERO_TOL on the path and
    NonIntegerWinding at a non-finite value; evaluation failures propagate.
    """
    return _winding_of_values([field(p) for p in points])


def _winding_of_values(values) -> float:
    v = np.asarray(values, dtype=complex)
    if not np.isfinite(v).all():
        raise NonIntegerWinding("non-finite field value on the contour")
    if np.abs(v).min() < ZERO_TOL:
        raise ZeroOnContour("field magnitude below tolerance on the contour")
    return float(np.angle(np.roll(v, -1) / v).sum() / (2.0 * math.pi))


def _circle(center: complex, radius: float, n: int, first: int = 0, stride: int = 1):
    """Points k = first, first + stride, ... < n of the n-point circle.

    Point k depends on 2 pi k / n alone: numpy's cos and sin act per element
    (and match ``math.cos``/``math.sin`` bit for bit on x86-64, numpy 2.4).
    """
    angles = 2.0 * np.pi * np.arange(first, n, stride) / n
    return (center + radius * (np.cos(angles) + 1j * np.sin(angles))).tolist()


def winding_estimate_circle(field, center, radius, samples) -> float:
    """Un-rounded winding estimate on a circle (counterclockwise)."""
    return winding_on_path(field, _circle(complex(center), radius, samples))


def winding_index(field, center: complex, radius: float) -> int:
    """Degree of the field around a circle, computed by argument counting.

    Sampling starts at WINDING_SAMPLES and doubles until two successive
    estimates agree within WINDING_AGREE_TOL; the settled value must lie
    within 0.05 of an integer, else NonIntegerWinding is raised (at once if
    a sample is not finite).  A non-finite centre or a radius that is not
    positive and finite raises ValueError.

    Point 2k of the 2n-point circle is point k of the n-point circle, bit
    for bit: 2 pi (2k) / (2n) rounds exactly as 2 pi k / n, and ``_circle``
    computes each point from its angle alone.  So each doubling evaluates
    only the n new odd points and interleaves them with the values it has.
    Every estimate is the one ``winding_estimate_circle`` gives at that
    sample count, and a circle settled at 2n samples costs 2n evaluations.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    center = complex(center)
    if not cmath.isfinite(center):
        raise ValueError("centre must be finite")
    previous = None
    n = WINDING_SAMPLES
    values = [field(p) for p in _circle(center, radius, n)]
    while True:
        estimate = _winding_of_values(values)
        if previous is not None and abs(estimate - previous) <= WINDING_AGREE_TOL:
            break
        if n * 2 > WINDING_MAX_SAMPLES:
            raise NonIntegerWinding(
                f"winding estimates did not settle by {WINDING_MAX_SAMPLES} samples"
            )
        previous = estimate
        odd = [field(p) for p in _circle(center, radius, 2 * n, 1, 2)]
        values = np.stack([values, odd], axis=1).ravel()
        n *= 2
    nearest = round(estimate)
    if abs(estimate - nearest) > WINDING_INTEGER_TOL:
        raise NonIntegerWinding(f"estimate {estimate:.4f} is not near an integer")
    return int(nearest)


def sector_index(n_e: int, n_h: int) -> Fraction:
    """1 + (elliptic - hyperbolic)/2 as an exact rational.

    A half-integer result (odd sector imbalance) is representable and left
    to the caller to flag; it is not an error.
    """
    if n_e < 0 or n_h < 0:
        raise ValueError("sector counts must be nonnegative")
    return Fraction(2 + n_e - n_h, 2)


# ---------------------------------------------------------------------------
# zero finding


@dataclass(frozen=True)
class ZeroRecord:
    location: complex
    winding_index: int
    residual: float
    classification: str

    def to_dict(self) -> dict:
        return {
            "location": [self.location.real, self.location.imag],
            "winding_index": self.winding_index,
            "residual": self.residual,
            "classification": self.classification,
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


def _eval_or_none(field, z):
    try:
        return field(z)
    except _POLE_ERRORS:
        return None


def newton_refine(field, z0, step_cap):
    z = complex(z0)
    fz = _eval_or_none(field, z)
    if fz is None:
        raise NewtonDiverged("start not evaluable")
    below_tol = False
    for _ in range(NEWTON_MAX_ITER):
        below_tol = abs(fz) <= ZERO_TOL
        h = 1e-7 * max(1.0, abs(z))
        probes = [_eval_or_none(field, z + dz) for dz in (h, -h, 1j * h, -1j * h)]
        if any(p is None for p in probes):
            if below_tol:
                return z
            raise NewtonDiverged("jacobian probe hit a pole")
        fxp, fxm, fyp, fym = probes
        j11 = (fxp.real - fxm.real) / (2 * h)
        j12 = (fyp.real - fym.real) / (2 * h)
        j21 = (fxp.imag - fxm.imag) / (2 * h)
        j22 = (fyp.imag - fym.imag) / (2 * h)
        det = j11 * j22 - j12 * j21
        if not math.isfinite(det) or abs(det) < 1e-300:
            if below_tol:
                return z
            raise NewtonDiverged("singular jacobian")
        dx = -(j22 * fz.real - j12 * fz.imag) / det
        dy = -(-j21 * fz.real + j11 * fz.imag) / det
        delta = complex(dx, dy)
        # once below tolerance, keep polishing until the step itself is
        # negligible: stopping at |f| <= tol alone leaves a sqrt(tol)-sized
        # ring of pseudo-locations around a multiple zero
        if below_tol and abs(delta) <= 1e-10 * max(1.0, abs(z)):
            # take that last step too, unless it makes |f| larger
            fstep = _eval_or_none(field, z + delta)
            if fstep is not None and abs(fstep) <= abs(fz):
                return z + delta
            return z
        if abs(delta) > step_cap:
            delta *= step_cap / abs(delta)
        lam = 1.0
        accepted = False
        while lam >= 1.0 / 1024.0:
            trial = z + lam * delta
            ftrial = _eval_or_none(field, trial)
            if ftrial is not None and (abs(ftrial) < abs(fz) or abs(ftrial) <= ZERO_TOL):
                z, fz = trial, ftrial
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if below_tol:
                return z
            raise NewtonDiverged("damped step stalled")
    if abs(fz) <= ZERO_TOL:
        return z
    raise NewtonDiverged("iteration budget exhausted")


def _locate_zero_points(field, region, n) -> tuple[list[complex], list[dict]]:
    """Grid-bracketed, Newton-refined, deduplicated zero locations.

    A cell with an unevaluable or non-finite corner seeds no Newton start.
    """
    x0, x1, y0, y1 = (float(v) for v in region)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate region")
    if n < 8:
        raise ValueError("grid resolution must be at least 8")
    xs = np.linspace(x0, x1, n + 1).tolist()
    ys = np.linspace(y0, y1, n + 1).tolist()
    nodes = [_eval_or_none(field, complex(x, y)) for y in ys for x in xs]
    values = np.array([math.nan if v is None else v for v in nodes], dtype=complex)

    diag = math.hypot(x1 - x0, y1 - y0)
    cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    dedup_dist = max(1e-12, 1e-5 * diag)

    corners = sliding_window_view(values.reshape(n + 1, n + 1), (2, 2))
    seeds = np.isfinite(corners).all(axis=(2, 3))
    for part in (corners.real, corners.imag):
        seeds &= (part.min(axis=(2, 3)) <= 0.0) & (part.max(axis=(2, 3)) >= 0.0)
    candidates = [complex(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                  for j, i in np.argwhere(seeds).tolist()]

    dropped: list[dict] = []
    converged: list[complex] = []
    pad = 0.05 * diag
    for start in candidates:
        try:
            z = newton_refine(field, start, step_cap=2.0 * cell)
        except NewtonDiverged as exc:
            dropped.append({"start": [start.real, start.imag], "reason": str(exc)})
            continue
        if not (x0 - pad <= z.real <= x1 + pad and y0 - pad <= z.imag <= y1 + pad):
            dropped.append({"start": [start.real, start.imag], "reason": "left the region"})
            continue
        converged.append(z)

    converged.sort(key=lambda z: (z.real, z.imag))
    zeros: list[complex] = []
    for z in converged:
        if all(abs(z - w) > dedup_dist for w in zeros):
            zeros.append(z)
    return zeros, dropped


def find_zeros(field, region, n: int) -> ZeroScan:
    """Grid scan for zeros on an axis-aligned rectangle (x0, x1, y0, y1).

    Cells where both field components bracket zero seed a damped Newton
    refinement; converged locations are deduplicated, and each zero gets a
    winding index (with radius backoff when a contour is unusable).
    Candidates that diverge, leave the region, or defeat the winding
    computation are reported in ``dropped`` rather than silently ignored.
    """
    x0, x1, y0, y1 = (float(v) for v in region)
    zeros, dropped = _locate_zero_points(field, region, n)

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
        radius = max(radius, 64.0 * ZERO_TOL)
        index = None
        for _ in range(6):
            try:
                index = winding_index(field, z, radius)
                break
            except (ZeroOnContour, NonIntegerWinding, *_POLE_ERRORS):
                radius *= 0.5
        if index is None:
            dropped.append({"start": [z.real, z.imag], "reason": "winding failed"})
            continue
        residual = abs(field(z))
        records.append(
            ZeroRecord(
                location=z,
                winding_index=index,
                residual=residual,
                classification=classify_index(index),
            )
        )

    records.sort(key=lambda r: (r.location.real, r.location.imag))
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
    """Compare the sum of winding indices against a target characteristic."""
    records = list(zeros)
    for i, r in enumerate(records):
        for other in records[i + 1:]:
            if abs(r.location - other.location) < 1e-12:
                raise ValueError("zeros must be pairwise distinct")
    total = sum(r.winding_index for r in records)
    table = tuple((r.location, r.winding_index) for r in records)
    return PoincareHopfReport(total=total, chi=int(chi), ok=(total == int(chi)), table=table)


# ---------------------------------------------------------------------------
# flow boxes


@dataclass(frozen=True)
class FlowBoxChart:
    """Local chart in which the flow is numerically straightened.

    The grid point at (s_i, t_j) is the time-t_j flow image of the
    transversal point at arc parameter s_i.  ``speed`` is the constant of
    the straightened system (1: chart time is flow time), and ``residual``
    the worst interior deviation of the pushed-forward field from (1, 0).
    """

    base: complex
    transversal: tuple[complex, complex]
    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    points: tuple[tuple[complex, ...], ...]  # rows by s, columns by t
    residual: float
    speed: float = 1.0


def rectify(field, p: complex, box: float) -> FlowBoxChart:
    """Build a RECTIFY_GRID x RECTIFY_GRID flow-box chart of half-width
    ``box`` around a regular point.

    Raises EquilibriumInBox when the field is below tolerance at the base
    point or anywhere on the constructed grid.
    """
    p = complex(p)
    if box <= 0:
        raise ValueError("box must be positive")
    fp = field(p)
    if abs(fp) <= max(ZERO_TOL, 1e-12):
        raise EquilibriumInBox(f"|field| = {abs(fp):.3g} at the base point")
    probe = 1.2 * box
    zeros_nearby, _ = _locate_zero_points(
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
    t_values = tuple(np.linspace(-t_span, t_span, RECTIFY_GRID).tolist())
    t_pos = [t for t in t_values if t > 0]
    t_neg = [t for t in t_values if t < 0][::-1]  # toward more negative

    rows: list[tuple[complex, ...]] = []
    for s in s_values:
        zs = p + s * normal
        row = {0.0: zs}
        for targets in (t_pos, t_neg):
            if not targets:
                continue
            _, pts, hits, _ = _flow(field, zs, targets, h0=0.005, max_disp=0.05)
            if len(hits) < len(targets):
                raise NearPole("chart integration hit a pole inside the box")
            for t, i in zip(targets, hits):
                row[t] = pts[i]
        rows.append(tuple(row[t] for t in t_values))
    points = tuple(rows)

    for row in points:
        for z in row:
            fz = field(z)
            if abs(fz) <= ZERO_TOL:
                raise EquilibriumInBox(f"|field| = {abs(fz):.3g} inside the requested box")

    dt = t_values[1] - t_values[0]
    ds = s_values[1] - s_values[0]
    residual = 0.0
    for i in range(1, RECTIFY_GRID - 1):
        for j in range(1, RECTIFY_GRID - 1):
            pt = (points[i][j + 1] - points[i][j - 1]) / (2.0 * dt)
            ps = (points[i + 1][j] - points[i - 1][j]) / (2.0 * ds)
            fz = field(points[i][j])
            det = pt.real * ps.imag - pt.imag * ps.real
            if abs(det) < 1e-300:
                raise EquilibriumInBox("degenerate chart jacobian")
            alpha = (ps.imag * fz.real - ps.real * fz.imag) / det
            beta = (-pt.imag * fz.real + pt.real * fz.imag) / det
            residual = max(residual, math.hypot(alpha - 1.0, beta))

    return FlowBoxChart(
        base=p,
        transversal=(p - box * normal, p + box * normal),
        s_values=s_values,
        t_values=t_values,
        points=points,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# covariance of trajectories under a Moebius map


def covariance_check(field, m: MoebiusMap, z0: complex, t_end: float) -> float:
    """Max of |m(flow_t(z0)) - flow_t(m(z0))| over COVARIANCE_SAMPLES times t.

    The sample times divide (0, t_end] evenly.  If either trajectory
    leaves the evaluable region early the comparison truncates to the
    common time range; with no common samples at all, NearPole is raised.
    A zero or non-finite ``t_end`` raises ValueError.
    """
    z0 = complex(z0)
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
