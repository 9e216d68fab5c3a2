"""Splitting feasibility, twist words on a genus-g surface, first homology
of the glued 3-manifold, and extension of sphere dynamics into the ball.

Homology conventions (fixed here once):

* Basis order on the genus-g surface is (a1, b1, ..., ag, bg) with
  intersection pairing <a_i, b_i> = +1.
* A twist about a curve with homology class c acts as the transvection
  x -> x + <c, x> c; the sign pairs with the basis so that a twist about
  a1 at genus 1 is [[1, 1], [0, 1]].
* The curves b_i bound discs inside each handlebody (meridians), the a_i
  survive (longitudes).  Gluing by a matrix M therefore presents the first
  homology by the g x g block P[i][j] = a_i-component of M b_j, and the
  Smith normal form of P reads off rank and torsion.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonDiverged, TooManyEquilibria
from .flowlab import ZERO_TOL, newton_refine


@dataclass(frozen=True)
class IndexSet:
    """Two-dimensional indices of invariant-surface equilibria.

    ``hyperbolic_count`` is how many of them are linearizable saddles.
    """

    indices: tuple[int, ...]
    hyperbolic_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.hyperbolic_count < 0 or self.hyperbolic_count > len(self.indices):
            raise ValueError("hyperbolic count must lie between 0 and the index count")


MAX_SUBSET_INDICES = 25


def feasible_genera(s: IndexSet) -> set[int]:
    """Genera p admitting an invariant splitting surface, by index arithmetic.

    Genus 1 is always feasible (a system with no equilibria can still have
    a torus or Klein-bottle splitting); any other genus p >= 0 requires a
    nonempty subset of the indices summing to 2(1 - p).  Subset sums are
    collected by dynamic programming, which agrees with exhaustive
    enumeration but keeps 25 indices affordable.
    """
    if len(s.indices) > MAX_SUBSET_INDICES:
        raise TooManyEquilibria(
            f"subset feasibility limited to {MAX_SUBSET_INDICES} indices, "
            f"got {len(s.indices)}"
        )
    nonempty_sums: set[int] = set()
    acc = {0}
    for v in s.indices:
        shifted = {x + v for x in acc}
        nonempty_sums |= shifted
        acc |= shifted
    out = {1}
    for total in nonempty_sums:
        if total % 2 == 0 and total <= 2:
            out.add(1 - total // 2)
    return out


def corollary_check(s: IndexSet, p: int) -> bool:
    """At least 2(p-1) hyperbolic points are needed at splitting genus p >= 1."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return s.hyperbolic_count >= 2 * (p - 1)


# ---------------------------------------------------------------------------
# twist matrices and homology


def _standard_j(genus: int) -> list[list[int]]:
    j = [[0] * (2 * genus) for _ in range(2 * genus)]
    for i in range(genus):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def _matmul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += v * bt[j]
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _is_symplectic(entries, genus: int) -> bool:
    j = _standard_j(genus)
    lhs = _matmul(_matmul(_transpose([list(r) for r in entries]), j), [list(r) for r in entries])
    return lhs == j


@dataclass(frozen=True)
class GluingMatrix:
    """Integer symplectic matrix acting on the surface's first homology."""

    genus: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = 2 * self.genus
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"entries must be {n}x{n}")
        if not _is_symplectic(rows, self.genus):
            raise ValueError("matrix is not integrally symplectic")

    @classmethod
    def identity(cls, genus: int) -> "GluingMatrix":
        n = 2 * genus
        return cls(genus, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "GluingMatrix") -> "GluingMatrix":
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        prod = _matmul([list(r) for r in self.entries], [list(r) for r in other.entries])
        return GluingMatrix(self.genus, tuple(tuple(row) for row in prod))


_CURVE_RE = re.compile(r"^([abg])(\d+)$")


def curve_class(curve: str, genus: int) -> tuple[int, ...]:
    """Homology class of a standard twist curve in the fixed basis.

    a_i and b_i are the handle curves; g_i (defined for i < genus) chains
    consecutive handles with class b_i - b_{i+1}.
    """
    m = _CURVE_RE.match(curve.strip())
    if not m:
        raise ValueError(f"bad curve id {curve!r}; expected like 'a1', 'b2', 'g1'")
    kind, i = m.group(1), int(m.group(2))
    vec = [0] * (2 * genus)
    if kind == "a":
        if not 1 <= i <= genus:
            raise ValueError(f"{curve}: index out of range for genus {genus}")
        vec[2 * (i - 1)] = 1
    elif kind == "b":
        if not 1 <= i <= genus:
            raise ValueError(f"{curve}: index out of range for genus {genus}")
        vec[2 * (i - 1) + 1] = 1
    else:
        if not 1 <= i <= genus - 1:
            raise ValueError(f"{curve}: chain curves need 1 <= i <= genus-1")
        vec[2 * (i - 1) + 1] = 1
        vec[2 * (i + 1) - 1] = -1
    return tuple(vec)


def _pairing_with(c, genus: int) -> list[int]:
    # w[j] = <c, e_j> for the standard pairing
    j = _standard_j(genus)
    return [sum(c[k] * j[k][col] for k in range(2 * genus)) for col in range(2 * genus)]


def twist_matrix(curve: str, genus: int, exponent: int = 1) -> GluingMatrix:
    """Transvection matrix of a (possibly inverse) twist about a standard curve."""
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    c = curve_class(curve, genus)
    w = _pairing_with(c, genus)
    n = 2 * genus
    entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            entries[i][j] += exponent * w[j] * c[i]
    return GluingMatrix(genus, tuple(tuple(row) for row in entries))


def compose_word(word, genus: int) -> GluingMatrix:
    """Ordered product of twist matrices for a word of (curve, exponent) pairs."""
    result = GluingMatrix.identity(genus)
    for curve, exponent in word:
        result = result @ twist_matrix(curve, genus, exponent)
    return result


_TOKEN_RE = re.compile(r"^([abg]\d+)(?:\^(-?\d+))?$")


def parse_twist_word(text: str) -> list[tuple[str, int]]:
    """Parse twist-word text like "a1 b1^-1 g1 a2" into (curve, exponent) letters.

    Exponents beyond +-1 expand into repeated letters.
    """
    letters: list[tuple[str, int]] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad twist token {token!r}")
        curve = m.group(1)
        power = int(m.group(2)) if m.group(2) is not None else 1
        sign = 1 if power >= 0 else -1
        letters.extend((curve, sign) for _ in range(abs(power)))
    return letters


def smith_diagonal(matrix) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer arithmetic; nonnegative entries, each dividing the next,
    padded with zeros to min(rows, cols).
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    result: list[int] = []
    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            pivot_divides = True
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        for jj in range(t, n):
                            a[t][jj] += a[i][jj]
                        pivot_divides = False
                        break
                if not pivot_divides:
                    break
            if pivot_divides:
                break
        result.append(abs(a[t][t]))
        t += 1
    while len(result) < min(m, n):
        result.append(0)
    return result


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as rank plus divisibility-ordered torsion."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        tor = tuple(int(t) for t in self.torsion)
        object.__setattr__(self, "torsion", tor)
        for t in tor:
            if t < 2:
                raise ValueError("torsion coefficients must be at least 2")
        for t0, t1 in zip(tor, tor[1:]):
            if t1 % t0:
                raise ValueError("torsion coefficients must form a divisibility chain")

    @property
    def torsion_order(self) -> int:
        order = 1
        for t in self.torsion:
            order *= t
        return order

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def h1_from_gluing(m: GluingMatrix) -> AbelianGroup:
    """First homology of the closed manifold glued along ``m``.

    Meridians (the b-classes) of one handlebody are pushed through the
    gluing and their longitude (a-class) components present the homology
    of the other handlebody's surviving classes.
    """
    g = m.genus
    presentation = [[m.entries[2 * i][2 * j + 1] for j in range(g)] for i in range(g)]
    diag = smith_diagonal(presentation)
    rank = sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroup(rank=rank, torsion=torsion)


# ---------------------------------------------------------------------------
# extending sphere dynamics into the solid ball

SPHERE_SAMPLES = 4000
SPHERE_ZERO_TOL = 1e-10
MAX_SPHERE_ZEROS = 16
INTERIOR_HIT_TOL = 1e-4
ORIGIN_EXCLUSION = 1e-3


def _default_tangential_profile(r: float) -> float:
    return r


def _default_normal_profile(r: float) -> float:
    return r * (1.0 - r)


@dataclass(frozen=True, eq=False)
class BallExtensionField:
    """Sphere dynamics scaled onto nested spheres plus an interior normal push.

    ``surface`` maps a unit 3-vector to a tangent 3-vector.  The
    tangential profile ``a`` starts at zero (continuity at the centre) and
    the normal profile ``b`` vanishes exactly at the centre and the
    boundary, staying positive between, so the only interior equilibrium
    is the centre itself.
    """

    surface: Callable
    a: Callable[[float], float] = _default_tangential_profile
    b: Callable[[float], float] = _default_normal_profile

    def __post_init__(self):
        if abs(self.a(0.0)) > 1e-12 or abs(self.b(0.0)) > 1e-12 or abs(self.b(1.0)) > 1e-12:
            raise ValueError("profiles must satisfy a(0) = b(0) = b(1) = 0")
        for r in (1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3):
            if not self.b(r) > 0.0:
                raise ValueError(f"normal profile must be positive inside (0,1); b({r}) <= 0")

    def __call__(self, x) -> np.ndarray:
        return extend_to_ball(self, x)


def extend_to_ball(f: BallExtensionField, x) -> np.ndarray:
    """Field value a(r) * surface(u) + b(r) * u at x = r u, with V(0) = 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    r = float(np.linalg.norm(x))
    if r > 1.0 + 1e-12:
        raise ValueError(f"|x| = {r:.6g} outside the unit ball")
    if r < 1e-300:
        return np.zeros(3)
    u = x / r
    return f.a(r) * np.asarray(f.surface(u), dtype=float) + f.b(r) * u


def handle_equilibria(genus: int) -> int:
    """Interior equilibria of the extended handlebody system: centre + one
    per handle."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return 1 + genus


# ---------------------------------------------------------------------------
# concrete sphere fields


def dipole_sphere_field() -> Callable:
    """The plane field z^2 carried to the unit sphere by stereographic
    projection from the north pole.

    Smooth and nonvanishing at the north pole itself (the plane chart at
    infinity sees a constant field there); its single zero is the south
    pole, with winding index 2 in the plane chart.
    """

    def surf(u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u[2] > 1.0 - 1e-12:
            return np.array([-2.0, 0.0, 0.0])
        x = u[0] / (1.0 - u[2])
        y = u[1] / (1.0 - u[2])
        vx = x * x - y * y
        vy = 2.0 * x * y
        s = 1.0 + x * x + y * y
        dot = x * vx + y * vy
        return np.array(
            [
                2.0 * vx / s - 4.0 * x * dot / (s * s),
                2.0 * vy / s - 4.0 * y * dot / (s * s),
                4.0 * dot / (s * s),
            ]
        )

    return surf


def zero_sphere_field() -> Callable:
    """Identically zero surface field (degenerate reference case)."""

    def surf(u) -> np.ndarray:
        return np.zeros(3)

    return surf


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = phi * k
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def _from_chart(w: complex, s: float) -> np.ndarray:
    """Inverse stereographic projection from the pole s * e3.

    s = +1 projects from the north pole (w = 0 is the south pole), s = -1
    from the south pole; the chart point of u is (u0 + i u1) / (1 - s u2).
    """
    r2 = w.real * w.real + w.imag * w.imag
    return np.array([2.0 * w.real, 2.0 * w.imag, s * (r2 - 1.0)]) / (1.0 + r2)


def _chart(surface: Callable, s: float) -> Callable[[complex], complex]:
    """The surface field as a planar field in the chart of ``_from_chart``.

    It is the stereographic image of the field times the conformal factor
    (1 - s u2), so a tangent field keeps its length: |value| = |surface(u)|.
    """

    def planar(w: complex) -> complex:
        u = _from_chart(w, s)
        v = np.asarray(surface(u), dtype=float)
        lift = s * v[2] / (1.0 - s * u[2])
        return complex(v[0] + lift * u[0], v[1] + lift * u[1])

    return planar


def sphere_surface_zeros(surface: Callable) -> list[np.ndarray]:
    """Locate zeros of a tangent field on the unit sphere.

    SPHERE_SAMPLES deterministic samples pick candidate minima of |field|.
    Each candidate is refined by flowlab's damped Newton solver in the
    stereographic chart from the pole farther from it.  The chart field is
    scaled by ZERO_TOL / SPHERE_ZERO_TOL, so the solver's acceptance
    |value| <= ZERO_TOL means |field| <= SPHERE_ZERO_TOL; the result is
    kept only if |field| <= SPHERE_ZERO_TOL holds on the sphere itself.  At
    most MAX_SPHERE_ZEROS distinct zeros are returned.  A field that
    vanishes on more than half the samples is treated as identically zero
    and returns an empty list (no isolated zeros).
    """
    pts = _fibonacci_sphere(SPHERE_SAMPLES)
    mags = np.array([np.linalg.norm(surface(p)) for p in pts])
    if np.median(mags) < SPHERE_ZERO_TOL:
        return []
    order = np.argsort(mags, kind="stable")
    scale = ZERO_TOL / SPHERE_ZERO_TOL

    zeros: list[np.ndarray] = []
    for idx in order[: MAX_SPHERE_ZEROS * 4]:
        p = pts[idx]
        s = 1.0 if p[2] <= 0.0 else -1.0
        chart = _chart(surface, s)
        start = complex(p[0], p[1]) / (1.0 - s * p[2])
        try:
            w = newton_refine(lambda w: scale * chart(w), start, step_cap=0.5)
        except NewtonDiverged:
            continue
        u = _from_chart(w, s)
        if np.linalg.norm(surface(u)) > SPHERE_ZERO_TOL:
            continue
        if all(np.linalg.norm(u - z) > 1e-6 for z in zeros):
            zeros.append(u)
        if len(zeros) >= MAX_SPHERE_ZEROS:
            break
    zeros.sort(key=lambda z: (z[2], z[1], z[0]))
    return zeros


def interior_zero_scan(f: BallExtensionField, n: int, seed: int = 0) -> dict:
    """Sample the open ball for spurious zeros of the extended field.

    Points inside ORIGIN_EXCLUSION of the centre are skipped (the centre
    is the one intended equilibrium); any remaining sample with
    |V| < INTERIOR_HIT_TOL counts as a hit and is reported.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    hits: list[list[float]] = []
    min_mag = math.inf
    checked = 0
    if n > 0:
        dirs = rng.normal(size=(n, 3))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0.0] = 1.0
        radii = rng.random(n) ** (1.0 / 3.0)
        pts = dirs / norms[:, None] * radii[:, None]
        for p in pts:
            if np.linalg.norm(p) <= ORIGIN_EXCLUSION:
                continue
            checked += 1
            mag = float(np.linalg.norm(extend_to_ball(f, p)))
            if mag < min_mag:
                min_mag = mag
            if mag < INTERIOR_HIT_TOL:
                hits.append([float(p[0]), float(p[1]), float(p[2])])
    return {
        "samples": n,
        "checked": checked,
        "seed": seed,
        "hit_tol": INTERIOR_HIT_TOL,
        "origin_exclusion": ORIGIN_EXCLUSION,
        "interior_hits": len(hits),
        "hit_points": hits,
        "min_field_magnitude": None if math.isinf(min_mag) else min_mag,
    }
