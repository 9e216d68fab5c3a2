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
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TooManyEquilibria
from .flowlab import ZERO_TOL, locate_zeros
from .moebius import exact_int, whole_at_least


@dataclass(frozen=True)
class IndexSet:
    """Two-dimensional indices of invariant-surface equilibria.

    ``hyperbolic_count`` is how many of them are linearizable saddles.
    """

    indices: tuple[int, ...]
    hyperbolic_count: int = 0

    def __post_init__(self):
        indices = tuple(exact_int(i, "index") for i in self.indices)
        hyperbolic = exact_int(self.hyperbolic_count, "hyperbolic count")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "hyperbolic_count", hyperbolic)
        if hyperbolic < 0 or hyperbolic > len(indices):
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
    """At least 2(p-1) hyperbolic points are needed at splitting genus p >= 1.

    ``p`` goes through ``whole_at_least``: ValueError("p must be at least 1,
    ...") below 1.
    """
    p = whole_at_least(p, 1, "p")
    return s.hyperbolic_count >= 2 * (p - 1)


# ---------------------------------------------------------------------------
# twist matrices and homology


def _is_symplectic(rows) -> bool:
    """Whether the columns pair like the basis: <M e_i, M e_j> = J_ij.

    <x, y> = x^T J y, and (J y)_k is y_k+1 for even k and -y_k-1 for odd k.
    """
    cols = list(zip(*rows))
    j_cols = [[-y[k ^ 1] if k % 2 else y[k ^ 1] for k in range(len(y))] for y in cols]
    return all(
        sum(map(operator.mul, x, j_cols[j])) == (j == i + 1 and i % 2 == 0)
        for i, x in enumerate(cols)
        for j in range(i + 1, len(cols))
    )


@dataclass(frozen=True)
class GluingMatrix:
    """Integer symplectic matrix acting on the surface's first homology.

    The genus is a whole number of at least 1 (``whole_at_least``), and the
    entries are whole numbers (``exact_int``); ValueError otherwise.
    """

    genus: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        genus = whole_at_least(self.genus, 1, "genus")
        rows = tuple(tuple(exact_int(x, "matrix entry") for x in row) for row in self.entries)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "entries", rows)
        n = 2 * genus
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"entries must be {n}x{n}")
        if not _is_symplectic(rows):
            raise ValueError("matrix is not integrally symplectic")


_CURVE_RE = re.compile(r"^([abg])(\d+)$")


def curve_class(curve: str, genus: int) -> tuple[int, ...]:
    """Homology class of a standard twist curve in the fixed basis.

    a_i and b_i are the handle curves; g_i (defined for i < genus) chains
    consecutive handles with class b_i - b_{i+1}.  The genus goes through
    ``exact_int``, so a whole float counts as its int.
    """
    genus = exact_int(genus, "genus")
    m = _CURVE_RE.match(curve.strip()) if isinstance(curve, str) else None
    if not m:
        raise ValueError(f"bad curve id {curve!r}; expected like 'a1', 'b2', 'g1'")
    kind, i = m.group(1), int(m.group(2))
    chain = kind == "g"
    if not 1 <= i <= (genus - 1 if chain else genus):
        raise ValueError(f"{curve}: chain curves need 1 <= i <= genus-1" if chain
                         else f"{curve}: index out of range for genus {genus}")
    vec = [0] * (2 * genus)
    vec[2 * i - 2 if kind == "a" else 2 * i - 1] = 1
    if chain:
        vec[2 * i + 1] = -1
    return tuple(vec)


def compose_word(word, genus: int) -> GluingMatrix:
    """Ordered product of twist matrices for a word of (curve, exponent) pairs.

    The twist about c is T = I + c w^T, where w = J^T c is c's pairing
    partner (w_2i = -c_2i+1, w_2i+1 = c_2i).  <c, c> = 0 makes (c w^T)^2 = 0,
    so T^e = I + e c w^T for every integer e, and a letter of any nonzero
    exponent e updates the product P, held as its columns, as
    P <- P + e (P c) w^T: column j gains e w_j (P c) for each j on w's
    support, one pass per changed column.  P c is read off the columns P
    already holds: column k itself for c = e_k (a_k, b_k), and the
    difference of columns k and l, built in one pass, for c = e_k - e_l
    (g_i = b_i - b_i+1).  Neither column changes, as w is zero on c's
    support.  So a letter costs O(genus) integer operations whatever its
    exponent: one pass for a or b, three for g.  Each transvection is
    symplectic, so the product is checked once, as the result is built.
    A genus below 1 raises ValueError("genus must be at least 1, ...").
    """
    genus = whole_at_least(genus, 1, "genus")
    n = 2 * genus
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    letters: dict[str, tuple[list[int], list[tuple[int, int]]]] = {}  # per curve in word
    for curve, exponent in word:
        exponent = exact_int(exponent, "exponent")
        if exponent == 0:
            raise ValueError("exponent must be nonzero")
        try:
            support, targets = letters[curve]
        except (KeyError, TypeError):  # a new curve, or an unhashable id curve_class rejects
            c = curve_class(curve, genus)
            support = [k for k, v in enumerate(c) if v]  # c[support[0]] = 1, c[support[1]] = -1
            targets = [(k ^ 1, -c[k] if k % 2 else c[k]) for k in support]  # (j, w_j)
            letters[curve] = support, targets
        if len(support) == 1:
            pc = cols[support[0]]
        else:
            pc = [x - y for x, y in zip(cols[support[0]], cols[support[1]])]
        for j, w in targets:
            u = exponent * w
            cols[j] = [x + u * p for x, p in zip(cols[j], pc)]
    return GluingMatrix(genus, tuple(zip(*cols)))


@dataclass(frozen=True)
class TwistWord:
    """A twist word as its letters (curve, k), k != 0: "a1^3 b1" is
    (("a1", 3), ("b1", 1)).

    Iterating gives the letters.  len() is the word's length in unit
    twists, sum |k| (4 for "a1^3 b1"), the count the word is measured by.
    """

    letters: tuple[tuple[str, int], ...]

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return sum(abs(k) for _, k in self.letters)


_TOKEN_RE = re.compile(r"^([abg]\d+)(?:\^(-?\d+))?$")


def parse_twist_word(text: str) -> TwistWord:
    """Parse twist-word text like "a1 b1^-1 g1^3 a2" into (curve, exponent) letters.

    A power stays one letter (compose_word applies it as one update), and
    a zero power is dropped.
    """
    letters: list[tuple[str, int]] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad twist token {token!r}")
        power = int(m.group(2)) if m.group(2) is not None else 1
        if power:
            letters.append((m.group(1), power))
    return TwistWord(tuple(letters))


def smith_diagonal(matrix) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer arithmetic; nonnegative entries, each dividing the next,
    padded with zeros to min(rows, cols).  A nonzero entry p of least
    magnitude is the pivot: row operations reduce its column and column
    operations its row modulo p.  A remainder is a smaller pivot for the
    next round; once the row and column are clear, |p| joins the diagonal
    and they are deleted.  diag(d, e) is equivalent to diag(gcd, lcm), so
    the diagonal is put in divisibility order pairwise at the end.
    """
    a = [[exact_int(x, "matrix entry") for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    diag: list[int] = []
    while True:
        best = pi = pj = 0
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and (abs(v) < best or not best):
                    best, pi, pj = abs(v), i, j
        if not best:
            break
        prow = a[pi]
        p = prow[pj]
        clear = True
        for i, row in enumerate(a):
            if i != pi and row[pj]:
                q = row[pj] // p
                a[i] = row = [x - q * y for x, y in zip(row, prow)]
                clear = clear and not row[pj]
        for j, v in enumerate(prow):
            if j != pj and v:
                q = v // p
                for row in a:
                    row[j] -= q * row[pj]
                clear = clear and not prow[j]
        if clear:
            diag.append(best)
            del a[pi]
            for row in a:
                del row[pj]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (min(m, n) - len(diag))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as rank plus divisibility-ordered torsion.

    The rank, checked first, is a whole number of at least 0 and each
    torsion coefficient one of at least 2 (``whole_at_least``); ValueError
    otherwise, as for a torsion chain that does not divide.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        rank = whole_at_least(self.rank, 0, "rank")
        tor = tuple(whole_at_least(t, 2, "torsion coefficient") for t in self.torsion)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", tor)
        for t0, t1 in zip(tor, tor[1:]):
            if t1 % t0:
                raise ValueError("torsion coefficients must form a divisibility chain")

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
INTERIOR_HIT_TOL = 1e-4
ORIGIN_EXCLUSION = 1e-3


@dataclass(frozen=True, eq=False)
class BallExtensionField:
    """Sphere dynamics scaled onto nested spheres plus an interior normal push.

    ``surface`` maps a unit 3-vector to a tangent 3-vector.  At x = r u
    the field is r * surface(u) + r (1 - r) * u: the tangential part
    vanishes at the centre (continuity there), and the normal push vanishes
    at the centre and on the boundary and points outward between them, so
    the only interior equilibrium is the centre itself.  A point that is
    not a finite 3-vector in the closed unit ball (to 1e-12) raises
    ValueError.
    """

    surface: Callable

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (3,):
            raise ValueError("x must be a 3-vector")
        if not np.isfinite(x).all():
            raise ValueError(f"x must be finite, got {x}")
        r = float(np.linalg.norm(x))
        if r > 1.0 + 1e-12:
            raise ValueError(f"|x| = {r:.6g} outside the unit ball")
        if r < 1e-300:
            return np.zeros(3)
        u = x / r
        return r * np.asarray(self.surface(u), dtype=float) + r * (1.0 - r) * u


def handle_equilibria(genus: int) -> int:
    """Interior equilibria of the extended handlebody system: centre + one
    per handle.  A genus below 0 raises ValueError("genus must be at least
    0, ...")."""
    return 1 + whole_at_least(genus, 0, "genus")


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

    In each stereographic chart of ``_chart``, ``flowlab.locate_zeros``
    scans the cells of a 31 x 31 grid on |Re w|, |Im w| <= 1.25 that meet
    the closed disc |w| <= 1 + 1e-6: the chart's hemisphere, to within the
    1e-6 dedup distance.  The scan drops a zero that Newton reaches outside
    that disc, so each chart returns only its own hemisphere's zeros; both
    charts may return an equator zero, and the dedup reports it once.  The
    odd grid keeps the chart centre, the pole opposite the projection pole,
    off the grid corners.  Only locations are asked for, so no zero is
    lost to a failed winding circle: a non-isolated zero set, such as a
    circle of zeros, shows as the points Newton reaches from its grid
    cells.  The chart field is scaled by ZERO_TOL / SPHERE_ZERO_TOL, so
    the solver's acceptance |value| <= ZERO_TOL means |field| <=
    SPHERE_ZERO_TOL; a zero is kept only if |field| <= SPHERE_ZERO_TOL
    holds on the sphere itself.  A field that vanishes on more than half of
    SPHERE_SAMPLES deterministic samples is treated as identically zero and
    returns an empty list (no isolated zeros).  Zeros are sorted by (z, y,
    x), with z and y rounded to the dedup distance so that rounding noise
    cannot reorder them.
    """
    pts = _fibonacci_sphere(SPHERE_SAMPLES)
    if np.median([np.linalg.norm(surface(p)) for p in pts]) < SPHERE_ZERO_TOL:
        return []
    scale = ZERO_TOL / SPHERE_ZERO_TOL
    reach, dedup = 1.25, 1e-6
    zeros: list[np.ndarray] = []
    for s in (1.0, -1.0):
        chart = _chart(surface, s)
        located, _ = locate_zeros(lambda w: scale * chart(w), (-reach, reach, -reach, reach),
                                  31, annulus=(0j, 0.0, 1.0 + dedup))
        for w in located:
            u = _from_chart(w, s)
            if np.linalg.norm(surface(u)) > SPHERE_ZERO_TOL:
                continue
            if all(np.linalg.norm(u - z) > dedup for z in zeros):
                zeros.append(u)
    zeros.sort(key=lambda z: (round(z[2] / dedup), round(z[1] / dedup), z[0]))
    return zeros


def interior_zero_scan(f: BallExtensionField, n: int, seed: int = 0) -> dict:
    """Sample the open ball for spurious zeros of the extended field.

    Points inside ORIGIN_EXCLUSION of the centre are skipped (the centre
    is the one intended equilibrium); any remaining sample with
    |V| < INTERIOR_HIT_TOL counts as a hit and is reported.  ``n`` is a
    whole number of at least 0 (ValueError("sample count must be at least
    0, ...") otherwise).
    """
    n = whole_at_least(n, 0, "sample count")
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
            mag = float(np.linalg.norm(f(p)))
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
