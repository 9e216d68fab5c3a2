"""Moebius transformations and bounded enumeration of the groups they generate.

A map is stored by its four complex coefficients, so everything here is
plain matrix algebra on 2x2 complex matrices.  Group elements are
identified up to scalar multiples; :meth:`MoebiusMap.normalized` picks one
representative per projective class (determinant scaled to 1, sign fixed
by the first nonzero coefficient), which is what ball enumeration
deduplicates on.  Deduplication is by matrix distance, never by word:
generating sets may satisfy relations, and the enumeration must neither
assume freeness nor assert any particular relation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .errors import BallTooLarge, PoleHit

DEDUP_TOL = 1e-9
POLE_TOL = 1e-12
BALL_CAP = 200_000

_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear map z -> (a z + b) / (c z + d), with a d - b c != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or abs(self.det) <= 1e-14 * scale * scale:
            raise ValueError(f"singular coefficient tuple {self.coeffs()}")

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def coeffs(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def normalized(self) -> "MoebiusMap":
        """Representative with determinant 1 and a fixed sign convention.

        The sign is chosen so the first nonzero coefficient in the order
        (a, b, c, d) has nonnegative real part, with positive imaginary
        part breaking the tie when the real part vanishes.
        """
        root = cmath.sqrt(self.det)
        return _sign_fixed(self.a / root, self.b / root, self.c / root, self.d / root)

    def __call__(self, z: complex) -> complex:
        return apply(self, z)


def _sign_fixed(a: complex, b: complex, c: complex, d: complex) -> MoebiusMap:
    """Apply the sign convention to coefficients already scaled to det 1.

    Kept separate from the determinant scaling: re-dividing by a
    determinant computed from large coefficients (a cancellation-prone
    difference) would inject noise of order |coeff|^2 * eps, while matrix
    products of det-1 factors keep det 1 to relative rounding error.
    """
    biggest = max(abs(a), abs(b), abs(c), abs(d))
    for w in (a, b, c, d):
        if abs(w) <= _SIGN_EPS * biggest:
            continue
        real_is_zero = abs(w.real) <= _SIGN_EPS * abs(w)
        if (w.real < 0.0 and not real_is_zero) or (real_is_zero and w.imag < 0.0):
            a, b, c, d = -a, -b, -c, -d
        break
    return MoebiusMap(a, b, c, d)


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """Map representing z -> m1(m2(z)); the 2x2 coefficient-matrix product."""
    return MoebiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def apply(m: MoebiusMap, z: complex) -> complex:
    den = m.c * z + m.d
    if abs(den) < POLE_TOL:
        raise PoleHit(f"map evaluated within {POLE_TOL} of its pole (z={z})")
    return (m.a * z + m.b) / den


def derivative(m: MoebiusMap, z: complex) -> complex:
    """(ad - bc) / (cz + d)^2, the multiplier a weight-one field picks up."""
    den = m.c * z + m.d
    if abs(den) < POLE_TOL:
        raise PoleHit(f"derivative evaluated within {POLE_TOL} of the pole (z={z})")
    return m.det / (den * den)


def inverse(m: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


def normalized_distance(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Max coefficient distance between the normalized representatives."""
    n1, n2 = m1.normalized(), m2.normalized()
    return max(abs(x - y) for x, y in zip(n1.coeffs(), n2.coeffs()))


# ---------------------------------------------------------------------------
# words and balls


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word over a generating set.

    Letters are (generator index, exponent) pairs with 1-based indices and
    exponents +-1.  The empty word is the identity.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple((int(i), int(e)) for i, e in self.letters))
        for i, e in self.letters:
            if i < 1 or e not in (1, -1):
                raise ValueError(f"bad letter ({i}, {e})")
        for (i1, e1), (i2, e2) in zip(self.letters, self.letters[1:]):
            if i1 == i2 and e1 == -e2:
                raise ValueError(f"word not freely reduced at {(i1, e1)}{(i2, e2)}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(f"g{i}" if e == 1 else f"g{i}^-1" for i, e in self.letters)

    def sort_key(self):
        """Length, then lexicographic with g_i before g_i^-1."""
        return (len(self.letters), tuple((i, 0 if e == 1 else 1) for i, e in self.letters))


@dataclass(frozen=True)
class GroupBall:
    """All distinct group elements reachable by words of length <= radius.

    ``elements`` pairs each element's canonical word (shortest, then
    lexicographic) with its normalized matrix, in canonical order.
    """

    generators: tuple[MoebiusMap, ...]
    radius: int
    elements: tuple[tuple[GroupWord, MoebiusMap], ...]

    def __len__(self) -> int:
        return len(self.elements)

    def maps(self) -> tuple[MoebiusMap, ...]:
        return tuple(m for _, m in self.elements)

    def words(self) -> tuple[GroupWord, ...]:
        return tuple(w for w, _ in self.elements)

    def truncated(self, radius: int) -> "GroupBall":
        """The ball of a radius no larger than this one's.

        Enumeration is breadth-first in canonical order, so its first
        ``radius`` levels are exactly those of the smaller enumeration: the
        smaller ball is a prefix of this one.
        """
        if not 0 <= radius <= self.radius:
            raise ValueError(f"radius must lie in [0, {self.radius}]")
        size = sum(1 for word, _ in self.elements if len(word) <= radius)
        return GroupBall(self.generators, radius, self.elements[:size])

    def conjugated(self, m: MoebiusMap) -> "GroupBall":
        """The ball of the generators conjugated by ``m``, g -> m g m^-1.

        Conjugation is an isomorphism, so each element keeps its canonical
        word; its matrix is the conjugate by the det-1 representative of
        ``m``, sign-fixed like an enumerated one.
        """
        unit = m.normalized()
        unit_inv = inverse(unit)
        m_inv = inverse(m)
        elements = tuple(
            (word, _sign_fixed(*compose(compose(unit, g), unit_inv).coeffs()))
            for word, g in self.elements
        )
        generators = tuple(compose(compose(m, g), m_inv) for g in self.generators)
        return GroupBall(generators, self.radius, elements)


class _MatrixIndex:
    """Spatial hash over the 8 real coordinates of normalized matrices.

    Distinct elements of a discrete group sit far apart while duplicates
    agree to rounding error, so a coarse grid with neighbour probing is
    enough.  Cells are 1000 * tol wide and centred on multiples of their
    width, so zeros and integers, frequent coordinates, sit mid-cell and a
    lookup usually probes one cell (a power-of-two width would put odd
    integers on cell edges).  Lookups also probe around the negated
    matrix: the sign convention can flip for matrices whose leading
    coefficient hugs the imaginary axis.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.h = max(tol * 1000.0, 1e-12)
        self.buckets: dict[tuple[int, ...], list[tuple[float, ...]]] = {}

    @staticmethod
    def _vec(m: MoebiusMap) -> tuple[float, ...]:
        return tuple(itertools.chain.from_iterable((w.real, w.imag) for w in m.coeffs()))

    def _cell(self, vec) -> tuple[int, ...]:
        return tuple(math.floor(x / self.h + 0.5) for x in vec)

    def _near(self, vec) -> bool:
        ranges = [
            range(math.floor((x - self.tol) / self.h + 0.5),
                  math.floor((x + self.tol) / self.h + 0.5) + 1)
            for x in vec
        ]
        for cell in itertools.product(*ranges):
            for cand in self.buckets.get(cell, ()):
                if max(abs(x - y) for x, y in zip(vec, cand)) < self.tol:
                    return True
        return False

    def contains(self, m: MoebiusMap) -> bool:
        vec = self._vec(m)
        return self._near(vec) or self._near(tuple(-x for x in vec))

    def add(self, m: MoebiusMap) -> None:
        vec = self._vec(m)
        self.buckets.setdefault(self._cell(vec), []).append(vec)


def enumerate_ball(generators, radius: int) -> GroupBall:
    """Breadth-first enumeration of all elements with word length <= radius.

    Words are extended in canonical letter order (g1, g1^-1, g2, ...), so
    the first word reaching an element is its canonical representative and
    the output order is schedule-independent: word length first, then
    lexicographic word.

    Raises BallTooLarge when the element count would exceed BALL_CAP.
    """
    generators = tuple(generators)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # Letters carry det 1, so products stay det-1 to rounding error and
    # canonical representatives only need the sign fix (see _sign_fixed).
    letters = []
    for i, g in enumerate(generators, start=1):
        unit = g.normalized()
        letters.append(((i, 1), unit))
        letters.append(((i, -1), inverse(unit)))

    index = _MatrixIndex(DEDUP_TOL)
    identity = MoebiusMap.identity()
    index.add(identity)
    elements: list[tuple[GroupWord, MoebiusMap]] = [(GroupWord(), identity)]
    frontier: list[tuple[tuple[tuple[int, int], ...], MoebiusMap]] = [((), identity)]

    for _ in range(radius):
        next_frontier = []
        for word_letters, matrix in frontier:
            last = word_letters[-1] if word_letters else None
            for letter, gen in letters:
                if last is not None and last[0] == letter[0] and last[1] == -letter[1]:
                    continue  # immediate cancellation: not freely reduced
                raw = compose(matrix, gen)
                candidate = _sign_fixed(raw.a, raw.b, raw.c, raw.d)
                if index.contains(candidate):
                    continue
                if len(elements) + 1 > BALL_CAP:
                    raise BallTooLarge(
                        f"group ball exceeds cap of {BALL_CAP} elements at radius {radius}"
                    )
                index.add(candidate)
                new_letters = word_letters + (letter,)
                elements.append((GroupWord(new_letters), candidate))
                next_frontier.append((new_letters, candidate))
        frontier = next_frontier

    return GroupBall(generators=generators, radius=radius, elements=tuple(elements))


def word_to_map(word: GroupWord, generators) -> MoebiusMap:
    """Compose a word's letters over the given generators.

    Letters are det-normalized before composing, so the result is the
    canonical (det-1, sign-fixed) representative of the word's element.
    """
    units = tuple(g.normalized() for g in generators)
    result = MoebiusMap.identity()
    for i, e in word.letters:
        result = compose(result, units[i - 1] if e == 1 else inverse(units[i - 1]))
    return _sign_fixed(result.a, result.b, result.c, result.d)
