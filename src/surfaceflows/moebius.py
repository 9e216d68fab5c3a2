"""Moebius transformations and bounded enumeration of the groups they generate.

A map is stored by its four complex coefficients, so everything here is
plain matrix algebra on 2x2 complex matrices.  Group elements are
identified up to scalar multiples; :meth:`MoebiusMap.normalized` picks one
representative per projective class (determinant scaled to 1, sign fixed
by the first nonzero coefficient), which is what ball enumeration
deduplicates on.  Deduplication is by matrix distance, never by word:
generating sets may satisfy relations, and the enumeration must neither
assume freeness nor assert any particular relation.  Maps check their
input when built; enumeration works on plain (a, b, c, d) tuples, valid by
construction as products of checked det-1 letters.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BallTooLarge, PoleHit

DEDUP_TOL = 1e-9
POLE_TOL = 1e-12
BALL_CAP = 200_000

_SIGN_EPS = 1e-12
_IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear map z -> (a z + b) / (c z + d), with a d - b c != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient {name} = {value} is not finite")
            object.__setattr__(self, name, value)
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or abs(self.det) <= 1e-14 * scale * scale:
            raise ValueError(f"singular coefficient tuple {self.coeffs()}")

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(*_IDENTITY)

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
        return MoebiusMap(*_sign_fixed(*(w / root for w in self.coeffs())))

    def __call__(self, z: complex) -> complex:
        return apply(self, z)


def _sign_fixed(a: complex, b: complex, c: complex, d: complex) -> tuple:
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
            return (-a, -b, -c, -d)
        break
    return (a, b, c, d)


def _product(p: tuple, q: tuple) -> tuple:
    """The 2x2 coefficient-matrix product p q, on (a, b, c, d) tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _inverse(p: tuple) -> tuple:
    a, b, c, d = p
    return (d, -b, -c, a)


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """Map representing z -> m1(m2(z)); the 2x2 coefficient-matrix product."""
    return MoebiusMap(*_product(m1.coeffs(), m2.coeffs()))


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
    return MoebiusMap(*_inverse(m.coeffs()))


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


@dataclass(frozen=True, eq=False)
class GroupBall:
    """All distinct group elements reachable by words of length <= radius.

    Elements are in canonical order (shortest word, then lexicographic),
    identity first: ``letters[k]`` is element k's word as (index, exponent)
    pairs and row k of the read-only (N, 4) array ``coeffs`` its normalized
    (a, b, c, d).  ``maps()`` and ``words()`` build objects on demand.
    """

    generators: tuple[MoebiusMap, ...]
    radius: int
    letters: tuple[tuple[tuple[int, int], ...], ...]
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.letters)

    def maps(self) -> tuple[MoebiusMap, ...]:
        return tuple(MoebiusMap(*row) for row in self.coeffs.tolist())

    def words(self) -> tuple[GroupWord, ...]:
        return tuple(GroupWord(word) for word in self.letters)

    def truncated(self, radius: int) -> "GroupBall":
        """The ball of a radius no larger than this one's.

        Enumeration is breadth-first in canonical order, so its first
        ``radius`` levels are exactly those of the smaller enumeration: the
        smaller ball is a prefix of this one.
        """
        if not 0 <= radius <= self.radius:
            raise ValueError(f"radius must lie in [0, {self.radius}]")
        size = sum(1 for word in self.letters if len(word) <= radius)
        return GroupBall(self.generators, radius, self.letters[:size], self.coeffs[:size])

    def conjugated(self, m: MoebiusMap) -> "GroupBall":
        """The ball of the generators conjugated by ``m``, g -> m g m^-1.

        Conjugation is an isomorphism, so each element keeps its canonical
        word; its matrix is the conjugate by the det-1 representative of
        ``m``, sign-fixed like an enumerated one.
        """
        unit = m.normalized().coeffs()
        unit_inv = _inverse(unit)
        rows = [_sign_fixed(*_product(_product(unit, g), unit_inv)) for g in self.coeffs.tolist()]
        generators = tuple(compose(compose(m, g), inverse(m)) for g in self.generators)
        return GroupBall(generators, self.radius, self.letters, _frozen_rows(rows))


def _frozen_rows(rows) -> np.ndarray:
    coeffs = np.array(rows, dtype=complex)
    coeffs.flags.writeable = False
    return coeffs


class _MatrixIndex:
    """Spatial hash over the 8 real coordinates of normalized (a, b, c, d) tuples.

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
    def _vec(m: tuple) -> tuple[float, ...]:
        a, b, c, d = m
        return (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)

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

    def contains(self, m: tuple) -> bool:
        vec = self._vec(m)
        return self._near(vec) or self._near(tuple(-x for x in vec))

    def add(self, m: tuple) -> None:
        vec = self._vec(m)
        self.buckets.setdefault(self._cell(vec), []).append(vec)


def enumerate_ball(generators, radius: int) -> GroupBall:
    """Breadth-first enumeration of all elements with word length <= radius.

    Words are extended in canonical letter order (g1, g1^-1, g2, ...), so
    the first word reaching an element is its canonical representative and
    the output order is schedule-independent: word length first, then
    lexicographic word.

    Raises BallTooLarge past BALL_CAP elements, ValueError on coefficient overflow.
    """
    generators = tuple(generators)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # Letters carry det 1, so products stay det-1 to rounding error and
    # canonical representatives only need the sign fix (see _sign_fixed).
    alphabet = []
    for i, g in enumerate(generators, start=1):
        unit = g.normalized().coeffs()
        alphabet.append(((i, 1), (i, -1), unit))
        alphabet.append(((i, -1), (i, 1), _inverse(unit)))

    index = _MatrixIndex(DEDUP_TOL)
    index.add(_IDENTITY)
    words: list[tuple[tuple[int, int], ...]] = [()]
    rows: list[tuple] = [_IDENTITY]
    level = range(1)  # positions of the last level's elements
    for length in range(1, radius + 1):
        for k in level:
            word, matrix = words[k], rows[k]
            last = word[-1] if word else None
            for letter, undo, gen in alphabet:
                if last == undo:
                    continue  # immediate cancellation: not freely reduced
                candidate = _sign_fixed(*_product(matrix, gen))
                try:
                    if index.contains(candidate):
                        continue
                except (OverflowError, ValueError) as exc:
                    raise ValueError(f"coefficient overflow at word length {length}") from exc
                if len(rows) + 1 > BALL_CAP:
                    raise BallTooLarge(
                        f"group ball exceeds cap of {BALL_CAP} elements at radius {radius}"
                    )
                index.add(candidate)
                words.append(word + (letter,))
                rows.append(candidate)
        level = range(level.stop, len(rows))

    return GroupBall(generators, radius, tuple(words), _frozen_rows(rows))


def word_to_map(word: GroupWord, generators) -> MoebiusMap:
    """Compose a word's letters over the given generators.

    Letters are det-normalized before composing, so the result is the
    canonical (det-1, sign-fixed) representative of the word's element.
    """
    units = tuple(g.normalized().coeffs() for g in generators)
    result = _IDENTITY
    for i, e in word.letters:
        result = _product(result, units[i - 1] if e == 1 else _inverse(units[i - 1]))
    return MoebiusMap(*_sign_fixed(*result))
