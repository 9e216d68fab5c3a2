"""Moebius transformations and bounded enumeration of the groups they generate.

A map is stored by its four complex coefficients, so everything here is
plain matrix algebra on 2x2 complex matrices.  Group elements are
identified up to scalar multiples; :meth:`MoebiusMap.normalized` picks one
representative per projective class (determinant scaled to 1, sign fixed
by the first nonzero coefficient), which is what ball enumeration
deduplicates on.  Deduplication is by matrix distance, never by word:
generating sets may satisfy relations, and the enumeration must neither
assume freeness nor assert any particular relation.  Maps check their
input when built; enumeration works on (N, 4) arrays of (a, b, c, d) rows,
valid by construction as products of checked det-1 letters, and its array
arithmetic reproduces the scalar tuple arithmetic bit for bit.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BallTooLarge, PoleHit

DEDUP_TOL = 1e-9
POLE_TOL = 1e-12
BALL_CAP = 200_000

_SIGN_EPS = 1e-12
_IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)


def exact_int(x, name: str) -> int:
    """``x`` as an int, or ValueError unless it is a finite whole number.

    numpy and sympy integers pass, and so does a whole float such as 2.0;
    a fractional or non-finite value is rejected, never truncated.
    """
    if type(x) is int:
        return x
    try:
        i = int(x)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be a finite integer, got {x!r}") from None
    if i != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return i


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


def _sign_fixed(a: complex, b: complex, c: complex, d: complex) -> tuple:
    """Apply the sign convention to coefficients already scaled to det 1.

    Kept separate from the determinant scaling: re-dividing by a
    determinant computed from large coefficients (a cancellation-prone
    difference) would inject noise of order |coeff|^2 * eps, while matrix
    products of det-1 factors keep det 1 to relative rounding error.
    """
    return tuple(_sign_fixed_rows(np.array([(a, b, c, d)], dtype=complex))[0].tolist())


def _sign_fixed_rows(rows: np.ndarray) -> np.ndarray:
    """The sign convention on each row of an (m, 4) complex array, in place.

    A row is negated when its first coefficient above _SIGN_EPS times its
    largest has negative real part, or a real part within _SIGN_EPS of
    zero and negative imaginary part.  Moduli come from np.hypot, which
    matches CPython's abs(complex) bit for bit where np.abs does not.
    """
    mag = np.hypot(rows.real, rows.imag)
    significant = mag > _SIGN_EPS * mag.max(axis=1, keepdims=True)
    pick = np.arange(len(rows)), significant.argmax(axis=1)  # first significant column
    w = rows[pick]
    real_is_zero = np.abs(w.real) <= _SIGN_EPS * mag[pick]
    flip = significant.any(axis=1) & np.where(real_is_zero, w.imag < 0.0, w.real < 0.0)
    rows[flip] = -rows[flip]
    return rows


def _product(p: tuple, q: tuple) -> tuple:
    """The 2x2 coefficient-matrix product p q, on (a, b, c, d) tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _products(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficient-matrix products p q over broadcast (..., 4) complex arrays.

    Written in real arithmetic in the operation order of CPython's complex
    product, so each entry equals ``_product`` on the same tuples bit for
    bit; numpy's complex multiply can differ from it in the last bit.
    """
    p_re, p_im, q_re, q_im = p.real, p.imag, q.real, q.imag

    def mul(i, j):  # p[..., i] * q[..., j] as (real, imag)
        return (p_re[..., i] * q_re[..., j] - p_im[..., i] * q_im[..., j],
                p_re[..., i] * q_im[..., j] + p_im[..., i] * q_re[..., j])

    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=complex)
    for row in (0, 2):
        for col in (0, 1):
            (re1, im1), (re2, im2) = mul(row, col), mul(row + 1, col + 2)
            out.real[..., row + col] = re1 + re2
            out.imag[..., row + col] = im1 + im2
    return out


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
        object.__setattr__(self, "letters", tuple(
            (exact_int(i, "generator index"), exact_int(e, "exponent")) for i, e in self.letters))
        for i, e in self.letters:
            if i < 1 or e not in (1, -1):
                raise ValueError(f"bad letter ({i}, {e})")
        for (i1, e1), (i2, e2) in zip(self.letters, self.letters[1:]):
            if i1 == i2 and e1 == -e2:
                raise ValueError(f"word not freely reduced at {(i1, e1)}{(i2, e2)}")

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
        smaller ball is a prefix of this one, whose size a binary search on
        word length finds.
        """
        radius = exact_int(radius, "radius")
        if not 0 <= radius <= self.radius:
            raise ValueError(f"radius must lie in [0, {self.radius}]")
        size = bisect.bisect_right(self.letters, radius, key=len)
        return GroupBall(self.generators, radius, self.letters[:size], self.coeffs[:size])

    def conjugated(self, m: MoebiusMap) -> "GroupBall":
        """The ball of the generators conjugated by ``m``, g -> m g m^-1.

        Conjugation is an isomorphism, so each element keeps its canonical
        word; its matrix is the conjugate by the det-1 representative of
        ``m``, sign-fixed like an enumerated one.
        """
        unit = m.normalized().coeffs()
        unit, unit_inv = np.array([unit]), np.array([_inverse(unit)])
        rows = _sign_fixed_rows(_products(_products(unit, self.coeffs), unit_inv))
        generators = tuple(compose(compose(m, g), inverse(m)) for g in self.generators)
        return GroupBall(generators, self.radius, self.letters, _frozen(rows))


def _frozen(coeffs: np.ndarray) -> np.ndarray:
    coeffs.flags.writeable = False
    return coeffs


# murmur3's 64-bit finalizer mixes each coordinate's bits; distinct odd
# multipliers, one per coordinate, then make the sum order-dependent
_MIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))
_HASH_MULTIPLIERS = np.uint64(0x9E3779B97F4A7C15) * np.arange(1, 16, 2, dtype=np.uint64)


class _CellIndex:
    """Spatial hash over the 8 real coordinates of normalized (a, b, c, d) rows.

    Distinct elements of a discrete group sit far apart while duplicates
    agree to rounding error, so a coarse grid with neighbour probing is
    enough.  Cells are 1000 * tol wide and centred on multiples of their
    width, so zeros and integers, frequent coordinates, sit mid-cell and a
    row usually touches one cell (a power-of-two width would put odd
    integers on cell edges).  Rows also match the negated row: the sign
    convention can flip for matrices whose leading coefficient hugs the
    imaginary axis.  A cell is keyed by a 64-bit hash of its integer
    coordinates; a collision only sends a row to the exact probe.

    Storage is two arrays kept in hash order, with no Python object per
    row: ``hashes`` (uint64, the hash of each stored row's cell) and
    ``rows`` ((N, 8) float64), 72 bytes per stored row.  The stored rows of
    a cell, and of any cell sharing its hash, form one contiguous span.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.h = max(tol * 1000.0, 1e-12)
        self.hashes = np.empty(0, dtype=np.uint64)
        self.rows = np.empty((0, 8))

    def _cells(self, vecs: np.ndarray) -> np.ndarray:
        return np.floor(vecs / self.h + 0.5)

    @staticmethod
    def _hash(cells: np.ndarray) -> np.ndarray:
        k = np.ascontiguousarray(cells).view(np.uint64)
        for mult in _MIX:
            k = (k ^ (k >> np.uint64(33))) * mult
        return ((k ^ (k >> np.uint64(33))) * _HASH_MULTIPLIERS).sum(axis=-1)

    @staticmethod
    def _member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Whether each of ``queries`` is in the sorted array ``keys``."""
        if not len(keys):
            return np.zeros(len(queries), dtype=bool)
        return keys[np.minimum(np.searchsorted(keys, queries), len(keys) - 1)] == queries

    def add_new(self, vecs: np.ndarray) -> np.ndarray:
        """Store, in order, each row of (m, 8) ``vecs`` within tol of no stored row.

        A row matches a stored one when they, or the row's negative and
        the stored one, differ by less than tol in every coordinate.  Rows
        are taken up to the first one whose cell is not finite; the
        returned mask of new rows covers only those, so a shorter mask
        means coefficient overflow.  The new rows are merged into the
        hash-ordered arrays once, and the call's temporaries are a few
        (m, 8) arrays, one sign at a time.
        """
        finite = np.isfinite(vecs / self.h).all(axis=1)
        vecs = vecs[: len(vecs) if finite.all() else int(finite.argmin())]
        tol = self.tol
        # A row is new at once when it and its negative sit more than tol
        # inside their cells and no stored or fellow row shares either cell
        # (a row within tol of them would).  Every other row is probed in
        # order against all rows stored before it.
        own = self._hash(self._cells(vecs))
        fast = (self._cells(vecs - tol) == self._cells(vecs + tol)).all(axis=1)
        neg = self._cells(-vecs - tol)  # the cell of -v, as its tol-box starts
        fast &= (neg == self._cells(tol - vecs)).all(axis=1)
        other = self._hash(neg)
        fellows, slot, counts = np.unique(own, return_inverse=True, return_counts=True)
        fast &= (counts[slot] == 1) & ~self._member(self.hashes, own)
        fast &= ~self._member(self.hashes, other) & ~self._member(fellows, other)
        new = fast.copy()
        probed: list[int] = []  # rows of this call stored through the probe
        for k in np.flatnonzero(~fast).tolist():
            if not self._near(vecs[k], own, vecs, probed):
                new[k] = True
                probed.append(k)
        keep = np.flatnonzero(new)
        keep = keep[np.argsort(own[keep], kind="stable")]
        at = np.searchsorted(self.hashes, own[keep], side="right")
        self.hashes = np.insert(self.hashes, at, own[keep])
        self.rows = np.insert(self.rows, at, vecs[keep], axis=0)
        return new

    def _near(self, vec: np.ndarray, own: np.ndarray, vecs: np.ndarray, probed: list[int]) -> bool:
        """True when a stored row, or a row ``probed`` of ``vecs``, lies within tol of ``vec``.

        For ``vec`` and for ``-vec``, the candidates are the rows whose cell
        hash is that of a cell its tol-box touches: one ``hashes`` span per
        such cell, plus the probed rows with such a hash.  Rows stored
        through the fast path of the same call cannot match.
        """
        mine = np.array(probed, dtype=int)
        for v in (vec, -vec):
            lo, hi = self._cells(v - self.tol), self._cells(v + self.tol)
            ranges = [range(int(a), int(b) + 1) for a, b in zip(lo.tolist(), hi.tolist())]
            keys = np.unique(self._hash(np.array(list(itertools.product(*ranges)), dtype=float)))
            left = np.searchsorted(self.hashes, keys, side="left").tolist()
            right = np.searchsorted(self.hashes, keys, side="right").tolist()
            spans = [self.rows[a:b] for a, b in zip(left, right) if b > a]
            spans.append(vecs[mine[self._member(keys, own[mine])]])
            if (np.abs(np.concatenate(spans) - v) < self.tol).all(axis=1).any():
                return True
        return False


# blocks of at most this many parents bound the memory of a level's products
_BLOCK = 4096


def enumerate_ball(generators, radius: int) -> GroupBall:
    """Breadth-first enumeration of all elements with word length <= radius.

    Words are extended in canonical letter order (g1, g1^-1, g2, ...), so
    the first word reaching an element is its canonical representative and
    the output order is schedule-independent: word length first, then
    lexicographic word.  Each block of a level is one array pass: every
    parent times every letter that does not cancel its last one, then the
    sign fix and the dedup in canonical order.  The dedup index holds each
    element as 72 bytes in two hash-ordered arrays, with no Python object
    per element, and a block's temporaries are a few (m, 8) arrays for
    its m candidates.

    Raises BallTooLarge past BALL_CAP elements, ValueError on coefficient overflow.
    """
    generators = tuple(generators)
    radius = exact_int(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # Letters carry det 1, so products stay det-1 to rounding error and
    # canonical representatives only need the sign fix (see _sign_fixed).
    # Letter 2i is g_(i+1) and letter 2i + 1 its inverse, so l ^ 1 undoes l.
    units = [g.normalized().coeffs() for g in generators]
    alphabet = np.array([m for unit in units for m in (unit, _inverse(unit))],
                        dtype=complex).reshape(-1, 4)  # (0, 4) with no generators
    names = [((i, e),) for i in range(1, len(generators) + 1) for e in (1, -1)]
    undo = np.arange(len(alphabet)) ^ 1

    index = _CellIndex(DEDUP_TOL)
    level = np.array([_IDENTITY], dtype=complex)
    index.add_new(level.view(float))
    words: list[tuple[tuple[int, int], ...]] = [()]
    blocks = [level]
    last = np.array([-1])  # last letter of each element of the level
    for length in range(1, radius + 1):
        if not len(level):
            break  # the previous level added nothing, so the ball is complete
        first = len(words)  # position of the level's first element
        level_blocks, last_blocks = [], []
        for start in range(0, len(level), _BLOCK):
            parent, letter = np.nonzero(last[start:start + _BLOCK, None] != undo)
            parent += start
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
                cand = _sign_fixed_rows(_products(level[parent], alphabet[letter]))
                new = index.add_new(cand.view(float))
            if len(words) + int(new.sum()) > BALL_CAP:
                raise BallTooLarge(
                    f"group ball exceeds cap of {BALL_CAP} elements at radius {radius}"
                )
            if len(new) < len(cand):
                raise ValueError(f"coefficient overflow at word length {length}")
            parent, letter = parent[new] + (first - len(level)), letter[new]
            words.extend([words[k] + names[l] for k, l in zip(parent.tolist(), letter.tolist())])
            level_blocks.append(cand[new])
            last_blocks.append(letter)
        level = np.concatenate(level_blocks)
        last = np.concatenate(last_blocks)
        blocks.append(level)

    return GroupBall(generators, radius, tuple(words), _frozen(np.concatenate(blocks)))


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
