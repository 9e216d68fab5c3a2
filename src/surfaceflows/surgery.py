"""Connected-sum calculus for surface systems.

The symbolic half transforms equilibrium inventories: removing discs from
two surfaces and gluing the boundaries costs two units of Euler
characteristic, and each gluing mode prescribes exactly which equilibria
disappear and which appear.  Indices are kept as exact rationals
throughout, so every audit is an equality, not a tolerance check.

The numeric half builds one concrete chart in which two planar fields are
joined across an annular tube (an inversion identifies the disc
neighbourhoods, a radial bump blends the fields) and lets the zero finder
report what the gluing actually created.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BlendDegenerate,
    DiscContainsZero,
    MissingEquilibrium,
    NearPole,
    NotInverse,
    PlanMismatch,
    ZeroOnContour,
)
from .flowlab import (
    ZeroScan,
    _finite_point,
    exact_int,
    find_zeros,
    locate_zeros,
    sector_index,
    winding_index,
)

# Zero-scan resolution of the numeric connected sum's tube chart; the disc
# clearance scans use half of it.
TUBE_GRID = 64


@dataclass(frozen=True)
class EquilibriumSpec:
    """Sector-structured equilibrium: n_e elliptic and n_h hyperbolic sectors."""

    n_e: int
    n_h: int

    def __post_init__(self):
        n_e, n_h = exact_int(self.n_e, "n_e"), exact_int(self.n_h, "n_h")
        if n_e < 0 or n_h < 0:
            raise ValueError("sector counts must be nonnegative integers")
        object.__setattr__(self, "n_e", n_e)
        object.__setattr__(self, "n_h", n_h)

    @property
    def index(self) -> Fraction:
        return sector_index(self.n_e, self.n_h)

    def dual(self) -> "EquilibriumSpec":
        """Sector-swapped partner; indices of a spec and its dual sum to 2."""
        return EquilibriumSpec(self.n_h, self.n_e)


def elliptic_spec() -> EquilibriumSpec:
    """Index +1 equilibrium carrying cycles only (a centre): no sectors at
    all, the minimal structure with index +1 a gluing creates."""
    return EquilibriumSpec(0, 0)


def hyperbolic_spec() -> EquilibriumSpec:
    """Index -1 equilibrium with four hyperbolic sectors (a saddle), the
    minimal structure with index -1 a gluing creates."""
    return EquilibriumSpec(0, 4)


@dataclass(frozen=True)
class SurfaceInventory:
    """Per-surface equilibrium ledger.

    ``genus`` counts handles when orientable and crosscaps otherwise, so
    chi is 2 - 2g or 2 - g respectively.
    """

    genus: int
    orientable: bool
    equilibria: tuple[EquilibriumSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "genus", exact_int(self.genus, "genus"))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if not self.orientable and self.genus == 0:
            raise ValueError("a nonorientable surface needs at least one crosscap")
        object.__setattr__(self, "equilibria", tuple(self.equilibria))

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def index_sum(self) -> Fraction:
        return sum((e.index for e in self.equilibria), Fraction(0))

    @property
    def balanced(self) -> bool:
        return self.index_sum == self.chi


class SumMode(str, enum.Enum):
    NO_EQUILIBRIA = "NoEquilibria"
    DUAL = "Dual"
    SAME_STRUCTURE = "SameStructure"
    SPLIT = "Split"


@dataclass(frozen=True)
class SumPlan:
    """How the two removed discs meet: which equilibria go, how sectors pair up.

    Split mode divides removed1's sectors: n11 elliptic and n21 hyperbolic
    sectors match like-with-like on the second surface (and regenerate as
    new equilibria), the remaining sectors glue to their duals.  Dual is
    Split with (n11, n21) = (0, 0), SameStructure Split with (n_e, n_h).
    """

    mode: SumMode
    removed1: EquilibriumSpec | None = None
    removed2: EquilibriumSpec | None = None
    n11: int = 0
    n21: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", SumMode(self.mode))
        object.__setattr__(self, "n11", exact_int(self.n11, "n11"))
        object.__setattr__(self, "n21", exact_int(self.n21, "n21"))
        if self.n11 < 0 or self.n21 < 0:
            raise PlanMismatch("split counts must be nonnegative")
        if self.mode is not SumMode.SPLIT and (self.n11 or self.n21):
            raise PlanMismatch("split counts apply to Split mode only")
        if self.mode is SumMode.NO_EQUILIBRIA:
            if self.removed1 is not None or self.removed2 is not None:
                raise PlanMismatch("NoEquilibria mode removes nothing")
        elif self.removed1 is None or self.removed2 is None:
            raise PlanMismatch(f"{self.mode.value} mode needs removed1 and removed2")
        elif self.mode is SumMode.SPLIT and (
                self.n11 > self.removed1.n_e or self.n21 > self.removed1.n_h):
            raise PlanMismatch("split counts exceed removed1's sectors")


def _remove_one(equilibria: list[EquilibriumSpec], spec: EquilibriumSpec, which: str):
    try:
        equilibria.remove(spec)
    except ValueError:
        raise MissingEquilibrium(
            f"{which} has no equilibrium with sectors ({spec.n_e}, {spec.n_h})"
        ) from None


def _summed_genus(inv1: SurfaceInventory, inv2: SurfaceInventory) -> tuple[int, bool]:
    # Crosscap arithmetic: an orientable summand contributes two crosscaps
    # per handle once any nonorientable piece is involved.
    if inv1.orientable and inv2.orientable:
        return inv1.genus + inv2.genus, True
    cross1 = 2 * inv1.genus if inv1.orientable else inv1.genus
    cross2 = 2 * inv2.genus if inv2.orientable else inv2.genus
    return cross1 + cross2, False


def connect_inventories(
    inv1: SurfaceInventory, inv2: SurfaceInventory, plan: SumPlan
) -> SurfaceInventory:
    """Inventory of the connected sum under the given plan.

    The result always satisfies the index-sum identity for
    chi = chi1 + chi2 - 2; each mode's removals/additions are arranged so
    that the identity is an exact rational equality.
    """
    for name, inv in (("inv1", inv1), ("inv2", inv2)):
        if not inv.balanced:
            raise ValueError(f"{name} violates its index-sum invariant "
                             f"({inv.index_sum} != {inv.chi})")

    kept1 = list(inv1.equilibria)
    kept2 = list(inv2.equilibria)

    if plan.mode is SumMode.NO_EQUILIBRIA:
        added = [hyperbolic_spec(), hyperbolic_spec()]
    else:
        n11, n21 = {
            SumMode.DUAL: (0, 0),
            SumMode.SAME_STRUCTURE: (plan.removed1.n_e, plan.removed1.n_h),
        }.get(plan.mode, (plan.n11, plan.n21))
        required = EquilibriumSpec(
            n11 + plan.removed1.n_h - n21, n21 + plan.removed1.n_e - n11
        )
        if plan.removed2 != required:
            raise PlanMismatch(
                f"{plan.mode.value} mode requires removed2 = ({required.n_e}, {required.n_h}), "
                f"got ({plan.removed2.n_e}, {plan.removed2.n_h})"
            )
        _remove_one(kept1, plan.removed1, "inv1")
        _remove_one(kept2, plan.removed2, "inv2")
        added = [elliptic_spec()] * n11 + [hyperbolic_spec()] * n21

    genus, orientable = _summed_genus(inv1, inv2)
    result = SurfaceInventory(
        genus=genus, orientable=orientable, equilibria=tuple(kept1 + kept2 + added)
    )
    target = inv1.chi + inv2.chi - 2
    if result.chi != target or result.index_sum != target:
        raise AssertionError(
            f"bookkeeping failure: chi {result.chi}, index sum {result.index_sum}, "
            f"target {target}"
        )
    return result


# ---------------------------------------------------------------------------
# numeric gluing


@dataclass(frozen=True)
class TubeBlend:
    """Blend parameters for the numeric connected sum.

    ``width`` is the radial half-extent of the tube annulus relative to
    disc1's radius; the field crossfade happens over the middle half of
    it.  The blend itself is a once-differentiable cubic ramp.
    """

    width: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.width <= 0.6):
            raise ValueError("width must lie in (0, 0.6]")


def _ramp(t):
    """The blend's cubic ramp at t in [0, 1], a float or an array."""
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True, eq=False)
class ConnectedSumChart:
    """Composite chart around disc1 with the far side pulled through the tube."""

    field: object               # callable complex -> complex
    center: complex
    disc_radius: float
    r_inner: float
    r_outer: float
    zeros: ZeroScan
    boundary_winding: int
    blend: TubeBlend

    def to_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "disc_radius": self.disc_radius,
            "tube": {"r_inner": self.r_inner, "r_outer": self.r_outer,
                     "width": self.blend.width},
            "tube_zeros": [z.to_dict() for z in self.zeros],
            "dropped_candidates": list(self.zeros.dropped),
            "boundary_winding": self.boundary_winding,
        }


def _disc(disc, which: str) -> tuple[complex, float]:
    """``disc`` as (centre, radius), or ValueError naming ``which`` unless
    the centre is finite and the radius positive and finite."""
    center, radius = _finite_point(disc[0], f"{which} centre"), float(disc[1])
    if not 0 < radius < math.inf:
        raise ValueError(f"{which} radius must be positive and finite")
    return center, radius


def _check_disc_clear(field, center: complex, radius: float, which: str):
    """Raise DiscContainsZero for a zero that ``locate_zeros`` finds in the
    closed disc.  Only its location matters, so no winding index is taken,
    and a zero whose index could not be computed is found all the same."""
    box = (center.real - 1.5 * radius, center.real + 1.5 * radius,
           center.imag - 1.5 * radius, center.imag + 1.5 * radius)
    zeros, _ = locate_zeros(field, box, TUBE_GRID // 2, annulus=(center, 0.0, radius))
    if zeros:
        z = zeros[0]
        raise DiscContainsZero(f"{which} contains a zero at ({z.real:.6g}, {z.imag:.6g})")


def numeric_connected_sum(
    field1,
    disc1: tuple[complex, float],
    field2,
    disc2: tuple[complex, float],
    tube: TubeBlend = TubeBlend(),
) -> ConnectedSumChart:
    """Join two planar fields across an annular tube and audit the tube zeros.

    The disc neighbourhoods are identified by the inversion
    w = c2 + (r1 r2) / conj(z - c1), which reverses orientation and swaps
    inside with outside; field2 is pulled back through it and crossfaded
    into field1 across the transition zone.  The returned chart carries the
    zeros found strictly inside the tube annulus and the total boundary
    winding (outer circle minus inner circle).  When both fields carry
    ``on_array``, so does the composite.  With rho = |z - c1| / r1, an array
    whose every point has rho >= 1 + width / 2 (such as the outer tube
    circle) evaluates field1 alone, one whose every point has rho <= 1 -
    width / 2 (the inner circle) the pulled-back field2 alone, and any other
    array both fields; a point gets the same value in any array.  A disc
    whose centre is not finite or whose radius is not positive and finite
    raises ValueError naming it, ``disc1`` or ``disc2``.
    """
    c1, r1 = _disc(disc1, "disc1")
    c2, r2 = _disc(disc2, "disc2")
    _check_disc_clear(field1, c1, r1, "disc1")
    _check_disc_clear(field2, c2, r2, "disc2")

    k = r1 * r2
    half = 0.5 * tube.width

    def pulled_back(f2, zeta):
        # f2 at the swapped point w = c2 + k / conj(zeta), pulled back to z = c1 + zeta
        return -f2(c2 + k / zeta.conjugate()).conjugate() * zeta * zeta / k

    def composite(z: complex) -> complex:
        zeta = z - c1
        rho = abs(zeta) / r1
        if rho >= 1.0 + half:
            return field1(z)
        if rho <= 1.0 - half:
            if abs(zeta) < 1e-9 * r1:
                # compactification point of the far chart; nothing to evaluate
                raise NearPole("pullback evaluated at the disc centre")
            return pulled_back(field2, zeta)
        # in the band rho - (1 - half) is exact, positive and short of width: t is in (0, 1)
        beta = _ramp((rho - (1.0 - half)) / tube.width)
        return (1.0 - beta) * pulled_back(field2, zeta) + beta * field1(z)

    def composite_array(z: np.ndarray) -> np.ndarray:
        zeta = z - c1
        size = np.hypot(zeta.real, zeta.imag)  # abs(zeta) bit for bit, unlike np.abs
        rho = size / r1
        # the scalar form's branches, tested in its order; a one-sided array
        # (a tube boundary circle) evaluates its side only
        if (rho >= 1.0 + half).all():
            return field1.on_array(z)
        with np.errstate(divide="ignore", invalid="ignore"):  # the disc centre swaps to infinity
            far = pulled_back(field2.on_array, zeta)
        far[size < 1e-9 * r1] = np.nan  # where the scalar form raises NearPole
        if (rho <= 1.0 - half).all():
            return far
        near = field1.on_array(z)
        beta = _ramp(np.minimum(np.maximum((rho - (1.0 - half)) / tube.width, 0.0), 1.0))
        band = (1.0 - beta) * far + beta * near
        return np.where(rho >= 1.0 + half, near, np.where(rho <= 1.0 - half, far, band))

    if all(getattr(f, "on_array", None) is not None for f in (field1, field2)):
        composite.on_array = composite_array

    r_inner = (1.0 - tube.width) * r1
    r_outer = (1.0 + tube.width) * r1
    span = r_outer * 1.02
    box = (c1.real - span, c1.real + span, c1.imag - span, c1.imag + span)
    scan = find_zeros(composite, box, TUBE_GRID, annulus=(c1, r_inner, r_outer))
    in_tube = [z for z in scan if r_inner < abs(z.location - c1) < r_outer]
    tube_scan = ZeroScan(zeros=in_tube, dropped=scan.dropped)

    try:
        w_out = winding_index(composite, c1, r_outer)
        w_in = winding_index(composite, c1, r_inner)
    except ZeroOnContour as exc:
        raise BlendDegenerate(f"field vanishes on the tube boundary: {exc}") from exc
    boundary = w_out - w_in

    return ConnectedSumChart(
        field=composite,
        center=c1,
        disc_radius=r1,
        r_inner=r_inner,
        r_outer=r_outer,
        zeros=tube_scan,
        boundary_winding=boundary,
        blend=tube,
    )


# ---------------------------------------------------------------------------
# three-dimensional sums


@dataclass(frozen=True)
class Sum3Inventory:
    """Equilibrium indices of a closed-3-manifold system; they must cancel.

    ``marker`` records a non-point singular feature created by a gluing:
    a circle of equilibria or a limit cycle threading the sum tube.
    """

    indices: tuple[int, ...] = ()
    marker: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(exact_int(i, "index") for i in self.indices))
        if sum(self.indices) != 0:
            raise ValueError("three-dimensional index sum must be zero")
        if self.marker not in ("none", "circle-of-equilibria", "limit-cycle"):
            raise ValueError(f"unknown marker {self.marker!r}")


def sum3_check(
    a: Sum3Inventory,
    b: Sum3Inventory,
    removed: tuple[int, int] | None = None,
    twist: bool = False,
) -> Sum3Inventory:
    """Index bookkeeping for a connected sum of two 3-manifold systems.

    With ``removed`` None the excised cells contain no equilibria: the
    identified boundary spheres carry a circular singular set, resolved as
    a circle of equilibria or (with ``twist``) a limit cycle.  Otherwise
    ``removed`` names one index from each inventory; they must be
    inverse to each other, and the result drops exactly that pair.
    """
    if removed is None:
        marker = "limit-cycle" if twist else "circle-of-equilibria"
        return Sum3Inventory(indices=a.indices + b.indices, marker=marker)

    ia, ib = exact_int(removed[0], "removed index"), exact_int(removed[1], "removed index")
    if ia + ib != 0:
        raise NotInverse(f"removed indices {ia} and {ib} do not cancel")
    rest_a = list(a.indices)
    rest_b = list(b.indices)
    if ia not in rest_a:
        raise MissingEquilibrium(f"first inventory has no equilibrium of index {ia}")
    if ib not in rest_b:
        raise MissingEquilibrium(f"second inventory has no equilibrium of index {ib}")
    rest_a.remove(ia)
    rest_b.remove(ib)
    return Sum3Inventory(indices=tuple(rest_a + rest_b), marker="none")
