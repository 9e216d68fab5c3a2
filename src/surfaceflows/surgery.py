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

from .errors import (
    BlendDegenerate,
    DiscContainsZero,
    MissingEquilibrium,
    NearPole,
    NotInverse,
    PlanMismatch,
    ZeroOnContour,
)
from .flowlab import ZeroScan, find_zeros, sector_index, winding_index

# Specs for equilibria created by a gluing.  A centre (no sectors at all,
# closed orbits only) is the minimal structure with index +1; a four-sector
# saddle is the minimal one with index -1.
ELLIPTIC_SPEC_SECTORS = (0, 0)
HYPERBOLIC_SPEC_SECTORS = (0, 4)

# Zero-scan resolution of the numeric connected sum's tube chart; the disc
# clearance scans use half of it.
TUBE_GRID = 64


@dataclass(frozen=True)
class EquilibriumSpec:
    """Sector-structured equilibrium: n_e elliptic and n_h hyperbolic sectors."""

    n_e: int
    n_h: int

    def __post_init__(self):
        if self.n_e < 0 or self.n_h < 0 or self.n_e != int(self.n_e) or self.n_h != int(self.n_h):
            raise ValueError("sector counts must be nonnegative integers")
        object.__setattr__(self, "n_e", int(self.n_e))
        object.__setattr__(self, "n_h", int(self.n_h))

    @property
    def index(self) -> Fraction:
        return sector_index(self.n_e, self.n_h)

    def dual(self) -> "EquilibriumSpec":
        """Sector-swapped partner; indices of a spec and its dual sum to 2."""
        return EquilibriumSpec(self.n_h, self.n_e)

    def to_dict(self) -> dict:
        return {"n_e": self.n_e, "n_h": self.n_h, "index": str(self.index)}


def elliptic_spec() -> EquilibriumSpec:
    """Index +1 equilibrium carrying cycles only (a centre)."""
    return EquilibriumSpec(*ELLIPTIC_SPEC_SECTORS)


def hyperbolic_spec() -> EquilibriumSpec:
    return EquilibriumSpec(*HYPERBOLIC_SPEC_SECTORS)


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

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "orientable": self.orientable,
            "equilibria": [e.to_dict() for e in self.equilibria],
        }


@dataclass(frozen=True)
class InventoryReport:
    total: Fraction
    chi: int
    ok: bool
    table: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "index_sum": str(self.total),
            "chi": self.chi,
            "ok": self.ok,
            "equilibria": list(self.table),
        }


def verify_inventory(inv: SurfaceInventory) -> InventoryReport:
    """Index-sum audit of one inventory against its Euler characteristic."""
    table = tuple(e.to_dict() for e in inv.equilibria)
    return InventoryReport(total=inv.index_sum, chi=inv.chi, ok=inv.balanced, table=table)


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
    new equilibria), the remaining sectors glue to their duals.
    """

    mode: SumMode
    removed1: EquilibriumSpec | None = None
    removed2: EquilibriumSpec | None = None
    n11: int = 0
    n21: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", SumMode(self.mode))
        if self.n11 < 0 or self.n21 < 0:
            raise PlanMismatch("split counts must be nonnegative")
        if self.mode is SumMode.NO_EQUILIBRIA:
            if self.removed1 is not None or self.removed2 is not None:
                raise PlanMismatch("NoEquilibria mode removes nothing")
            if self.n11 or self.n21:
                raise PlanMismatch("split counts apply to Split mode only")
        else:
            if self.removed1 is None or self.removed2 is None:
                raise PlanMismatch(f"{self.mode.value} mode needs removed1 and removed2")
            if self.mode is not SumMode.SPLIT and (self.n11 or self.n21):
                raise PlanMismatch("split counts apply to Split mode only")
            if self.mode is SumMode.SPLIT:
                if self.n11 > self.removed1.n_e or self.n21 > self.removed1.n_h:
                    raise PlanMismatch("split counts exceed removed1's sectors")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "removed1": self.removed1.to_dict() if self.removed1 else None,
            "removed2": self.removed2.to_dict() if self.removed2 else None,
            "n11": self.n11,
            "n21": self.n21,
        }


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
    added: list[EquilibriumSpec] = []

    if plan.mode is SumMode.NO_EQUILIBRIA:
        added = [hyperbolic_spec(), hyperbolic_spec()]
    elif plan.mode is SumMode.DUAL:
        if plan.removed2 != plan.removed1.dual():
            raise PlanMismatch(
                f"Dual mode requires removed2 = ({plan.removed1.n_h}, {plan.removed1.n_e}), "
                f"got ({plan.removed2.n_e}, {plan.removed2.n_h})"
            )
        _remove_one(kept1, plan.removed1, "inv1")
        _remove_one(kept2, plan.removed2, "inv2")
    elif plan.mode is SumMode.SAME_STRUCTURE:
        if plan.removed2 != plan.removed1:
            raise PlanMismatch("SameStructure mode requires equal removed specs")
        _remove_one(kept1, plan.removed1, "inv1")
        _remove_one(kept2, plan.removed2, "inv2")
        added = [elliptic_spec()] * plan.removed1.n_e + [hyperbolic_spec()] * plan.removed1.n_h
    elif plan.mode is SumMode.SPLIT:
        n12 = plan.removed1.n_e - plan.n11
        n22 = plan.removed1.n_h - plan.n21
        required = EquilibriumSpec(plan.n11 + n22, plan.n21 + n12)
        if plan.removed2 != required:
            raise PlanMismatch(
                f"Split mode requires removed2 = ({required.n_e}, {required.n_h}), "
                f"got ({plan.removed2.n_e}, {plan.removed2.n_h})"
            )
        _remove_one(kept1, plan.removed1, "inv1")
        _remove_one(kept2, plan.removed2, "inv2")
        added = [elliptic_spec()] * plan.n11 + [hyperbolic_spec()] * plan.n21
    else:  # pragma: no cover
        raise PlanMismatch(f"unknown mode {plan.mode}")

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


def _smoothstep(t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True, eq=False)
class ConnectedSumChart:
    """Composite chart around disc1 with the far side pulled through the tube."""

    field: object               # callable complex -> complex
    center: complex
    disc_radius: float
    r_inner: float
    r_outer: float
    swap_map: object            # callable: chart-1 annulus -> chart-2 annulus
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


def _check_disc_clear(field, center: complex, radius: float, which: str):
    box = (center.real - 1.5 * radius, center.real + 1.5 * radius,
           center.imag - 1.5 * radius, center.imag + 1.5 * radius)
    scan = find_zeros(field, box, TUBE_GRID // 2)
    for record in scan:
        if abs(record.location - center) <= radius:
            raise DiscContainsZero(
                f"{which} contains a zero at "
                f"({record.location.real:.6g}, {record.location.imag:.6g})"
            )


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
    winding (outer circle minus inner circle).
    """
    c1, r1 = complex(disc1[0]), float(disc1[1])
    c2, r2 = complex(disc2[0]), float(disc2[1])
    if r1 <= 0 or r2 <= 0:
        raise ValueError("disc radii must be positive")

    _check_disc_clear(field1, c1, r1, "disc1")
    _check_disc_clear(field2, c2, r2, "disc2")

    k = r1 * r2
    half = 0.5 * tube.width

    def swap(z: complex) -> complex:
        return c2 + k / (z - c1).conjugate()

    def pulled_back(z: complex) -> complex:
        zeta = z - c1
        if abs(zeta) < 1e-9 * r1:
            # compactification point of the far chart; nothing to evaluate
            raise NearPole("pullback evaluated at the disc centre")
        w = swap(z)
        return -field2(w).conjugate() * zeta * zeta / k

    def composite(z: complex) -> complex:
        rho = abs(z - c1) / r1
        if rho >= 1.0 + half:
            return field1(z)
        if rho <= 1.0 - half:
            return pulled_back(z)
        beta = _smoothstep((rho - (1.0 - half)) / tube.width)
        return (1.0 - beta) * pulled_back(z) + beta * field1(z)

    r_inner = (1.0 - tube.width) * r1
    r_outer = (1.0 + tube.width) * r1
    span = r_outer * 1.02
    box = (c1.real - span, c1.real + span, c1.imag - span, c1.imag + span)
    scan = find_zeros(composite, box, TUBE_GRID)
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
        swap_map=swap,
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
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if sum(self.indices) != 0:
            raise ValueError("three-dimensional index sum must be zero")
        if self.marker not in ("none", "circle-of-equilibria", "limit-cycle"):
            raise ValueError(f"unknown marker {self.marker!r}")

    def to_dict(self) -> dict:
        return {"indices": list(self.indices), "marker": self.marker}


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

    ia, ib = int(removed[0]), int(removed[1])
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
