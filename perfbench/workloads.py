"""The benchmark workloads: seeded inputs, one operation, its check record.

A workload is a list of operations made by ``make_inputs(name, seed)``.
One pass runs every operation once.  The pipeline workload is a single
fixed operation (one pass is one operation), so its seed changes nothing;
the two batch workloads draw every parameter from the seed.

Operations call the library through module attributes (``flowlab.find_zeros``
rather than an imported name), so the traced run can swap in recording
wrappers without any edit to the library.  ``wrap`` is applied to every
field callable an operation hands to the library; it is the identity in
untraced runs and a counting wrapper in traced ones.

``record(op, output)`` turns an operation's output into a small plain
record for the oracles in ``oracles.py``; it runs outside the timed region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from surfaceflows import autovec, flowlab, heegaard, surgery
from surfaceflows.moebius import MoebiusMap

# Genus-two demo system: three det-1 maps plus one affine scaling, and the
# two seed poles its field is built from (the same data as tests/conftest.py).
GENUS2_GENERATORS = (
    MoebiusMap(-2, -13, 1, 6),
    MoebiusMap(0, -1, 1, 4),
    MoebiusMap(6, -13, 1, -2),
    MoebiusMap(7, -28, 0, 1),
)
NUMERATOR_POLE = -2 + 3j
DENOMINATOR_POLE = 2 + 3j
DEMO_WINDOW = (-3.0, 3.0, 0.3, 4.0)
DEMO_GRID = 64
GENUS2_CHI = -2

# planar-flows: operations per batch, by kind.  The mix puts the median
# latency inside the rectify band and the 90th percentile inside the
# connected-sum band, so neither percentile sits on the edge between two
# kinds (where a seed-to-seed shift in the mix would make it jump).
PLANAR_MIX = {"connected-sum": 20, "rectify": 50, "integrate": 15, "covariance": 15}
PLANAR_KINDS = ("saddle", "node", "center", "dipole")
LINEAR_KINDS = ("saddle", "node", "center")

# twist-h1: words per genus, and the letter count range of one word.
TWIST_GENERA = (3, 4, 5, 6)
TWIST_WORDS_PER_GENUS = 25
TWIST_LETTERS = (10, 60)
_TWIST_POWERS = (1, 1, 1, -1, -1, 2, -2, 3, -3)


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


def identity(field):
    return field


# ---------------------------------------------------------------------------
# inputs


def make_inputs(name: str, seed: int) -> list[Op]:
    if name == "demo-genus2":
        return [Op("demo-genus2", {})]
    if name == "planar-flows":
        return planar_ops(random.Random(seed))
    if name == "twist-h1":
        return twist_ops(random.Random(seed))
    raise ValueError(f"unknown workload {name!r}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one in each of n equal strata, in random order.

    Stratified draws keep the spread of operation costs, and with it the
    latency percentiles, nearly the same from one seed to the next.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _disc(rng: random.Random, r: float) -> tuple[complex, float]:
    # Every canonical field vanishes at the origin only; keeping the disc
    # centre at least 2r + 0.5 away leaves the whole tube (outer radius
    # below 1.5 r) clear of that zero.
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dist = rng.uniform(2.0 * r + 0.5, 2.0 * r + 1.5)
    return (complex(dist * math.cos(angle), dist * math.sin(angle)), r)


def planar_ops(rng: random.Random) -> list[Op]:
    ops = []
    n = PLANAR_MIX["connected-sum"]
    for i, (r1, r2, width) in enumerate(zip(
            _strata(rng, n, 0.3, 0.8), _strata(rng, n, 0.3, 0.8), _strata(rng, n, 0.15, 0.45))):
        # each kind appears equally often on either side of the sum
        ops.append(Op("connected-sum", {
            "field1": autovec.canonical_field(PLANAR_KINDS[i % 4]),
            "disc1": _disc(rng, r1),
            "field2": autovec.canonical_field(PLANAR_KINDS[(i + i // 4) % 4]),
            "disc2": _disc(rng, r2),
            "tube": surgery.TubeBlend(width=width),
        }))
    n = PLANAR_MIX["integrate"]
    for k, theta, omega, t_end in zip(_strata(rng, n, 0.5, 2.0), _strata(rng, n, -2.0, 2.0),
                                      _strata(rng, n, -1.0, 1.0), _strata(rng, n, 2.0, 4.0)):
        ops.append(Op("integrate", {
            "field": autovec.pendulum_field(k), "k": k, "z0": complex(theta, omega),
            "t_end": t_end,
        }))
    n = PLANAR_MIX["rectify"]
    for k, theta, speed in zip(_strata(rng, n, 0.5, 2.0), _strata(rng, n, -2.0, 2.0),
                               _strata(rng, n, 0.6, 1.5)):
        # regular points: the pendulum's equilibria sit on omega = 0
        omega = rng.choice((-1.0, 1.0)) * speed
        ops.append(Op("rectify", {
            "field": autovec.pendulum_field(k), "p": complex(theta, omega), "box": 0.1,
        }))
    n = PLANAR_MIX["covariance"]
    for i, (lam, x, y, t_end) in enumerate(zip(
            _strata(rng, n, 0.5, 2.0), _strata(rng, n, -1.0, 1.0), _strata(rng, n, -1.0, 1.0),
            _strata(rng, n, 0.5, 1.5))):
        # a linear field commutes with the real scaling z -> lam z
        ops.append(Op("covariance", {
            "field": autovec.canonical_field(LINEAR_KINDS[i % 3]),
            "m": MoebiusMap(lam, 0.0, 0.0, 1.0), "z0": complex(x, y), "t_end": t_end,
        }))
    rng.shuffle(ops)
    return ops


def twist_word(rng: random.Random, genus: int, target: int) -> str:
    """Twist-word text of ``target`` letters over the standard curves,
    with some ``^k`` powers."""
    curves = ([f"a{i}" for i in range(1, genus + 1)] + [f"b{i}" for i in range(1, genus + 1)]
              + [f"g{i}" for i in range(1, genus)])
    tokens = []
    letters = 0
    while letters < target:
        curve = rng.choice(curves)
        power = rng.choice(_TWIST_POWERS)
        power = int(math.copysign(min(abs(power), target - letters), power))
        tokens.append(curve if power == 1 else f"{curve}^{power}")
        letters += abs(power)
    return " ".join(tokens)


def twist_ops(rng: random.Random) -> list[Op]:
    lo, hi = TWIST_LETTERS
    ops = [Op("twist-h1", {"genus": g, "text": twist_word(rng, g, int(letters))})
           for g in TWIST_GENERA
           for letters in _strata(rng, TWIST_WORDS_PER_GENUS, lo, hi + 1)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# operations


def _no_cut():
    pass


def run_op(op: Op, wrap=identity, cut=_no_cut):
    """Runs one operation; ``cut`` is called between the stages of a pipeline."""
    p = op.params
    if op.kind == "demo-genus2":
        field = autovec.build_automorphic_field(
            GENUS2_GENERATORS, NUMERATOR_POLE, DENOMINATOR_POLE, truncation=4)
        cut()
        report = autovec.equivariance_report(
            GENUS2_GENERATORS, NUMERATOR_POLE, DENOMINATOR_POLE, truncation=4)
        cut()
        scan = flowlab.find_zeros(wrap(field), DEMO_WINDOW, DEMO_GRID)
        audit = flowlab.poincare_hopf_check(scan, GENUS2_CHI)
        return report, scan, audit
    if op.kind == "connected-sum":
        return surgery.numeric_connected_sum(
            wrap(p["field1"]), p["disc1"], wrap(p["field2"]), p["disc2"], p["tube"])
    if op.kind == "integrate":
        return flowlab.integrate(wrap(p["field"]), p["z0"], p["t_end"])
    if op.kind == "rectify":
        return flowlab.rectify(wrap(p["field"]), p["p"], p["box"])
    if op.kind == "covariance":
        return flowlab.covariance_check(wrap(p["field"]), p["m"], p["z0"], p["t_end"])
    if op.kind == "twist-h1":
        word = heegaard.parse_twist_word(p["text"])
        gluing = heegaard.compose_word(word, p["genus"])
        return word, gluing, heegaard.h1_from_gluing(gluing)
    raise ValueError(f"unknown operation {op.kind!r}")


# ---------------------------------------------------------------------------
# check records


def _equivariance_record(report: dict) -> dict:
    truncations = report["truncations"]
    sampled = used = 0
    for t in truncations.values():
        for g in t["per_generator"].values():
            sampled += len(report["sample_points"])
            used += g["points_used"]
    return {
        "ball_sizes": {r: t["ball_size"] for r, t in truncations.items()},
        "medians": {r: {g: v["median_residual"] for g, v in t["per_generator"].items()}
                    for r, t in truncations.items()},
        "points_sampled": sampled,
        "points_skipped": sampled - used,
    }


def pendulum_energy(k: float, z: complex) -> float:
    return 0.5 * z.imag * z.imag - k * math.cos(z.real)


def record(op: Op, output) -> dict:
    """Plain data the oracles check; ``kept``/``dropped`` feed drop_ratio."""
    p = op.params
    if op.kind == "demo-genus2":
        report, scan, audit = output
        rec = _equivariance_record(report)
        rec.update(
            zeros=[[z.location.real, z.location.imag, z.winding_index] for z in scan],
            kept=len(scan.zeros),
            dropped=len(scan.dropped),
            audit_total=audit.total,
            audit_ok=audit.ok,
        )
        return rec
    if op.kind == "connected-sum":
        return {
            "boundary_winding": output.boundary_winding,
            "tube_indices": [z.winding_index for z in output.zeros],
            "kept": len(output.zeros.zeros),
            "dropped": len(output.zeros.dropped),
        }
    if op.kind == "integrate":
        e0 = pendulum_energy(p["k"], output.points[0])
        return {
            "energy_drift": max(abs(pendulum_energy(p["k"], z) - e0) for z in output.points),
            "termination": output.termination,
            "end_time": output.end_time,
            "t_end": p["t_end"],
        }
    if op.kind == "rectify":
        return {"residual": output.residual}
    if op.kind == "covariance":
        return {"defect": output}
    if op.kind == "twist-h1":
        word, gluing, h1 = output
        g = p["genus"]
        return {
            "letters": len(word),
            "presentation": [[gluing.entries[2 * i][2 * j + 1] for j in range(g)]
                             for i in range(g)],
            "rank": h1.rank,
            "torsion": list(h1.torsion),
        }
    raise ValueError(f"unknown operation {op.kind!r}")
