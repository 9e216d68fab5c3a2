"""Correctness gate: check records from ``workloads.record`` against oracles.

Every check returns a list of error strings (empty when the record
passes).  The pipeline workload compares against ``reference.json``, which
was recorded from the seed code and keeps its known defects visible: the
zero at -2.5654+0.6360i carries index 0 and the designed zero at 2+3i is
missing.  The batch workloads check invariants that hold for any seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def check_equivariance(rec: dict, ref: dict, tol: dict) -> list[str]:
    errors = []
    if rec["ball_sizes"] != ref["ball_sizes"]:
        errors.append(f"ball sizes {rec['ball_sizes']} != {ref['ball_sizes']}")
    for radius, per_gen in ref["medians"].items():
        for gen, expected in per_gen.items():
            got = rec["medians"].get(radius, {}).get(gen)
            if got is None or not _close(got, expected, tol["equivariance_median_rel"]):
                errors.append(f"median residual r={radius} {gen}: {got} != {expected}")
    if rec["points_skipped"] != ref["points_skipped"]:
        errors.append(f"skipped sample points {rec['points_skipped']} != {ref['points_skipped']}")
    return errors


def check_demo(rec: dict, ref: dict, tol: dict) -> list[str]:
    errors = check_equivariance(rec, ref, tol)
    if len(rec["zeros"]) != len(ref["zeros"]):
        errors.append(f"{len(rec['zeros'])} zeros found, reference has {len(ref['zeros'])}")
    else:
        for (x, y, index), (rx, ry, rindex) in zip(rec["zeros"], ref["zeros"]):
            if abs(complex(x, y) - complex(rx, ry)) > tol["zero_location_abs"] or index != rindex:
                errors.append(f"zero ({x}, {y}) index {index} != reference "
                              f"({rx}, {ry}) index {rindex}")
    for key in ("dropped", "audit_total", "audit_ok"):
        if rec[key] != ref[key]:
            errors.append(f"{key} {rec[key]} != {ref[key]}")
    return errors


def check_connected_sum(rec: dict) -> list[str]:
    total = sum(rec["tube_indices"])
    if rec["boundary_winding"] != total:
        return [f"boundary winding {rec['boundary_winding']} != sum of tube-zero indices {total}"]
    return []


def check_integrate(rec: dict, tol: dict) -> list[str]:
    errors = []
    if not rec["energy_drift"] < tol["energy_drift"]:
        errors.append(f"pendulum energy drift {rec['energy_drift']:.3g}")
    if rec["termination"] != "time-limit" or not math.isclose(rec["end_time"], rec["t_end"]):
        errors.append(f"trajectory stopped early ({rec['termination']} at {rec['end_time']})")
    return errors


def check_rectify(rec: dict, tol: dict) -> list[str]:
    if not rec["residual"] < tol["rectify_residual"]:
        return [f"flow-box residual {rec['residual']:.3g}"]
    return []


def check_covariance(rec: dict, tol: dict) -> list[str]:
    if not rec["defect"] < tol["covariance"]:
        return [f"covariance defect {rec['defect']:.3g} under a real scaling"]
    return []


def sympy_h1(presentation) -> tuple[int, list[int]]:
    """Rank and torsion of the group presented by an integer square matrix."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(presentation), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    return diag.count(0), sorted(d for d in diag if d > 1)


def check_h1(rec: dict, expected: tuple[int, list[int]]) -> list[str]:
    rank, torsion = expected
    if rec["rank"] != rank or rec["torsion"] != torsion:
        return [f"H1 rank {rec['rank']} torsion {rec['torsion']} != "
                f"Smith normal form rank {rank} torsion {torsion}"]
    return []


class Gate:
    """Checks the records of one run; sympy results are cached per matrix."""

    def __init__(self):
        self.reference = load_reference()
        self.tol = self.reference["tolerances"]
        self._h1_cache: dict = {}

    def check(self, kind: str, rec: dict) -> list[str]:
        if kind == "demo-genus2":
            return check_demo(rec, self.reference[kind], self.tol)
        if kind == "connected-sum":
            return check_connected_sum(rec)
        if kind == "integrate":
            return check_integrate(rec, self.tol)
        if kind == "rectify":
            return check_rectify(rec, self.tol)
        if kind == "covariance":
            return check_covariance(rec, self.tol)
        if kind == "twist-h1":
            key = tuple(map(tuple, rec["presentation"]))
            if key not in self._h1_cache:
                self._h1_cache[key] = sympy_h1(rec["presentation"])
            return check_h1(rec, self._h1_cache[key])
        raise ValueError(f"unknown operation {kind!r}")
