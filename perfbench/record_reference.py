"""Writes reference.json, the outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

It runs the pipeline workload once and stores its check record,
with the tolerances every workload is checked to.  Re-record only in a
change that means to alter these outputs (for example one that finds the
designed zero at 2+3i), and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

TOLERANCES = {
    # numerical noise from reordered sums is ~1e-16 relative in the field,
    # far below these; a changed algorithm result is far above them
    "zero_location_abs": 1e-7,
    "equivariance_median_rel": 1e-6,
    "energy_drift": 1e-6,
    "covariance": 1e-6,
    "rectify_residual": 1e-3,
}


def main() -> None:
    reference = {"tolerances": TOLERANCES}
    (op,) = workloads.make_inputs("demo-genus2", 0)
    rec = workloads.record(op, workloads.run_op(op))
    rec.pop("kept")
    rec.pop("points_sampled")
    reference["demo-genus2"] = rec
    oracles.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
