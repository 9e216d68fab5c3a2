"""Digests of the benchmark's op records, one line per operation.

    python3 scripts/record_digests.py --workload all --seeds 1-40,7919

Each line is ``workload seed index kind sha256``, where the sha256 is that
of ``json.dumps(record, sort_keys=True)`` for the record
``perfbench/workloads.py`` makes of the operation's output.  Run it from
two checkouts and ``diff`` the outputs: equal lines mean bit-identical
records.  The operations run untraced, one at a time; the demo pipeline is
one operation whatever the seed, so it runs once per invocation and its
digest is printed on every requested seed's line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORKLOAD_NAMES = ("demo-genus2", "planar-flows", "twist-h1")


def parse_seeds(text: str) -> list[int]:
    """``1-40,7919`` -> [1, 2, ..., 40, 7919]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


@functools.cache
def op_digests(name: str, seed: int | None) -> list[tuple[str, str]]:
    """(kind, sha256) of each operation; ``seed`` None stands for any seed."""
    digests = []
    for op in workloads.make_inputs(name, 0 if seed is None else seed):
        text = json.dumps(workloads.record(op, workloads.run_op(op)), sort_keys=True)
        digests.append((op.kind, hashlib.sha256(text.encode()).hexdigest()))
    return digests


def digest_lines(name: str, seed: int):
    seeded = None if name == "demo-genus2" else seed
    for index, (kind, digest) in enumerate(op_digests(name, seeded)):
        yield f"{name} {seed} {index} {kind} {digest}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1", type=parse_seeds,
                        help="seeds and inclusive ranges, e.g. 1-40,7919")
    args = parser.parse_args()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seeds:
            for line in digest_lines(name, seed):
                print(line, flush=True)


if __name__ == "__main__":
    main()
