"""Benchmark of the surfaceflows library.

One workload, measured for a fixed time in this process:

    python3 perfbench/run.py --workload demo-genus2 --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  A
pass runs every operation of the workload once; passes repeat until
``--seconds`` have elapsed.  Speed probes run between segments of work (an
operation, or a part of a long one), and every segment's time is rescaled
to a fixed machine speed by the probe times around it (see speed.py).
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics (see tracing.py).
Outputs of every pass are checked outside the timed region (oracles.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader, with sample counts.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
WORKLOAD_NAMES = ("demo-genus2", "planar-flows", "twist-h1")

# Per workload: the speed probe (see speed.py), and the field evaluations
# per timed segment of an operation (0: each operation is one segment).
# Field evaluation dominates the demo pipeline; 256 of them take about
# 45 ms on a quiet machine.  The probes were chosen by measurement on a
# shared 2-core VM, as the spread of the scaled pass time over 30-s windows
# of a few minutes' trace: planar-flows 0.02 with the interpreter probe and
# 0.09 with interpreter and array work; twist-h1 0.05 with the interpreter
# probe, 0.02 with array work and 0.003 with integer matrix work.
TIMING = {
    "demo-genus2": ("ARRAYS", 256),
    "planar-flows": ("INTERPRETER", 0),
    "twist-h1": ("MATRICES", 0),
}

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(workload: str, seed: int) -> float:
    """Scaled seconds from starting a fresh interpreter until the workload's
    inputs are ready; interpreter speed probes run before and after it."""
    import speed

    # The probes and the child run on one CPU, so that the probes measure
    # the speed the child gets; the CPUs allowed before are restored after.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        probes = [speed.INTERPRETER.run() for _ in range(3)]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probes += [speed.INTERPRETER.run() for _ in range(3)]
    finally:
        os.sched_setaffinity(0, cpus)
    return speed.scaled(elapsed, probes, speed.INTERPRETER.ref_s)


class PassTimes(NamedTuple):
    seconds: list[float]  # measured seconds of each segment
    scaled: list[float]  # scaled seconds of each segment
    firsts: list[int]  # index of each operation's first segment


def run_pass(ops, wrap, probe, every: int = 0):
    """Runs each operation once; returns (PassTimes, outputs).

    An operation is one segment, or with ``every`` > 0 is cut into segments
    at its stages and at every ``every``-th evaluation of a field it hands
    to the library.  A speed probe runs before the first segment and after
    each one (see speed.scale_segments); it is not part of any segment.
    """
    from speed import SegmentedField, scale_segments
    from surfaceflows.errors import SurfaceFlowsError
    from workloads import run_op

    probes = [probe.run()]
    seconds: list[float] = []
    firsts: list[int] = []
    outputs = []
    start = 0.0

    def cut():
        nonlocal start
        seconds.append(time.perf_counter() - start)
        probes.append(probe.run())
        start = time.perf_counter()

    if every:
        wrap_op, cut_op = (lambda f: SegmentedField(wrap(f), cut, every)), cut
    else:
        wrap_op, cut_op = wrap, (lambda: None)
    for op in ops:
        firsts.append(len(seconds))
        start = time.perf_counter()
        try:
            out = run_op(op, wrap_op, cut_op)
        except SurfaceFlowsError as exc:
            out = exc
        cut()
        outputs.append(out)
    return PassTimes(seconds, scale_segments(seconds, probes, probe.ref_s), firsts), outputs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracles
    import speed
    import tracing
    import workloads

    ops = workloads.make_inputs(workload, seed)
    probe_name, every = TIMING[workload]
    probe = getattr(speed, probe_name)

    # scaled seconds of each segment over the untraced passes
    segment_runs: list[list[float]] = []
    firsts = None
    # measured seconds of each untraced (False) and traced (True) pass
    wall_s: dict[bool, list[float]] = {False: [], True: []}
    layer_runs: list[dict] = []
    first_records = None
    errors: list[str] = []
    attempted = failed = dropped = considered = 0
    setups: list[float] = []
    # Set-up probes are spread over the run, between passes, so that their
    # median sees the same machine conditions as the passes; the time they
    # take does not count towards ``seconds``.
    start = time.perf_counter()
    deadline = start + seconds
    traced_pass = False
    while True:
        while len(setups) < SETUP_PROBES and (
                time.perf_counter() >= start + seconds * len(setups) / SETUP_PROBES):
            t0 = time.perf_counter()
            setups.append(probe_setup(workload, seed))
            deadline += time.perf_counter() - t0
        gc.collect()
        if traced_pass:
            recorder = tracing.Recorder()
            with tracing.instrument(recorder):
                times, outputs = run_pass(
                    ops, lambda f: tracing.CountingField(f, recorder), probe)
            layer_runs.append(tracing.layer_metrics(recorder))
            errors += tracing.bypass_errors(workload, recorder)
            del recorder
        else:
            times, outputs = run_pass(ops, workloads.identity, probe, every)
            if firsts is None:
                firsts = times.firsts
                segment_runs = [[] for _ in times.scaled]
            if times.firsts != firsts or len(times.scaled) != len(segment_runs):
                errors.append("a pass was cut into other segments than the first pass")
            for values, t in zip(segment_runs, times.scaled):
                values.append(t)
        wall_s[traced_pass].append(sum(times.seconds))
        records = []
        for op, out in zip(ops, outputs):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                errors.append(f"{op.kind} raised {type(out).__name__}: {out}")
            else:
                rec = workloads.record(op, out)
                records.append((op.kind, rec))
                dropped += rec.get("dropped", 0) + rec.get("points_skipped", 0)
                considered += rec.get("kept", 0) + rec.get("dropped", 0) + rec.get(
                    "points_sampled", 0)
        del outputs
        # Only the first pass's records are kept for the oracles (so memory
        # does not grow with the number of passes); every later pass must
        # reproduce them exactly.
        if first_records is None:
            first_records = records
        elif records != first_records:
            errors.append("a pass's outputs differ from the first pass's")
        done = time.perf_counter() >= deadline
        if done and (not trace or wall_s[True]):
            break
        traced_pass = trace and not traced_pass
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = oracles.Gate()
    for kind, rec in first_records:
        errors += gate.check(kind, rec)

    # Each segment's time is the median of its scaled times over the run's
    # passes; an operation's time is the sum over its segments, and a
    # pass's time the sum over its operations.
    segment_s = [statistics.median(values) for values in segment_runs]
    bounds = firsts + [len(segment_s)]
    latencies = [sum(segment_s[a:b]) for a, b in zip(bounds, bounds[1:])]
    solve_s = sum(latencies)
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        # Traced passes are not cut into segments (probes inside a span would
        # add to its time), so the ratio compares measured pass times; the
        # passes alternate, so both medians see the same machine.
        metrics["trace.overhead_ratio"] = (
            statistics.median(wall_s[True]) / statistics.median(wall_s[False]) - 1.0)
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": solve_s,
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "errors": errors,
        "notes": {
            "setups": len(setups),
            "untraced_passes": len(wall_s[False]),
            "traced_passes": len(wall_s[True]),
            "median_pass_s": statistics.median(wall_s[False]),
            "ops_per_pass": len(ops),
            "segments_per_pass": len(segment_s),
            "dropped": dropped,
            "considered": considered,
        },
    }


def report(workload: str, seed: int, result: dict) -> None:
    notes = result["notes"]
    print(f"{workload} seed={seed}: {notes['untraced_passes']} untraced and "
          f"{notes['traced_passes']} traced passes of {notes['ops_per_pass']} operations")
    ops = f"{notes['ops_per_pass']} operations ({notes['segments_per_pass']} segments, " \
          f"each the median of {notes['untraced_passes']} scaled times)"
    samples = {
        "setup_s": f"median of {notes['setups']} set-ups",
        "solve_s": f"sum over {ops}; median measured pass {notes['median_pass_s']:.4g} s",
        "op_p50_ms": f"over {ops}",
        "op_p90_ms": f"over {ops}",
    }
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<10} {samples.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed}/{attempted} operations")
    dropped, considered = notes["dropped"], notes["considered"]
    print(f"  {'drop_ratio':<40} {dropped / considered if considered else 0.0:>14.6g} "
          f"{'ratio':<10} {dropped}/{considered} records")
    for err in result["errors"][:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)


def run_all(args) -> int:
    """Runs each workload in a fresh process and merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "surfaceflows" / "__init__.py").is_file():
        print(f"perfbench: library sources not found at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import workloads

        workloads.make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
