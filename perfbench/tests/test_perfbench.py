"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from surfaceflows.heegaard import parse_twist_word  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# metric-name schema


def test_benchmark_json_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)


def test_workload_names_match_the_code(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)
    for name in names:
        assert workloads.make_inputs(name, 1)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200


def test_metric_names_and_units_match_what_runs_emit(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(m["name"]) and UNIT_RE.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_bounds(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_metrics_cover_the_declared_names():
    emitted = set(tracing.layer_metrics(tracing.Recorder())) | {"trace.overhead_ratio"}
    assert emitted == set(tracing.LAYER_METRICS)


# ---------------------------------------------------------------------------
# speed scaling


def test_scaled_time_follows_the_probe():
    assert speed.scaled(3.0, [0.5], 0.5) == pytest.approx(3.0)
    # a machine at half speed doubles both the operation and the probe
    assert speed.scaled(6.0, [1.0, 1.0, 4.5], 0.5) == pytest.approx(3.0)


def test_each_segment_uses_the_two_probes_on_either_side():
    probes = [1.0, 2.0, 2.0, 4.0, 4.0]
    # segment 0 sees probes 0-2, segment 2 probes 1-4, segment 3 probes 2-4
    assert speed.scale_segments([2.0, 2.0, 3.0, 4.0], probes, 1.0) == pytest.approx([1.0] * 4)
    with pytest.raises(ValueError):
        speed.scale_segments([1.0], [1.0], 1.0)


def test_probes_take_about_their_reference_time():
    for probe in (speed.INTERPRETER, speed.ARRAYS, speed.MATRICES):
        assert probe.ref_s / 5 < min(probe.run() for _ in range(5)) < probe.ref_s * 5


def test_pass_cuts_field_heavy_operations_into_segments():
    ops = [op for op in workloads.make_inputs("planar-flows", 5) if op.kind == "connected-sum"][:2]
    times, _ = run.run_pass(ops, workloads.identity, speed.INTERPRETER)
    assert len(times.seconds) == 2 and times.firsts == [0, 1]
    times, outputs = run.run_pass(ops, workloads.identity, speed.INTERPRETER, every=200)
    assert times.firsts[0] == 0 and 1 < times.firsts[1] < len(times.seconds) == len(times.scaled)
    assert [o.boundary_winding for o in outputs] == [-2, -2]


def test_segmented_field_cuts_every_nth_call():
    cuts = []
    field = speed.SegmentedField(lambda z: 2 * z, lambda: cuts.append(1), 3)
    assert [field(z) for z in range(7)] == [2 * z for z in range(7)]
    assert len(cuts) == 2


# ---------------------------------------------------------------------------
# span recorder arithmetic


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = tracing.Recorder(clock)
    outer = rec.open("outer")
    clock.now = 1.0
    a = rec.open("a")
    clock.now = 3.0
    rec.close(a)
    clock.now = 4.0
    b = rec.open("b")
    clock.now = 4.5
    rec.count("evals", 7)
    rec.close(b)
    clock.now = 10.0
    rec.count("evals", 2)
    rec.close(outer)
    assert outer.duration == 10.0
    assert tracing.self_time(outer) == pytest.approx(10.0 - 2.0 - 0.5)
    assert tracing.self_time(a) == 2.0
    assert tracing.subtree_count(outer, "evals") == 9
    assert tracing.subtree_count(b, "evals") == 7


def test_self_time_counts_overlapping_children_once():
    span = tracing.Span("p", 0.0)
    span.end = 10.0
    for start, end in ((1.0, 4.0), (2.0, 5.0), (9.0, 12.0)):
        child = tracing.Span("c", start)
        child.end = end
        span.children.append(child)
    assert tracing.self_time(span) == pytest.approx(10.0 - 4.0 - 1.0)


def test_failed_call_closes_its_span():
    rec = tracing.Recorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracing.traced(rec, "x", boom)()
    (span,) = rec.spans
    assert span.failed and span.end >= span.start
    assert tracing.layer_metrics(rec)["autovec.field_eval.calls"] == 0


def test_instrument_restores_the_library():
    from surfaceflows import autovec, surgery

    before = (autovec.field_eval, surgery.find_zeros)
    with tracing.instrument(tracing.Recorder()):
        assert autovec.field_eval is not before[0]
    assert (autovec.field_eval, surgery.find_zeros) == before


def test_traced_batch_ops_bypass_the_lower_layers():
    rec = tracing.Recorder()
    ops = workloads.planar_ops(random.Random(5))
    twist = workloads.twist_ops(random.Random(5))[:2]
    with tracing.instrument(rec):
        for op in [o for o in ops if o.kind != "connected-sum"][:4] + twist:
            workloads.run_op(op, lambda f: tracing.CountingField(f, rec))
    metrics = tracing.layer_metrics(rec)
    assert metrics["moebius.enumerate_ball.calls"] == metrics["autovec.field_eval.calls"] == 0
    assert metrics["heegaard.compose_word.letters"] > 0
    assert tracing.bypass_errors("planar-flows", rec) == []
    assert tracing.bypass_errors("twist-h1", rec) == ["twist-h1 called flowlab"]


# ---------------------------------------------------------------------------
# oracles


@pytest.fixture(scope="module")
def gate():
    return oracles.Gate()


def test_h1_oracle_accepts_the_library_and_rejects_a_wrong_group(gate):
    op = workloads.Op("twist-h1", {"genus": 2, "text": "a1^5 b1 a2 b2^-1 g1"})
    rec = workloads.record(op, workloads.run_op(op))
    assert gate.check("twist-h1", rec) == []
    wrong = dict(rec, torsion=rec["torsion"] + [7])
    assert gate.check("twist-h1", wrong)
    assert gate.check("twist-h1", dict(rec, rank=rec["rank"] + 1))


def test_lens_space_h1():
    # a1^5 b1 at genus 1 glues L(5, 1): H1 = Z/5
    assert oracles.sympy_h1([[5]]) == (0, [5])
    assert oracles.sympy_h1([[0]]) == (1, [])


def test_winding_oracle_accepts_the_library_and_rejects_a_wrong_sum(gate):
    ops = workloads.planar_ops(random.Random(2))
    op = next(o for o in ops if o.kind == "connected-sum")
    rec = workloads.record(op, workloads.run_op(op))
    assert gate.check("connected-sum", rec) == []
    wrong = dict(rec, tube_indices=rec["tube_indices"] + [1])
    assert gate.check("connected-sum", wrong)


def test_planar_oracles_reject_out_of_tolerance_records(gate):
    assert gate.check("integrate", {"energy_drift": 1e-3, "termination": "time-limit",
                                    "end_time": 2.0, "t_end": 2.0})
    assert gate.check("integrate", {"energy_drift": 0.0, "termination": "pole-proximity",
                                    "end_time": 1.0, "t_end": 2.0})
    assert gate.check("rectify", {"residual": 0.5})
    assert gate.check("covariance", {"defect": 1e-3})


def test_pipeline_reference_rejects_a_changed_zero_table(gate):
    ref = gate.reference["demo-genus2"]
    rec = dict(copy.deepcopy(ref), points_sampled=160, kept=len(ref["zeros"]))
    assert gate.check("demo-genus2", rec) == []
    rec["zeros"][1][2] = 1  # the index-0 defect "fixed" without re-recording
    assert gate.check("demo-genus2", rec)
    rec = dict(copy.deepcopy(ref), points_sampled=160, kept=len(ref["zeros"]))
    rec["ball_sizes"]["4"] -= 1
    assert gate.check("demo-genus2", rec)


# ---------------------------------------------------------------------------
# seeded inputs


def describe(op):
    def value(v):
        if hasattr(v, "kind"):
            return (v.kind, v.params)
        return repr(v)

    return (op.kind, tuple((k, value(v)) for k, v in sorted(op.params.items())))


@pytest.mark.parametrize("name", ["planar-flows", "twist-h1"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = [describe(op) for op in workloads.make_inputs(name, 11)]
    again = [describe(op) for op in workloads.make_inputs(name, 11)]
    other = [describe(op) for op in workloads.make_inputs(name, 12)]
    assert first == again
    assert first != other


def test_batch_mix_is_fixed_by_design():
    for seed in (1, 2):
        kinds = [op.kind for op in workloads.make_inputs("planar-flows", seed)]
        assert {k: kinds.count(k) for k in set(kinds)} == workloads.PLANAR_MIX
        words = workloads.make_inputs("twist-h1", seed)
        for op in words:
            letters = len(parse_twist_word(op.params["text"]))
            assert workloads.TWIST_LETTERS[0] <= letters <= workloads.TWIST_LETTERS[1]


# ---------------------------------------------------------------------------
# the command


def test_smoke_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "twist-h1", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twist-h1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
