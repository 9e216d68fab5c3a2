import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten parent runs with quartiles 9 and 11 and median 10: an IQR of 2
PARENT = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles(PARENT) == (9.0, 10.0, 11.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize("shift, holds", [(1.5, False), (2.5, True)])
def test_a_gain_needs_a_median_gap_wider_than_the_parent_iqr(shift, holds):
    s = bench_pairs.summarize(PARENT, [p - shift for p in PARENT], "lower", 0.25)
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["change"][1] == 10.0 - shift
    assert s["change_pct"] == pytest.approx(-10.0 * shift)
    assert s["gain_holds"] is holds
    assert s["within_bound"]


@pytest.mark.parametrize("losses, holds", [(1, True), (2, False)])
def test_a_gain_needs_nine_wins_in_ten(losses, holds):
    change = [p - 3.0 for p in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 1.0
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["wins"] == 10 - losses
    assert s["gain_holds"] is holds


def test_ties_count_for_neither_side():
    change = [p - 3.0 for p in PARENT]
    change[0] = PARENT[0]
    change[1] = PARENT[1]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["wins"] == 8 and not s["gain_holds"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summarize(PARENT, [p + 3.0 for p in PARENT], "higher", 0.25)
    assert s["wins"] == 10 and s["gain_holds"] and s["within_bound"]
    s = bench_pairs.summarize(PARENT, [p - 3.0 for p in PARENT], "higher", 0.25)
    assert s["wins"] == 0 and not s["gain_holds"] and not s["within_bound"]


@pytest.mark.parametrize("worse, within", [(2.4, True), (2.6, False)])
def test_the_bound_is_relative_to_the_parent_median(worse, within):
    s = bench_pairs.summarize(PARENT, [p + worse for p in PARENT], "lower", 0.25)
    assert s["within_bound"] is within and s["wins"] == 0


@pytest.mark.parametrize("bound, resolved", [(0.1, False), (0.2, True), (0.25, True)])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(bound, resolved):
    # the parent's IQR of 2 against bound * median = 1, 2 and 2.5
    s = bench_pairs.summarize(PARENT, [p + 0.1 for p in PARENT], "lower", bound)
    assert s["resolved"] is resolved and s["within_bound"]


@pytest.mark.parametrize("better, change, resolved", [
    ("lower", [7.9] * 10, True), ("lower", [7.9] * 9 + [8.0], False),
    ("higher", [12.1] * 10, True), ("higher", [12.1] * 9 + [12.0], False),
])
def test_a_change_that_beats_every_parent_run_is_resolved(better, change, resolved):
    # PARENT runs from 8 to 12; a tie with its best run does not beat it
    s = bench_pairs.summarize(PARENT, change, better, 0.1)
    assert s["resolved"] is resolved


def test_an_unresolved_metric_is_printed_so(monkeypatch, capsys, tmp_path):
    spread = {11: 1.0, 12: 2.0, 13: 3.0}

    def run_once(checkout, workload, seed, seconds):
        value = spread[seed] if checkout.name == "parent" else 2.0
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"solve_s": {"value": value, "unit": "s"},
                            "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "twist-h1", "--pairs", "3", "--seed", "11"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].startswith("twist-h1.solve_s") and " UNRESOLVED " in out[1]
    assert out[2].startswith("twist-h1.peak_rss_mb") and " ok " in out[2]
    summaries = json.loads(out[-1])["summaries"]
    assert summaries["solve_s"]["resolved"] is False
    assert summaries["peak_rss_mb"]["resolved"] is True


def test_pairs_alternate_and_a_failed_run_fails_the_script(monkeypatch, capsys, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        failed = int(checkout.name == "change" and seed == 12)
        value = 1.0 if checkout.name == "parent" else 0.5
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {"solve_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    code = bench_pairs.main([str(parent), str(change), "--workload", "twist-h1",
                             "--pairs", "3", "--seed", "11", "--seconds", "1"])
    assert calls == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12),
                     ("parent", 13), ("change", 13)]
    out, err = capsys.readouterr()
    assert code == 1 and "RUN FAILED: change pair 1" in err
    result = json.loads(out.splitlines()[-1])
    assert [run["first"] for run in result["runs"]["change"]] == ["parent", "change", "parent"]
    assert result["summaries"]["solve_s"]["wins"] == 3
