"""Self-tests of the benchmark: span arithmetic, failure counting, smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def _span(sid, start, end, parent=None, op=0):
    return spans.Span(sid, f"s{sid}", start, end, parent, op)


def test_self_time_subtracts_the_union_of_nested_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),  # overlaps span 1: [1, 6] is covered once
        _span(3, 2.0, 3.5, parent=1),
        _span(4, 9.5, 12.0, parent=0),  # reaches past its parent: only [9.5, 10] counts
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.5)


def test_tracer_records_parents_ops_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, info=lambda result: {"value": result})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].info == {"value": 2}
    assert {s.op for s in tracer.spans} == {7}
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end <= by_name["outer"].end


def test_one_forced_bad_exit_code_is_one_failure(monkeypatch):
    cli = run.import_program()
    real_main = cli.main
    calls = []

    def main(argv):
        calls.append(argv)
        return 1 if len(calls) == 2 else real_main(argv)

    monkeypatch.setattr(cli, "main", main)
    result, record = run.run_workload("solve", seed=3, seconds=0, trace=False)
    assert len(calls) == result["attempted"] == 2
    assert result["failed"] == 1 and result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - 1 / 2)
    assert "exit code 1" in record["ops"][1]["failure"]


def test_a_traced_op_that_raises_is_one_failure(monkeypatch):
    cli = run.import_program()
    real_solve = cli.cgne_solve
    calls = []

    def cgne_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # warm-up, untraced op, then the traced op
            raise RuntimeError("forced")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "cgne_solve", cgne_solve)
    result, record = run.run_workload("solve", seed=3, seconds=0, trace=True)
    assert len(calls) == result["attempted"] == 3
    assert result["failed"] == 1 and result["correct"] is False
    assert "RuntimeError: forced" in record["ops"][2]["failure"]
    assert [s["info"] for s in record["spans"] if s["name"] == "solver.cgne_solve"] == [{}]
    assert result["metrics"]["solver.iterations"]["value"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload(name):
    result, _ = run.run_workload(name, seed=1, seconds=0, trace=False)
    assert result["correct"], result
    assert set(result["metrics"]) == {"op_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, record = run.run_workload(name, seed=1, seconds=0, trace=True)
    assert result["correct"], result
    assert set(result["metrics"]) == set(spans.layer_metrics([], [], []))
    assert record["spans"]
    cli = run.import_program()
    assert not any(getattr(cli, fn).__name__ == "traced" for fn in (*spans.LAYER_CALLS, "PairOperator"))
    assert cli.ImageGrid.from_domain.__name__ == "from_domain"


def test_solve_counts_repeat_exactly():
    result, _ = run.run_workload("solve", seed=2, seconds=0, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solver.iterations"] == m["discrete.forward_calls"] == m["discrete.adjoint_calls"] == 95
    assert m["discrete.pixels"] == 30891
    assert m["projector.calls"] == 0


def test_command_prints_every_end_to_end_metric_and_a_json_last_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "solve", "--seed", "4", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    *lines, last = proc.stdout.splitlines()
    for name in ("op_s", "setup_s", "peak_rss_mb", "failed_ratio"):
        assert any(line.split()[:1] == [name] for line in lines), proc.stdout
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics([], [], [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: spans.unit_of(k) for k in layer}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
