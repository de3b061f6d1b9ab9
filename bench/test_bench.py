"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python -m pytest -q bench/test_bench.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from adreg import backbone, training  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "register": dataclasses.replace(run.WORKLOADS["register_small"], scale=0.125,
                                    points=384, warm_points=384, pool=2, fixed_ops=2),
    "train": dataclasses.replace(run.WORKLOADS["train_step"], scale=0.125,
                                 points=384, warm_points=384, pool=2, fixed_ops=2),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(kind):
    report = run.run_workload(TINY[kind], seed=5, seconds=0, trace=False)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in report.metrics.items()} == expected
    assert all(value > 0 for value, _ in report.metrics.values())
    assert report.correct and report.attempted >= 2


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(kind):
    report = run.run_workload(TINY[kind], seed=5, seconds=0, trace=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in report.metrics.items()} == expected
    assert report.info["missing_layers"] == []
    assert report.metrics["geometry.knn_search.calls"][0] > 0
    assert report.metrics["geometry.knn_search.large_share"][0] == 0
    # Tracing is switched off again: every wrapped name is the original.
    assert not hasattr(training.register_pair, "__wrapped__")
    assert not hasattr(backbone.knn_search, "__wrapped__")


@pytest.mark.parametrize("kind", sorted(TINY))
def test_two_runs_give_the_same_digest(kind):
    first = run.run_workload(TINY[kind], seed=9, seconds=0, trace=False)
    second = run.run_workload(TINY[kind], seed=9, seconds=0, trace=False)
    assert first.info["digest"] == second.info["digest"]
    other = run.run_workload(TINY[kind], seed=10, seconds=0, trace=False)
    assert other.info["digest"] != first.info["digest"]


def test_command_prints_result_as_last_line(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "register_small", TINY["register"])
    code = run.main(["--workload", "register_small", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name in ("pair_s_p50", "pairs_per_s", "recall", "rte_m_p50", "rre_deg_p50",
                 "fail_share", "setup_s", "peak_rss_mb", "digest"):
        assert any(line.startswith(name + " ") for line in lines), name


def test_outputs_are_checked_and_failures_counted():
    eye = np.eye(3)
    good = run.Op(1.0, transform=SimpleNamespace(rotation=eye, translation=np.zeros(3)))
    skewed = run.Op(1.0, transform=SimpleNamespace(rotation=eye * 1.001,
                                                   translation=np.zeros(3)))
    mirrored = run.Op(1.0, transform=SimpleNamespace(rotation=np.diag([1.0, 1.0, -1.0]),
                                                     translation=np.zeros(3)))
    assert run.check(good) is None
    assert "orthonormal" in run.check(skewed)
    assert "determinant" in run.check(mirrored)
    assert run.check(run.Op(1.0, loss=float("nan"))) is not None

    report = run.Report("train_step", 0, False)
    failed = run.Op(0.5, error="DegeneracyError")
    run.tally(report, run.WORKLOADS["train_step"], [run.Op(1.0, loss=2.0), failed], [])
    assert (report.attempted, report.failed) == (2, 1)
    assert report.info["fail_reasons"] == {"DegeneracyError": 1}
    assert report.correct


def test_self_times_subtract_children():
    spans = [tracing.Span("a", 0.0, 10.0, None, 0),
             tracing.Span("b", 1.0, 4.0, 0, 0),
             tracing.Span("c", 2.0, 3.0, 1, 0),
             tracing.Span("b", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_spec_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
