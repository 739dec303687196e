"""Self-test of the benchmark harness.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] (which holds b [2,3]) and c [5,9]
    spans = [
        ("root", 0.0, 10.0, None, "job"),
        ("a", 1.0, 4.0, 0, "job"),
        ("b", 2.0, 3.0, 1, "job"),
        ("c", 5.0, 9.0, 0, "job"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        ("root", 0.0, 10.0, None, "job"),
        ("a", 2.0, 6.0, 0, "job"),
        ("b", 4.0, 8.0, 0, "job"),
        ("c", 9.0, 12.0, 0, "job"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _cli_jobs(tmp_path, expected):
    jobs = worker.verify_ladder(1, tmp_path, expected)
    return [job for job in jobs if job.id == "cli.verify.2-2-2-1-1"]


def test_pinned_verdicts_pass(tmp_path):
    records, _ = worker.run_jobs(_cli_jobs(tmp_path, worker.EXPECTED))
    assert run.failures([{"jobs": records}]) == []


def test_wrong_pinned_verdict_raises_fail_ratio(tmp_path):
    expected = json.loads(json.dumps(worker.EXPECTED))
    expected["verify"]["2-2-2-1-1"]["flags"]["corank_bookkeeping"] = True
    records, _ = worker.run_jobs(_cli_jobs(tmp_path, expected))
    failed = run.failures([{"jobs": records}])
    assert len(failed) / len(records) > 0


def test_tracer_catches_calls_between_modules(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = worker.run_jobs(_cli_jobs(tmp_path, worker.EXPECTED), tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["exactpoly.rank.calls"] > 0  # reached through checker.rank
    assert summary["checker.independence_details.attempts"] >= 1
    roots = [span for span in tracer.spans if span[3] is None]
    assert [span[0] for span in roots] == ["cli.main"]
    own = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert own <= records[0][2]


def test_metric_names_match_benchmark_json():
    passes = [{"jobs": [["j", "g", 1.0, []]], "calibration_s": [0.01], "peak_rss_kb": 1024, "minor_poly": {"hits": 0, "misses": 0},
               "trace": Tracer().summary()}]
    assert set(run.GATED) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(run.GATED) <= set(run.end_to_end([0.1], passes))
    assert set(run.per_layer(passes, passes)) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS) == set(worker.WORKLOADS)
