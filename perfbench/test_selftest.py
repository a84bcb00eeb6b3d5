"""Self-test of the benchmark at a tiny world scale.

Runs every workload through ``run.py`` exactly as a benchmark run does
(a fresh process per run, untraced and traced), and checks that each
prints every metric ``BENCHMARK.json`` names, with its unit, and that no
output check failed.  Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_selftest.py

This file sits with the benchmark, outside the repository's test
suite, so the suite's run time does not include it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import SpanLog, self_time_metric  # noqa: E402

#: A tiny world for each workload: small enough for seconds per run,
#: large enough that every operation of the workload succeeds.
TINY_SCALE = {"paper": 0.02, "campaign": 0.02, "delta": 0.05}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2022", "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY_SCALE[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    names = [w["name"] for w in _spec()["workloads"]]
    assert sorted(names) == sorted(TINY_SCALE)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_SCALE))
def test_workload_reports_every_metric(workload: str, trace: int):
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        names = map(self_time_metric, workloads.EXPECTED_SPANS[workload])
    else:
        names = ("setup_s", "run_s", "peak_rss_mb", "queries_sent")
    for name in names:
        assert result["metrics"][name]["value"] > 0, name


def _campaign_pass(resuming: Counter) -> workloads.Pass:
    digests = [f"d{index}" for index in range(7)]
    return workloads.Pass(
        queries_sent=100,
        outputs={
            "written": digests,
            "resumed": list(digests),
            "restored": 100,
            "months": 4,
            "writing": Counter(month_started=4, checkpoint_written=4),
            "resuming": resuming,
        },
    )


def test_campaign_check_fails_a_resume_that_rescans():
    restored = workloads.Checks()
    workloads.check_campaign(_campaign_pass(Counter(month_restored=4)), None, restored)
    assert restored.failures == []
    # Same digests and counters, but the last month was scanned again.
    rescanned = workloads.Checks()
    workloads.check_campaign(
        _campaign_pass(Counter(month_restored=3, month_started=1)), None, rescanned
    )
    assert len(rescanned.failures) == 1


def test_traced_check_fails_a_span_never_recorded():
    log = SpanLog()
    for name in workloads.EXPECTED_SPANS["delta"][1:]:
        log.end(log.begin(name))
    done = workloads.Pass(outputs={
        "rounds": 0, "records": [], "detected": [], "accumulated": {}, "rescans": {},
    })
    checks = workloads.check("delta", done, 1, 0.2, log)
    assert any(workloads.EXPECTED_SPANS["delta"][0] in f for f in checks.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
