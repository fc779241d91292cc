"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int, record: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--record", str(record)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, tmp_path / "runs.jsonl")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in DECLARED[section]]
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    assert record["meta"]["python"] and record["artifacts"]
    if workload == "fixtures" and not trace:
        # the two known failures, out of 25 commands per pass
        assert record["percentiles"]["fail_ratio"] == pytest.approx(2 / 25)
    if workload == "fixtures" and trace:
        assert result["metrics"]["errors.data.count"]["value"] == 1
        assert result["metrics"]["errors.tactile.count"]["value"] == 1


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "fixtures", 0, tmp_path / "runs.jsonl")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_self_times_add_up_to_outer_duration():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.01))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.span("outer", body)
    t0 = time.perf_counter_ns()
    outer()
    total = time.perf_counter_ns() - t0
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_ns["inner"] >= 2 * 10**7
    assert tracer.self_ns["outer"] >= 10**7
    assert sum(tracer.self_ns.values()) <= total


def test_reference_factors_follow_nearby_speed():
    ref = speed.REFERENCE_S
    # a machine running at half speed for a stretch in the middle of a run
    times = [ref] * 20 + [2 * ref] * 20 + [ref] * 20
    factors = speed.factors(times)
    assert factors[0] == factors[-1] == pytest.approx(1.0)
    assert factors[30] == pytest.approx(0.5)
    assert speed.scale(times) == pytest.approx(1.0)
    assert speed.reference() > 0
