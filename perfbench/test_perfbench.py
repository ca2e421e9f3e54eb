"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402

from cishift import delorme, shiftscan  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics the report prints beyond BENCHMARK.json, by workload
REPORTED = {
    "sweep": ["decide_p50_ms", "decide_p90_ms", "oracle_p50_ms", "oracle_p90_ms",
              "requery_ops_per_s", "error_rate"],
    "deep_shift": ["shift_p50_ms", "shift_p90_ms", "shift_growth", "error_rate"],
}
REPORTED_TRACED = ["toricoracle.oracle.self_s", "shiftscan.self_s", "cli.main.self_s"]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_manifest_follows_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    report = "\n".join(lines[:-1])
    for name in (REPORTED_TRACED + ["trace.overhead_s"] if trace else REPORTED[workload]):
        assert re.search(rf"^  {re.escape(name)} ", report, re.M), name


def _flip_first_ci(monkeypatch, module, attr: str) -> None:
    """Make the first complete intersection `attr` finds come back as not CI."""
    original = getattr(module, attr)
    flipped = []

    def wrong(*args):
        cert = original(*args)
        if cert is not None and not flipped:
            flipped.append(args)
            return None
        return cert

    monkeypatch.setattr(module, attr, wrong)


@pytest.mark.parametrize("workload, module, attr", [
    ("sweep", delorme, "is_complete_intersection"),
    ("deep_shift", shiftscan, "ci_at"),
])
def test_wrong_verdict_raises_error_rate(monkeypatch, workload, module, attr):
    size = workloads.SIZES["tiny"]
    inputs = workloads.make_inputs(workload, 11, size)
    _flip_first_ci(monkeypatch, module, attr)
    out = workloads.run(workload, inputs, size, 11, NullTracer())
    assert out.failed / out.attempted > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    size = workloads.SIZES["full"]
    first = workloads.make_inputs(workload, 3, size)
    assert workloads.make_inputs(workload, 3, size) == first
    assert workloads.make_inputs(workload, 4, size) != first


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_clock_cancels_host_speed():
    ref = pace.REF_PROBE_S
    clock = pace.Clock()
    # one second of work each: at full speed, while the host slowed, at half speed
    clock.stretches = [1.0, 1.5, 2.0]
    clock.probes = [ref, ref, 2 * ref, 2 * ref]
    assert clock.raw_s == pytest.approx(4.5)
    assert clock.ref_s == pytest.approx(3.0)
    assert pace.at_ref(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
