"""Smoke tests for the benchmark itself: tiny runs of each workload, checks
that catch corrupted output, and the result contract.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name, tmp_path, seed=3):
    if name == "bulk":
        return workloads.Bulk(seed, tmp_path, per_scheme=1, traced_batches=1)
    if name == "track":
        return workloads.Track(seed, tmp_path, sim_dt=1e-3)
    return workloads.CliDefault(seed, tmp_path)


@pytest.mark.parametrize("name", ["cli_default", "bulk", "track"])
def test_tiny_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    doc, lines = run.run(tiny(name, tmp_path), 3, 0, trace=False, setup_children=1)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    assert set(doc["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert any(line.startswith("fail_share = 0 ") for line in lines)


@pytest.mark.parametrize("name", ["cli_default", "bulk", "track"])
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.json"
    doc, _ = run.run(tiny(name, tmp_path), 3, 0, trace=True, spans_path=spans)
    metrics = {k: m["value"] for k, m in doc["metrics"].items()}
    assert doc["correct"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.absent_layers"] == 0
    assert metrics["solver.solve_segment.calls"] > 0
    assert metrics["trace.self_coverage"] == pytest.approx(1.0, abs=0.02)
    if name != "bulk":
        assert metrics["schemes.evaluate.useful_ratio"] == pytest.approx(0.25)
    if name == "track":
        assert metrics["simulation.rk4_step.calls"] == 1000  # 1 s at dt = 1e-3
    assert json.loads(spans.read_text())["spans"]


def test_missing_layer_reads_absent(tmp_path, monkeypatch):
    import functools

    import pspb.poly

    # A callable the tracer cannot wrap stands in for a deleted function.
    monkeypatch.setattr(pspb.poly, "eval_kinematics",
                        functools.partial(pspb.poly.eval_kinematics))
    doc, lines = run.run(tiny("cli_default", tmp_path), 3, 0, trace=True)
    metrics = {k: m["value"] for k, m in doc["metrics"].items()}
    assert doc["correct"]
    assert metrics["trace.absent_layers"] == 1
    assert metrics["poly.eval_kinematics.calls"] == 0
    assert metrics["schemes.evaluate.useful_ratio"] == pytest.approx(0.25)
    assert any("absent layers: poly.eval_kinematics" in line for line in lines)


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        doc, _ = run.run(tiny("bulk", tmp_path / str(attempt)), 3, 0, trace=True)
        counts.append({k: m["value"] for k, m in doc["metrics"].items()
                       if m["unit"] == "count" and "family_ratio" not in k})
    assert counts[0] == counts[1]


class CorruptFirstProfile(workloads.CliDefault):
    """Damages the position at a via row of the first operation's output."""

    calls = 0

    def execute(self, op):
        result = super().execute(op)
        if self.calls == 0:
            path = self.out["generate"] / "profile_545-1.csv"
            lines = path.read_text().splitlines()
            row = lines[21].split(",")  # t = 0.12, a via time
            row[1] = str(float(row[1]) + 0.5)
            lines[21] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")
        self.calls += 1
        return result


def test_corrupted_output_counts_as_failure(tmp_path):
    doc, lines = run.run(CorruptFirstProfile(3, tmp_path), 3, 0, trace=False,
                         setup_children=1)
    assert doc["failed"] == 1 and not doc["correct"]
    assert any(line.startswith("fail_share = 0.5 ") for line in lines)
    assert any("545-1: position at t=0.12" in line for line in lines)


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def _scale_rmse(text):
    head, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[3] = str(float(cells[3]) * 1.01)
    return "\n".join([head, ",".join(cells), *rest]) + "\n"


def _unjoin_velocity(text):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.split(",")[1:2] == ["1"] and line.endswith(",1"))
    cells = lines[i].split(",")
    cells[2] = "0.5"
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("target, edit, expect", [
    ("compare/error_report.csv", _scale_rmse, "compare reports position RMSE"),
    ("generate/continuity_656-2.csv", _unjoin_velocity, "order 1 jumps"),
    ("generate/profile_434-2.csv", lambda t: "".join(t.splitlines(True)[:-1]),
     "profile has shape"),
])
def test_checks_catch_each_corruption(tmp_path, target, edit, expect):
    wl = workloads.CliDefault(5, tmp_path)
    result = wl.execute(None)
    assert wl.check(None, result) == []
    _rewrite(tmp_path / target, edit)
    problems = wl.check(None, result)
    assert problems and any(expect in p for p in problems), problems


def test_tracking_check_compares_printed_rmse(tmp_path):
    wl = workloads.Track(5, tmp_path, sim_dt=1e-3)
    result = wl.execute(None)
    assert wl.check(None, result) == []
    printed = result.stdout["generate"]
    value = float(printed.split()[3])
    result.stdout["generate"] = printed.replace(printed.split()[3], f"{value * 1.01:.6g}")
    assert any("printed tracking RMSE" in p for p in wl.check(None, result))


def test_bulk_check_rejects_gait_for_other_waypoints(tmp_path):
    wl = workloads.Bulk(7, tmp_path, per_scheme=1)
    first, second = wl.prepare()[:2]
    assert wl.check(first, wl.execute(first)) == []
    assert wl.check(first, wl.execute(second))


def test_probe_time_is_not_charged_to_operations():
    class Sleep:
        def prepare(self):
            return [None]

        def execute(self, _op):
            time.sleep(0.25)

        def check(self, _op, _result):
            return []

    with hostspeed.HostSpeedProbe() as probe:
        log = run.run_ops(Sleep(), 0, 4, probe=probe)
    assert probe.samples >= 5 and probe.slowdown > 0
    # A sleep keeps its deadline across the probe's interruptions, so the
    # probe time subtracted from it shows as a shortfall below 4 x 0.25 s.
    assert 0.9 < sum(log.latencies) < 1.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
