"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs three requests untraced and traced; the result must
name every metric of BENCHMARK.json with its unit, and a corrupted
expected value must be reported as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(monkeypatch, corrupt: bool = False):
    full = run.load_requests

    def load_requests(workload, seed):
        requests = full(workload, seed)[0][:3]
        if corrupt:
            request = requests[0]
            key = next(iter(request.expect))
            request.expect = dict(request.expect, **{key: "corrupted"})
        return [requests]

    monkeypatch.setattr(run, "load_requests", load_requests)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed(monkeypatch, capsys, workload, trace):
    _tiny(monkeypatch)
    result, out = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    if trace:
        assert result["attempted"] == 6  # three requests, each untraced and traced
    else:
        assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert f"\n{m['name']} {value} {m['unit']}\n" in out
    if not trace:
        assert "# failed_ratio: 0.000000 ratio" in out
    assert '"loadavg_start"' in out and '"nproc"' in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_fails(monkeypatch, capsys, workload):
    _tiny(monkeypatch, corrupt=True)
    result, out = _run(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "# FAILED" in out


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_times_scale_with_the_local_kernel_time():
    import reference

    at_reference = reference.REFERENCE_NS
    assert reference.speed_factors([at_reference] * 5) == [1.0] * 5
    factors = reference.speed_factors([at_reference] * 10 + [2 * at_reference] * 10)
    assert factors[0] == 1.0 and factors[-1] == 0.5
