"""Smoke test of the benchmark at the smallest budget.

    python3 -m pytest -q perfbench/test_smoke.py

Shrinks every workload to a few updates or a 3x3 grid, then checks that
each mode prints exactly the metrics BENCHMARK.json names, with their units,
that the correctness gates trip on a fabricated digest mismatch, and that
the command fails without the program's sources beside it.
"""

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TRAIN = ["run.epochs=2", "run.cycles_per_epoch=1", "run.warmup_steps=100",
              "run.eval_rollouts=3", "agent.updates_per_cycle=3", "agent.batch_size=16"]


@pytest.fixture(autouse=True)
def smallest_budget(monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN_OVERRIDES", {
        name: overrides + TINY_TRAIN for name, overrides in workloads.TRAIN_OVERRIDES.items()
    })
    monkeypatch.setattr(workloads, "LAB_GRID", {"width": 3, "height": 3, "gamma": 0.9,
                                                "slip": 0.2})
    monkeypatch.setattr(workloads, "MIN_P99_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "SETUP_AT_LEAST", 2)


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace",
                         itertools.product(run.WORKLOADS, (0, 1)))
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = bench(capsys, workload, trace)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert any(line.startswith(f"metric {metric['name']} = ") and
                   f" {metric['unit']} (" in line for line in lines)
        if not trace:
            assert printed["value"] > 0


def test_traced_runs_keep_the_layers_apart(capsys):
    layers = {w: bench(capsys, w, 1)[2]["metrics"] for w in run.WORKLOADS}
    assert layers["push_collect"]["agent.hgr_rows_per_update"]["value"] == 0
    assert layers["reach_hgr"]["agent.hgr_rows_per_update"]["value"] > 0
    for name in ("agent.update_ms_p50", "nn.forward_calls_per_update",
                 "replay.store_calls", "envs.step_calls"):
        assert layers["lab_grid"][name]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fabricated_digest_mismatch_trips_the_gate(capsys, monkeypatch, workload):
    fake = itertools.count()
    monkeypatch.setattr(workloads, "file_digest", lambda path: f"digest-{next(fake)}")
    code, lines, result = bench(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("gate FAILED:") and "sha256" in line for line in lines)


def test_fails_without_the_program_sources():
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as bare:
        shutil.copytree(HERE, Path(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "lab_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
