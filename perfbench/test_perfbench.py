"""Self-test of the benchmark: one tiny op per workload, oracle and output contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import pace
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    command += ["--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_layers_separate_by_workload():
    calls = {}
    for workload in NAMES:
        done = smoke(workload, 1)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        calls[workload] = {n: m["value"] for n, m in metrics.items() if n.endswith(".calls")}
    assert calls["toric_boundary"]["presheaf.check_functoriality.calls"] > 0
    assert calls["lemma31_sweep"]["localmodel.quotient_basis.calls"] > 0
    assert calls["spectral_pages"]["exactla.kernel_basis.calls"] > 0
    for workload in ("lemma31_sweep", "spectral_pages"):
        assert calls[workload]["presheaf.check_functoriality.calls"] == 0
    for workload in ("toric_boundary", "lemma31_sweep"):
        assert calls[workload]["exactla.kernel_basis.calls"] == 0
    for workload in ("toric_boundary", "spectral_pages"):
        assert calls[workload]["localmodel.quotient_basis.calls"] == 0


def _corrupt(op: workloads.Op) -> None:
    key = next(iter(op.expect))
    value = op.expect[key]
    op.expect[key] = not value if isinstance(value, bool) else [value]


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_expectation_fails_the_run(workload, monkeypatch, capsys):
    make_ops = workloads.make_ops

    def corrupted(*args, **kwargs):
        ops = make_ops(*args, **kwargs)
        for op in ops:
            _corrupt(op)
        return ops

    monkeypatch.setattr(workloads, "make_ops", corrupted)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_cold_set_up_runs_in_a_fresh_interpreter(tmp_path):
    seconds, problems = run.cold_set_up("toric_boundary", 7, ROOT / "src", tmp_path / "cold")
    assert problems == [] and 0 < seconds < 60
    assert len(list((tmp_path / "cold").glob("*.json"))) == len(workloads.TORIC_SHAPES)


def test_oracle_rejects_wrong_exit_code_and_missing_report():
    op = next(op for op in workloads.make_ops("spectral_pages", 7) if op.shape.endswith("+zigzag"))
    assert op.code == 2 and op.expect["degenerates_at_second_page"] is False
    assert oracle.mismatches(op.expect, op.code, 0, None) == ["exit code 0, expected 2", "no JSON report"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke(NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_pace_is_fixed_work_and_restores_the_collector():
    assert pace.reference() == pace.reference()
    assert gc.isenabled()
    assert pace.measure() > 0 and gc.isenabled()
    result, seconds = pace.timed(lambda: 42, repeats=2)
    assert result == 42 and 0 <= seconds < 1
