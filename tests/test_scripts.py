"""The scripts under scripts/ that import the package still run against it."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize("script", ["toric_boundary_demo.py", "local_exactness_sweep.py"])
def test_script_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_make_inputs_builds_the_committed_documents():
    # write's default directory is bound when it is defined, so main() runs
    # with write swapped for a recorder instead of being pointed elsewhere
    spec = importlib.util.spec_from_file_location("make_inputs", os.path.join(SCRIPTS, "make_inputs.py"))
    make_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_inputs)
    built: dict[str, str] = {}

    def record(name: str, doc: dict, directory: str = make_inputs.OUT) -> None:
        path = os.path.relpath(os.path.join(directory, name), ROOT)
        assert path not in built, path
        built[path] = json.dumps(doc, sort_keys=True, indent=2) + "\n"

    make_inputs.write = record
    make_inputs.main()
    committed = sorted(
        [os.path.join("inputs", name) for name in os.listdir(os.path.join(ROOT, "inputs")) if name.endswith(".json")]
        + [os.path.join("tests", "data", "nonfunctorial_q1.json")]
    )
    assert sorted(built) == committed
    for path in committed:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            assert built[path] == handle.read(), path


def test_same_process_pairs_runs_the_repository_against_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "same_process_pairs.py"), ROOT, ROOT,
         "--workload", "spectral_pages", "--seed", "1", "--rounds", "2"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *summary, last = proc.stdout.splitlines()
    rounds = json.loads(last)
    assert rounds["workload"] == "spectral_pages" and rounds["documents"] > 0
    assert len(rounds["parent"]) == len(rounds["change"]) == 2
    assert [line.split(":")[0] for line in summary[:2]] == ["parent", "change"]
    assert summary[2].startswith("change won ") and summary[2].endswith("/2 rounds")
