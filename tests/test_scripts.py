"""The scripts under scripts/ that import the package still run against it."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

from dualcech import formats, snc

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


def _make_inputs():
    spec = importlib.util.spec_from_file_location("make_inputs", os.path.join(SCRIPTS, "make_inputs.py"))
    make_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_inputs)
    return make_inputs


def test_make_inputs_builds_the_committed_documents():
    # write's default directory is bound when it is defined, so main() runs
    # with write swapped for a recorder instead of being pointed elsewhere
    make_inputs = _make_inputs()
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


@pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 5) for m in range(1, 7)])
def test_general_hyperplanes_match_the_closed_form(n, m):
    # D, the union of m general hyperplanes in P^n, and its complement U,
    # whose Betti numbers are C(m - 1, j) for j <= n and 0 above: from the
    # sequence of the pair (P^n, D), H^k(D) = b_k(P^n) + b_(2n-1-k)(U).
    # The strata and rows are listed in a seeded random order, which the
    # answer does not depend on
    doc = _make_inputs().general_hyperplanes(n, m)
    rng = random.Random(100 * n + m)
    rng.shuffle(doc["strata"])
    rng.shuffle(doc["tables"])
    table = snc.hodge_decomposition(formats.parse_divisor(doc))

    def betti_u(j):
        return comb(m - 1, j) if 0 <= j <= n else 0

    derham = list(table.derham_totals) + [0] * (2 * n - 1)
    assert derham[: 2 * n - 1] == [int(k % 2 == 0) + betti_u(2 * n - 1 - k) for k in range(2 * n - 1)]
    assert not any(derham[2 * n - 1 :])
    # h^q of the reduced r-forms: [q = r] + [q = n - 1] C(m - 1, n - r)
    assert table.entries == tuple(
        tuple(int(q == r) + (q == n - 1) * betti_u(n - r) for q in range(len(row))) for r, row in enumerate(table.entries)
    )
