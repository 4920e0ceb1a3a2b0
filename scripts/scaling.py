#!/usr/bin/env python3
"""Fresh-process wall times of the commands whose cost grows with the input.

    python3 scripts/scaling.py TREE [--runs 3]

TREE is a checkout holding ``src/dualcech`` and ``inputs/``.  Every row
runs ``python3 -m dualcech COMMAND DOCUMENT --json`` with ``TREE/src`` on
``PYTHONPATH``, in a new process, ``--runs`` times, and prints the median
wall time in seconds.  The rows are ``toric`` on the full boundary of P^8
to P^11 (the n + 1 maximal cones listed) and of (P^1)^7 to (P^1)^9 (the
2^k maximal cones listed), ``integral`` on the full simplex on 10 to 12
vertices, and ``integral`` on ``inputs/projective_plane.json``.
The generated documents go to a temporary directory.  A run that exits
other than 0 stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations, product
from pathlib import Path
from statistics import median
from time import perf_counter


def projective_space_document(n: int) -> dict:
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [list(c) for c in combinations(range(n + 1), n)]
    return {"schema_version": 1, "kind": "fan", "n": n, "rays": rays, "cones": cones}


def p1_power_document(k: int) -> dict:
    rays = [[s if j == i else 0 for j in range(k)] for i in range(k) for s in (1, -1)]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=k)]
    return {"schema_version": 1, "kind": "fan", "n": k, "rays": rays, "cones": cones}


def full_simplex_document(vertices: int) -> dict:
    return {"schema_version": 1, "kind": "complex", "vertex_count": vertices, "facets": [list(range(vertices))]}


def wall_time(tree: Path, command: str, document: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "dualcech", command, str(document), "--json"],
        env=env, capture_output=True, text=True,
    )
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{command} {document.name} exited {done.returncode}\n{done.stderr}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    with tempfile.TemporaryDirectory() as scratch:
        def written(name: str, doc: dict) -> Path:
            path = Path(scratch) / name
            path.write_text(json.dumps(doc))
            return path

        rows = [(f"toric P^{n}", "toric", written(f"p{n}_fan.json", projective_space_document(n))) for n in range(8, 12)]
        rows += [(f"toric (P^1)^{k}", "toric", written(f"p1_{k}_fan.json", p1_power_document(k))) for k in range(7, 10)]
        rows += [
            (f"integral simplex {v}", "integral", written(f"simplex_{v}.json", full_simplex_document(v)))
            for v in range(10, 13)
        ]
        rows.append(("integral projective_plane", "integral", tree / "inputs" / "projective_plane.json"))
        for label, command, path in rows:
            times = [wall_time(tree, command, path) for _ in range(args.runs)]
            print(f"{label:26s} {median(times):8.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
