#!/usr/bin/env python3
"""Fresh-process wall times of the commands whose cost grows with the input.

    python3 scripts/scaling.py TREE [--runs 3]

TREE is a checkout holding ``src/dualcech`` and ``inputs/``.  Every row
runs ``python3 -m dualcech COMMAND DOCUMENT --json`` in a new process
with the caller's environment and ``TREE/src`` on ``PYTHONPATH``,
``--runs`` times, and prints the median wall time in seconds.  The first
four rows time start-up: ``verify-lemma31`` on ``inputs/lm_2_1_1.json``,
``betti`` on ``inputs/projective_plane.json``, ``toric`` on
``inputs/pn_fan_2.json`` and ``degeneration`` on
``inputs/bicomplex_d2.json``, documents small enough that the process
spends its time starting and loading the command's modules.  The rest
are ``verify-lemma31`` on the model in 6 variables with components
x_1, x_2, x_3 of multiplicity 3 at degree bounds 1000 and 2000,
``toric`` on the full boundary of P^8 to P^11 (the n + 1 maximal cones
listed) and of (P^1)^7 to (P^1)^9 (the 2^k maximal cones listed),
``toric`` on P^9 and (P^1)^8 again with their rays moved by one GL(n, Z)
matrix drawn from a fixed seed (``disguised_document``), so that no ray
is a standard basis vector and deciding a cone takes real elimination,
``betti`` on the full simplex on 13 to 16 vertices, ``integral`` on the
full simplex on 10 to 12 vertices, ``integral`` on
``inputs/projective_plane.json`` and on its joins RP^2 * RP^2 and
RP^2 * RP^2 * RP^2 (the facets of a join are the unions of one facet of
each factor, on disjoint vertices; their torsion leaves a residual to
the Smith normal form after the unit pivots), ``integral`` on the joins
M_3 * M_3 and M_3 * M_5 of Moore spaces (``moore_space_document``; the
first has Z/3 in degrees 4 and 5, the second no torsion), and
``degeneration`` on
the tensor product of the constant Cech cochains of two simplex
boundaries, on 5x5, 6x5 and 6x6 vertices.  That bicomplex has the
coboundary of the first factor times the identity as its horizontal
maps and (-1)^p times the identity times the coboundary of the second as
its vertical maps, every map given as a dense matrix of 0 and +-1; it
degenerates at the second page, so the command exits 0.  The last rows
are ``hodge`` on m hyperplanes in general position in P^n
(``make_inputs.general_hyperplanes``) at (n, m) = (5, 9), (6, 10) and
(6, 12): every layer goes through the Cech complex and its functoriality
check.
The generated documents go to a temporary directory.  A run that exits
other than 0 stops the script, except on ``bicomplex_d2.json``, the
nonzero-d2 instance, where ``degeneration`` exits 2 by design and any
other code stops it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import combinations, product
from pathlib import Path
from statistics import median
from time import perf_counter

from make_inputs import general_hyperplanes


def projective_space_document(n: int) -> dict:
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [list(c) for c in combinations(range(n + 1), n)]
    return {"schema_version": 1, "kind": "fan", "n": n, "rays": rays, "cones": cones}


def p1_power_document(k: int) -> dict:
    rays = [[s if j == i else 0 for j in range(k)] for i in range(k) for s in (1, -1)]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=k)]
    return {"schema_version": 1, "kind": "fan", "n": k, "rays": rays, "cones": cones}


def disguised_document(doc: dict, seed: int = 0) -> dict:
    """The fan document ``doc`` with every ray moved by one GL(n, Z) matrix, a product of 4n shears drawn from ``seed``.

    A shear adds +-1 times one row of the matrix to another, so the matrix
    is unimodular and keeps every ray primitive and every cone's
    determinant and minors up to sign.
    """
    rng = random.Random(seed)
    n = doc["n"]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
    return {**doc, "rays": [[sum(x * r for x, r in zip(row, ray)) for row in u] for ray in doc["rays"]]}


def full_simplex_document(vertices: int) -> dict:
    return {"schema_version": 1, "kind": "complex", "vertex_count": vertices, "facets": [list(range(vertices))]}


def moore_space_document(m: int) -> dict:
    """A Moore space with integral cohomology (Z, 0, Z/m): a disk whose boundary wraps m times around a circle.

    Vertices 0-2 are the circle c_0, c_1, c_2, vertices 3..3m+2 the disk's
    boundary a_0..a_{3m-1} and vertex 3m+3 its cone point o; for each i the
    facets are {c_i, c_{i+1}, a_i}, {c_{i+1}, a_i, a_{i+1}} and
    {o, a_i, a_{i+1}}, with c indices mod 3 and a indices mod 3m.
    """
    o = 3 * m + 3
    facets = []
    for i in range(3 * m):
        c, c_next, a, a_next = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % (3 * m)
        facets += [sorted((c, c_next, a)), sorted((c_next, a, a_next)), sorted((o, a, a_next))]
    return {"schema_version": 1, "kind": "complex", "vertex_count": o + 1, "facets": facets}


def join_document(*docs: dict) -> dict:
    """The join of the complex documents ``docs``, each on its own vertices, numbered after the ones before it."""
    offsets = [0]
    for doc in docs:
        offsets.append(offsets[-1] + doc["vertex_count"])
    facets = [
        [offset + v for offset, facet in zip(offsets, choice) for v in facet]
        for choice in product(*(doc["facets"] for doc in docs))
    ]
    return {"schema_version": 1, "kind": "complex", "vertex_count": offsets[-1], "facets": facets}


def simplex_boundary_cochains(a: int) -> tuple[list[int], list[list[list[int]]]]:
    """Dimensions and coboundaries of the constant Cech cochains on the boundary of the simplex on ``a`` vertices."""
    levels = [list(combinations(range(a), k)) for k in range(1, a)]
    coboundaries = []
    for lower, upper in zip(levels, levels[1:]):
        index = {s: i for i, s in enumerate(lower)}
        d = [[0] * len(lower) for _ in upper]
        for row, tau in zip(d, upper):
            for pos in range(len(tau)):
                row[index[tau[:pos] + tau[pos + 1:]]] = (-1) ** pos
        coboundaries.append(d)
    return [len(level) for level in levels], coboundaries


def tensor_bicomplex_document(a: int, b: int) -> dict:
    dims_a, d_a = simplex_boundary_cochains(a)
    dims_b, d_b = simplex_boundary_cochains(b)

    def kron(x, y):
        return [[u * v for u in rx for v in ry] for rx in x for ry in y]

    def eye(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    horizontal = [
        {"p": p, "q": q, "matrix": kron(d_a[p], eye(dims_b[q]))} for p in range(len(d_a)) for q in range(len(dims_b))
    ]
    vertical = [
        {"p": p, "q": q, "matrix": kron(eye(dims_a[p]), [[(-1) ** p * x for x in row] for row in d_b[q]])}
        for p in range(len(dims_a))
        for q in range(len(d_b))
    ]
    dims = [[x * y for x in dims_a] for y in dims_b]
    return {"schema_version": 1, "kind": "bicomplex", "dims": dims, "horizontal": horizontal, "vertical": vertical}


def local_model_document(degree_bound: int) -> dict:
    return {
        "schema_version": 1, "kind": "localmodel", "n": 6,
        "components": [1, 2, 3], "multiplicities": [3, 3, 3], "degree_bound": degree_bound,
    }


def wall_time(tree: Path, command: str, document: Path, code: int = 0) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "dualcech", command, str(document), "--json"],
        env=env, capture_output=True, text=True,
    )
    elapsed = perf_counter() - start
    if done.returncode != code:
        raise SystemExit(f"{command} {document.name} exited {done.returncode}, not {code}\n{done.stderr}")
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

        inputs = tree / "inputs"
        # start-up rows: one small committed document per command path, so
        # the time is mostly the interpreter and the modules the command loads
        rows = [
            ("start verify-lemma31", "verify-lemma31", inputs / "lm_2_1_1.json"),
            ("start betti", "betti", inputs / "projective_plane.json"),
            ("start toric", "toric", inputs / "pn_fan_2.json"),
            ("start degeneration", "degeneration", inputs / "bicomplex_d2.json", 2),
        ]
        rows += [
            (f"verify-lemma31 K={k}", "verify-lemma31", written(f"lm_6_k{k}.json", local_model_document(k)))
            for k in (1000, 2000)
        ]
        rows += [(f"toric P^{n}", "toric", written(f"p{n}_fan.json", projective_space_document(n))) for n in range(8, 12)]
        rows += [(f"toric (P^1)^{k}", "toric", written(f"p1_{k}_fan.json", p1_power_document(k))) for k in range(7, 10)]
        rows.append(("toric P^9 disguised", "toric", written("p9_disguised.json", disguised_document(projective_space_document(9)))))
        rows.append(
            ("toric (P^1)^8 disguised", "toric", written("p1_8_disguised.json", disguised_document(p1_power_document(8))))
        )
        rows += [
            (f"betti simplex {v}", "betti", written(f"simplex_{v}.json", full_simplex_document(v)))
            for v in range(13, 17)
        ]
        rows += [
            (f"integral simplex {v}", "integral", written(f"simplex_{v}.json", full_simplex_document(v)))
            for v in range(10, 13)
        ]
        rp2_path = inputs / "projective_plane.json"
        rows.append(("integral projective_plane", "integral", rp2_path))
        rp2 = json.loads(rp2_path.read_text())
        rows += [
            (f"integral RP^2 join x{k}", "integral", written(f"rp2_join_{k}.json", join_document(*[rp2] * k)))
            for k in (2, 3)
        ]
        m3 = moore_space_document(3)
        for m in (3, 5):
            path = written(f"m3_join_m{m}.json", join_document(m3, moore_space_document(m)))
            rows.append((f"integral M_3 * M_{m}", "integral", path))
        rows += [
            (f"degeneration {a}x{b}", "degeneration", written(f"tensor_{a}x{b}.json", tensor_bicomplex_document(a, b)))
            for a, b in ((5, 5), (6, 5), (6, 6))
        ]
        rows += [
            (f"hodge {m} hyperplanes P^{n}", "hodge", written(f"hyperplanes_{n}_{m}.json", general_hyperplanes(n, m)))
            for n, m in ((5, 9), (6, 10), (6, 12))
        ]
        for label, command, path, *code in rows:
            times = [wall_time(tree, command, path, *code) for _ in range(args.runs)]
            print(f"{label:26s} {median(times):8.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
