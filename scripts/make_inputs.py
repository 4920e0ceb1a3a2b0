#!/usr/bin/env python3
"""Regenerate the example input documents under inputs/.

Run from the repository root:

    PYTHONPATH=src python3 scripts/make_inputs.py

It also writes tests/data/nonfunctorial_q1.json, a divisor whose q = 1
layer every structure-sheaf command refuses.  It stays out of inputs/,
whose divisors the tests build layer by layer.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

OUT = os.path.join(os.path.dirname(__file__), "..", "inputs")
TEST_DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")


def write(name: str, doc: dict, directory: str = OUT) -> None:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path)}")


def pn_hyperplanes(n: int) -> dict:
    """The n+1 coordinate hyperplane configuration in projective n-space."""
    components = [{"name": f"H{i}", "dim": n - 1} for i in range(n + 1)]
    strata = [list(t) for size in range(1, n + 1) for t in combinations(range(n + 1), size)]
    tables = []
    for t in strata:
        bound = (n - 1) - (len(t) - 1)
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        for q in range(1, bound + 1):
            tables.append({"tuple": t, "r": 0, "q": q, "dim": 0})
    return {
        "kind": "divisor",
        "schema_version": 1,
        "components": components,
        "strata": strata,
        "tables": tables,
    }


def elliptic_triangle() -> dict:
    """Three elliptic curves meeting pairwise in single points."""
    strata = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    tables = []
    for t in strata:
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        if len(t) == 1:
            tables.append({"tuple": t, "r": 0, "q": 1, "dim": 1})
    return {
        "kind": "divisor",
        "schema_version": 1,
        "components": [{"name": f"E{i}", "dim": 1} for i in range(3)],
        "strata": strata,
        "tables": tables,
    }


def three_lines_p2() -> dict:
    """The three coordinate lines in the projective plane, with form and deRham tables."""
    strata = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    tables = []
    for t in strata:
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        tables.append({"tuple": t, "flavor": "derham", "q": 0, "dim": 1, "restriction": "constant"})
        if len(t) == 1:
            tables.append({"tuple": t, "r": 0, "q": 1, "dim": 0})
            tables.append({"tuple": t, "r": 1, "q": 0, "dim": 0})
            tables.append({"tuple": t, "r": 1, "q": 1, "dim": 1})
            tables.append({"tuple": t, "flavor": "derham", "q": 1, "dim": 0})
            tables.append({"tuple": t, "flavor": "derham", "q": 2, "dim": 1})
        else:
            tables.append({"tuple": t, "r": 1, "q": 0, "dim": 0})
    return {
        "kind": "divisor",
        "schema_version": 1,
        "components": [{"name": f"L{i}", "dim": 1} for i in range(3)],
        "strata": strata,
        "tables": tables,
    }


def rational_triangle_check() -> dict:
    """Triangle of rational curves (dual complex a circle) with rationality
    claimed and one thickened component.

    The degree-0 sections presheaf has two-dimensional vertex spaces (the
    extra sections a multiplicity can contribute) projecting onto the
    constants over the edges; the check must split off the unit section and
    flag b_1 = 1 as an obstruction, conditional on the open degeneration
    statement.
    """
    doc = pn_hyperplanes(2)
    doc["multiplicities"] = [2, 1, 1]
    vertices = ["0", "1", "2"]
    edges = [[0, 1], [0, 2], [1, 2]]
    dims = {key: 2 for key in vertices}
    dims.update({f"{a},{b}": 1 for a, b in edges})
    restrictions = []
    for a, b in edges:
        for v in (a, b):
            restrictions.append({"from": [v], "to": [a, b], "matrix": [["1", "0"]]})
    unit = {key: ["1", "0"] for key in vertices}
    unit.update({f"{a},{b}": ["1"] for a, b in edges})
    doc["rational_check"] = {
        "claimed_rational": True,
        "dims": dims,
        "restrictions": restrictions,
        "unit": unit,
    }
    return doc


def segment_rational_check() -> dict:
    """Two rational curves meeting in a point: contractible dual complex, no obstruction."""
    strata = [[0], [1], [0, 1]]
    tables = []
    for t in strata:
        bound = 1 - (len(t) - 1)
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        for q in range(1, bound + 1):
            tables.append({"tuple": t, "r": 0, "q": q, "dim": 0})
    simplices = ["0", "1", "0,1"]
    return {
        "kind": "divisor",
        "schema_version": 1,
        "components": [{"name": "C0", "dim": 1}, {"name": "C1", "dim": 1}],
        "strata": strata,
        "tables": tables,
        "rational_check": {
            "claimed_rational": True,
            "dims": {key: 1 for key in simplices},
            "restrictions": "identity",
            "unit": {key: ["1"] for key in simplices},
        },
    }


def _faces(t: list[int]) -> list[list[int]]:
    return [t[:k] + t[k + 1 :] for k in range(len(t))]


def nonfunctorial_presheaf() -> dict:
    """Filled triangle, every space one-dimensional, restrictions not path
    independent: from (0,) into (0, 1, 2) the route through (0, 1) gives 2,
    the route through (0, 2) gives 1.  Refused with exit code 1."""
    simplices = [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    restrictions = [
        {"from": f, "to": t, "matrix": [["2" if (f, t) == ([0], [0, 1]) else "1"]]}
        for t in simplices
        if len(t) > 1
        for f in _faces(t)
    ]
    return {
        "kind": "presheaf",
        "schema_version": 1,
        "complex": {"vertex_count": 3, "facets": [[0, 1, 2]]},
        "dims": {",".join(map(str, t)): 1 for t in simplices},
        "restrictions": restrictions,
    }


def nonfunctorial_rational_check() -> dict:
    """Three surfaces through a point, with a sections presheaf that carries
    the unit section but whose restrictions are not path independent: from
    (0,) into (0, 1, 2) the route through (0, 1) is a shear, the route
    through (0, 2) the identity.  Refused with exit code 1."""
    strata = [list(t) for size in (1, 2, 3) for t in combinations(range(3), size)]
    tables = []
    for t in strata:
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        for q in range(1, 2 - (len(t) - 1) + 1):
            tables.append({"tuple": t, "r": 0, "q": q, "dim": 0})
    shear, identity = [["1", "1"], ["0", "1"]], [["1", "0"], ["0", "1"]]
    restrictions = [
        {"from": f, "to": t, "matrix": shear if (f, t) == ([0], [0, 1]) else identity}
        for t in strata
        if len(t) > 1
        for f in _faces(t)
    ]
    keys = [",".join(map(str, t)) for t in strata]
    return {
        "kind": "divisor",
        "schema_version": 1,
        "components": [{"name": f"S{i}", "dim": 2} for i in range(3)],
        "strata": strata,
        "tables": tables,
        "rational_check": {
            "claimed_rational": True,
            "dims": {key: 2 for key in keys},
            "restrictions": restrictions,
            "unit": {key: ["1", "0"] for key in keys},
        },
    }


def nonfunctorial_q1() -> dict:
    """Three 3-folds meeting in a curve, with h^1 = 1 on every stratum.

    The q = 1 restrictions are explicit and not path independent: from (0,)
    or (1,) into (0, 1, 2) the route through (0, 1) gives 2, the other
    route 1.  Every other layer is constant or zero.
    """
    strata = [list(t) for size in (1, 2, 3) for t in combinations(range(3), size)]
    tables = []
    for t in strata:
        tables.append({"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"})
        row = {"tuple": t, "r": 0, "q": 1, "dim": 1}
        if len(t) > 1:
            row["restriction"] = {
                "matrices": {",".join(map(str, f)): [[2 if f == [0, 1] else 1]] for f in _faces(t)}
            }
        tables.append(row)
        for q in range(2, 3 - (len(t) - 1) + 1):
            tables.append({"tuple": t, "r": 0, "q": q, "dim": 0})
    return {
        "schema_version": 1,
        "kind": "divisor",
        "components": [{"name": f"S{i}", "dim": 3} for i in range(3)],
        "strata": strata,
        "tables": tables,
    }


def pn_fan(n: int) -> dict:
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rays.append([-1] * n)
    cones = [list(c) for c in combinations(range(n + 1), n)]
    return {"kind": "fan", "schema_version": 1, "n": n, "rays": rays, "cones": cones}


def p1xp1_fan() -> dict:
    return {
        "kind": "fan",
        "schema_version": 1,
        "n": 2,
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    }


def nonzero_d2_bicomplex() -> dict:
    """Three columns, two rows, one unavoidable differential on the second page."""
    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[0, 1, 1], [1, 1, 0]],
        "horizontal": [
            {"p": 0, "q": 1, "matrix": [["1"]]},
            {"p": 1, "q": 0, "matrix": [["1"]]},
        ],
        "vertical": [{"p": 1, "q": 0, "matrix": [["1"]]}],
    }


def one_row_bicomplex() -> dict:
    """The coboundary complex of a hollow triangle laid out as a single row."""
    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[3, 3]],
        "horizontal": [
            {"p": 0, "q": 0, "matrix": [["-1", "1", "0"], ["-1", "0", "1"], ["0", "-1", "1"]]}
        ],
    }


def d3_staircase_bicomplex() -> dict:
    """A staircase (0,2) -> (1,2) <- (1,1) -> (2,1) <- (2,0) -> (3,0) of identities.

    The gap-0 and gap-1 steps cancel on E1 and E2, leaving one-dimensional
    E2 entries at (0,2) and (3,0) joined by the only nonzero higher
    differential, a d_3; the limit page is zero.
    """
    one = [[1]]
    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]],
        "horizontal": [
            {"p": 0, "q": 2, "matrix": one},
            {"p": 1, "q": 1, "matrix": one},
            {"p": 2, "q": 0, "matrix": one},
        ],
        "vertical": [
            {"p": 1, "q": 1, "matrix": one},
            {"p": 2, "q": 0, "matrix": one},
        ],
    }


def rational_bicomplex() -> dict:
    """The hollow triangle's cochains tensored with Q^2 -> Q by [1 1], in rational bases.

    E1 is three-dimensional at (0,0) and (1,0), E2 = Einf is one-dimensional
    there.  Each cell's basis is then changed by elementary matrices
    I + c e_ij with c in {1/2, -3/2, 2/3}: a map leaving the cell loses c
    times column i from column j, a map entering it gains c times row j in
    row i.
    """
    triangle = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    eye3 = [[int(i == j) for j in range(3)] for i in range(3)]

    def kron(a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    # cells (p, q): p from the triangle, q from Q^2 -> Q; verticals carry (-1)^p
    horizontal = {(0, 0): kron(triangle, [[1, 0], [0, 1]]), (0, 1): kron(triangle, [[1]])}
    vertical = {(0, 0): kron(eye3, [[1, 1]]), (1, 0): kron(eye3, [[-1, -1]])}
    maps = {**{("h", p, q): m for (p, q), m in horizontal.items()}, **{("v", p, q): m for (p, q), m in vertical.items()}}
    changes = [((0, 0), 0, 3, "1/2"), ((1, 0), 5, 1, "-3/2"), ((0, 1), 2, 0, "2/3"), ((1, 1), 1, 2, "1/2")]
    for cell, i, j, c in changes:
        c = Fraction(c)
        for (kind, p, q), m in maps.items():
            if (p, q) == cell:  # leaving
                for row in m:
                    row[j] -= c * row[i]
            if (p + (kind == "h"), q + (kind == "v")) == cell:  # entering
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]

    def entry(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def encoded(kind):
        return [
            {"p": p, "q": q, "matrix": [[entry(x) for x in row] for row in m]}
            for (k, p, q), m in sorted(maps.items())
            if k == kind
        ]

    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[6, 6], [3, 3]],
        "horizontal": encoded("h"),
        "vertical": encoded("v"),
    }


def bad_entry_bicomplex() -> dict:
    """A boolean matrix entry, refused with its JSON pointer."""
    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[1, 1]],
        "horizontal": [{"p": 0, "q": 0, "matrix": [[True]]}],
    }


def vertex_presheaf_triangle() -> dict:
    """Hollow triangle with one-dimensional vertex spaces and zero edge spaces."""
    return {
        "kind": "presheaf",
        "schema_version": 1,
        "complex": {"vertex_count": 3, "facets": [[0, 1], [0, 2], [1, 2]]},
        "dims": {"0": 1, "1": 1, "2": 1},
        "restrictions": [],
    }


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    write("empty.json", {"kind": "complex", "schema_version": 1, "vertex_count": 0, "facets": []})
    write(
        "triangle_boundary.json",
        {"kind": "complex", "schema_version": 1, "vertex_count": 3, "facets": [[0, 1], [0, 2], [1, 2]]},
    )
    write(
        "tetrahedron_boundary.json",
        {
            "kind": "complex",
            "schema_version": 1,
            "vertex_count": 4,
            "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        },
    )
    write(
        "projective_plane.json",
        {
            "kind": "complex",
            "schema_version": 1,
            "vertex_count": 6,
            "facets": [
                [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
            ],
        },
    )
    for n in (2, 3, 4, 5):
        write(f"pn_hyperplanes_{n}.json", pn_hyperplanes(n))
    write("elliptic_triangle.json", elliptic_triangle())
    write("three_lines_p2.json", three_lines_p2())
    write("rational_triangle_check.json", rational_triangle_check())
    write("segment_rational_check.json", segment_rational_check())
    for n in (1, 2, 3):
        write(f"pn_fan_{n}.json", pn_fan(n))
    write("p1xp1_fan.json", p1xp1_fan())
    write(
        "lm_2_1_1.json",
        {
            "kind": "localmodel",
            "schema_version": 1,
            "n": 2,
            "components": [1, 2],
            "multiplicities": [1, 1],
            "degree_bound": 6,
        },
    )
    write(
        "lm_3_213.json",
        {
            "kind": "localmodel",
            "schema_version": 1,
            "n": 3,
            "components": [1, 2, 3],
            "multiplicities": [2, 1, 3],
            "degree_bound": 8,
        },
    )
    write("bicomplex_d2.json", nonzero_d2_bicomplex())
    write("bicomplex_row.json", one_row_bicomplex())
    write("bicomplex_d3.json", d3_staircase_bicomplex())
    write("bicomplex_rational.json", rational_bicomplex())
    write("bicomplex_bad_entry.json", bad_entry_bicomplex())
    write("vertex_presheaf_triangle.json", vertex_presheaf_triangle())
    write("nonfunctorial_presheaf.json", nonfunctorial_presheaf())
    write("nonfunctorial_rational_check.json", nonfunctorial_rational_check())
    write("nonfunctorial_q1.json", nonfunctorial_q1(), TEST_DATA)


if __name__ == "__main__":
    main()
