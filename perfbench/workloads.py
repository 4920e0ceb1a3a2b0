"""Seeded input documents for the benchmark workloads.

Each workload is a fixed cycle of document shapes.  The seed decides the
contents (lattice coordinates, which rays or coordinates are chosen, the
change of basis hiding a tensor product), never the shape, so every seed
costs the program about the same and the figures of different seeds are
comparable.  Every document carries its expected answer from ``oracle``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction
from itertools import combinations, product

import oracle

SCHEMA_VERSION = 1


@dataclass
class Op:
    """One CLI call: ``dualcech <command> <doc> --json`` and its expected answer."""

    command: str
    doc: dict
    expect: dict
    code: int
    shape: str


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple  # the two cheapest first
    make: Callable[[tuple, random.Random], Op]


# ------------------------------------------------------------ toric_boundary


def _disguise_fan(n: int, rays: list[list[int]], cones: list[list[int]], rng: random.Random):
    """Apply a random GL(n, Z) change of lattice basis and shuffle the ray order.

    Both preserve smoothness and the cone combinatorics, so the boundary's
    dual complex, and hence the answer, is unchanged.
    """
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            sign = rng.choice((1, -1))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = [[signs[k] * x for x in u[k]] for k in order]
    moved = [[sum(u[i][k] * ray[k] for k in range(n)) for i in range(n)] for ray in rays]
    perm = list(range(len(rays)))
    rng.shuffle(perm)  # ray r is written at position perm[r]
    new_rays = [None] * len(rays)
    for r, ray in enumerate(moved):
        new_rays[perm[r]] = ray
    new_cones = [sorted(perm[r] for r in cone) for cone in cones]
    rng.shuffle(new_cones)
    return new_rays, new_cones, perm


def _fan_doc(n, rays, cones, selected=None) -> dict:
    doc = {"kind": "fan", "schema_version": SCHEMA_VERSION, "n": n, "rays": rays, "cones": cones}
    if selected is not None:
        doc["selected_rays"] = selected
    return doc


def _projective_space(n: int):
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    return rays, [list(c) for c in combinations(range(n + 1), n)]


def _p1_power(k: int):
    rays = []
    for i in range(k):
        rays.append([1 if j == i else 0 for j in range(k)])
        rays.append([-1 if j == i else 0 for j in range(k)])
    return rays, [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=k)]


def make_toric(shape, rng: random.Random) -> Op:
    family, n, subset = shape
    rays, cones = _projective_space(n) if family == "P" else _p1_power(n)
    rays, cones, perm = _disguise_fan(n, rays, cones, rng)
    if subset is None:
        # the full boundary of a complete simplicial fan is a sphere S^{n-1}
        selected = list(range(len(rays)))
        expect = oracle.toric_expectation(oracle.sphere_betti(n - 1), selected)
        doc = _fan_doc(n, rays, cones)
    else:
        # every proper subset of the n+1 rays of P^n spans a cone: a full simplex
        selected = sorted(perm[r] for r in rng.sample(range(n + 1), subset))
        expect = oracle.toric_expectation(oracle.ball_betti(subset), selected)
        doc = _fan_doc(n, rays, cones, selected)
    label = ("P^%d" % n if family == "P" else "(P^1)^%d" % n) + ("" if subset is None else f"/{subset}")
    return Op("toric", doc, expect, 0, label)


# fifteen shapes: an odd count puts the median op inside one shape's
# repeats (P^7/6) rather than between the two shapes on either side of it
TORIC_SHAPES = (
    ("P1", 3, None),
    ("P", 6, 2),
    ("P", 5, 3),
    ("P", 6, 5),
    ("P", 5, None),
    ("P", 7, 3),
    ("P1", 4, None),
    ("P", 7, 6),
    ("P", 8, 4),
    ("P", 6, None),
    ("P", 8, 7),
    ("P1", 5, None),
    ("P", 7, None),
    ("P", 8, None),
    ("P1", 6, None),
)


# ------------------------------------------------------------- lemma31_sweep


def make_lemma31(shape, rng: random.Random) -> Op:
    ambient, components, multiplicities, degree_bound = shape
    mults = list(multiplicities)
    if components is None:  # the seed chooses the coordinates and their multiplicities
        components = sorted(rng.sample(range(1, ambient + 1), len(mults)))
        rng.shuffle(mults)
    doc = {
        "kind": "localmodel",
        "schema_version": SCHEMA_VERSION,
        "n": ambient,
        "components": list(components),
        "multiplicities": mults,
        "degree_bound": degree_bound,
    }
    expect = oracle.lemma31_expectation(len(components), degree_bound)
    return Op("verify-lemma31", doc, expect, 0, f"n={ambient} c={doc['components']} r={mults} d={degree_bound}")


# every model of the ambient <= 4, multiplicity {1,2,3}, degree-8 box (336,
# 255 of them in ambient 4), plus three ambient-5 models whose coordinates
# the seed chooses
LEMMA31_SHAPES = tuple(
    (ambient, components, ms, 8)
    for ambient in range(1, 5)
    for size in range(1, ambient + 1)
    for components in combinations(range(1, ambient + 1), size)
    for ms in product((1, 2, 3), repeat=size)
) + ((5, None, (1, 1, 1), 8), (5, None, (2, 2, 2), 8), (5, None, (1, 1, 1, 1, 1), 8))


# ------------------------------------------------------------ spectral_pages


def _simplex_boundary(a: int):
    """Constant-coefficient Cech cochains of the boundary of the simplex on ``a`` vertices."""
    levels = [list(combinations(range(a), k + 1)) for k in range(a - 1)]
    diffs = []
    for p in range(a - 2):
        index = {s: i for i, s in enumerate(levels[p])}
        m = [[0] * len(levels[p]) for _ in levels[p + 1]]
        for r, tau in enumerate(levels[p + 1]):
            for pos in range(len(tau)):
                m[r][index[tau[:pos] + tau[pos + 1 :]]] = -1 if pos % 2 else 1
        diffs.append(m)
    return [len(level) for level in levels], diffs


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _zeros(r, c):
    return [[0] * c for _ in range(r)]


def _direct_sum(m, cols_m, n, cols_n):
    return [row + [0] * cols_n for row in m] + [[0] * cols_m + row for row in n]


_MULTIPLIERS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def _conjugate(dims, horizontal, vertical, rng: random.Random) -> None:
    """Change basis in every cell by random elementary matrices E = I + c e_ij.

    A map leaving the cell becomes M E^-1 (column j minus c times column i),
    a map entering it becomes E N (row i plus c times row j); the
    bicomplex is isomorphic to the original, with rational entries.
    """
    for (p, q), n in sorted(dims.items()):
        if n < 2:
            continue
        leaving = [m for m in (horizontal.get((p, q)), vertical.get((p, q))) if m is not None]
        entering = [m for m in (horizontal.get((p - 1, q)), vertical.get((p, q - 1))) if m is not None]
        for _ in range(max(1, n // 4)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice(_MULTIPLIERS)
            for m in leaving:
                for row in m:
                    if row[i]:
                        row[j] = row[j] - c * row[i]
            for m in entering:
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]


def _entry(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _encode_maps(maps) -> list[dict]:
    """Nonzero maps only: an omitted map is zero, and a 0-row matrix has no JSON shape."""
    return [
        {"p": p, "q": q, "matrix": [[_entry(x) for x in row] for row in m]}
        for (p, q), m in sorted(maps.items())
        if any(x for row in m for x in row)
    ]


def make_spectral(shape, rng: random.Random) -> Op:
    a, b, zigzag = shape
    dims_a, diffs_a = _simplex_boundary(a)
    dims_b, diffs_b = _simplex_boundary(b)
    width = max(len(dims_a) - 1, 2 if zigzag else 0)
    height = len(dims_b) - 1
    while len(dims_a) <= width:  # the zigzag may reach past A's last column
        diffs_a.append(_zeros(0, dims_a[-1]))
        dims_a.append(0)
    dims = {(p, q): dims_a[p] * dims_b[q] for p in range(width + 1) for q in range(height + 1)}
    horizontal = {(p, q): _kron(diffs_a[p], _eye(dims_b[q])) for p, q in dims if p < width}
    vertical = {
        (p, q): _kron(_eye(dims_a[p]), [[(-1) ** p * x for x in row] for row in diffs_b[q]])
        for p, q in dims
        if q < height
    }
    if zigzag:
        # one-dimensional cells (0,1) -> (1,1) <- (1,0) -> (2,0) joined by identities
        extra = {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}
        for maps, (dp, dq), ones in ((horizontal, (1, 0), {(0, 1), (1, 0)}), (vertical, (0, 1), {(1, 0)})):
            for (p, q), m in maps.items():
                src, dst = extra.get((p, q), 0), extra.get((p + dp, q + dq), 0)
                block = [[1]] if (p, q) in ones else _zeros(dst, src)
                maps[(p, q)] = _direct_sum(m, dims[(p, q)], block, src)
        for cell, d in extra.items():
            dims[cell] += d
    _conjugate(dims, horizontal, vertical, rng)
    doc = {
        "kind": "bicomplex",
        "schema_version": SCHEMA_VERSION,
        "dims": [[dims[(p, q)] for p in range(width + 1)] for q in range(height + 1)],
        "horizontal": _encode_maps(horizontal),
        "vertical": _encode_maps(vertical),
    }
    expect, code = oracle.degeneration_expectation(
        oracle.sphere_betti(a - 2), oracle.sphere_betti(b - 2), width, height, zigzag
    )
    return Op("degeneration", doc, expect, code, f"{a}x{b}" + ("+zigzag" if zigzag else ""))


# tensor products of simplex boundaries on 3 and 4 vertices, two documents
# of each shape so that one seed's change of basis weighs less; 6 of 24
# carry a zigzag
SPECTRAL_SHAPES = 2 * (
    (3, 3, False),
    (3, 3, True),
    (3, 3, False),
    (3, 4, False),
    (4, 3, False),
    (3, 4, True),
    (4, 3, False),
    (3, 4, False),
    (4, 4, False),
    (4, 3, True),
    (4, 4, False),
    (4, 4, False),
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toric_boundary",
            TORIC_SHAPES,
            make_toric,
        ),
        Workload(
            "lemma31_sweep",
            LEMMA31_SHAPES,
            make_lemma31,
        ),
        Workload(
            "spectral_pages",
            SPECTRAL_SHAPES,
            make_spectral,
        ),
    )
}


def make_ops(name: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's cycle of documents for ``seed``; ``smoke`` keeps the two cheapest.

    The cheapest comes first, for the warm-up op; the seed shuffles the
    rest, so that a spell of a slower machine falls on a mix of shapes
    rather than on one group of them.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    shapes = workload.shapes[:2] if smoke else workload.shapes
    ops = [workload.make(shape, rng) for shape in shapes]
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest
