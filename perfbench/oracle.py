"""Closed-form expected answers for the benchmark's generated documents.

Nothing here imports dualcech: every expected number comes from a formula
about the shape the generator built, so the library never checks itself.
"""

from __future__ import annotations


def sphere_betti(dim: int) -> list[int]:
    """Rational Betti numbers of the sphere S^dim, degrees 0..dim."""
    if dim == 0:
        return [2]
    return [1] + [0] * (dim - 1) + [1]


def ball_betti(vertices: int) -> list[int]:
    """Betti numbers of the full simplex on ``vertices`` vertices (contractible)."""
    return [1] + [0] * (vertices - 1)


def euler(betti: list[int]) -> int:
    return sum((-1) ** k * b for k, b in enumerate(betti))


def toric_expectation(betti: list[int], selected: list[int]) -> dict:
    """The `toric` result fields fixed by the dual complex's homotopy type.

    Every stratum of a smooth toric boundary has vanishing higher
    structure-sheaf cohomology, so the assembled totals are the Betti
    numbers of the dual complex and both Euler characteristics equal its
    Euler characteristic.
    """
    chi = euler(betti)
    return {
        "smooth": True,
        "selected_rays": sorted(set(selected)),
        "totals": betti,
        "dual_complex_euler_characteristic": chi,
        "sheaf_euler_characteristic": chi,
    }


def lemma31_expectation(components: int, degree_bound: int) -> dict:
    """Lemma 3.1: the augmented restriction complex is exact in every degree."""
    return {
        "exact": True,
        "degree_bound": degree_bound,
        "per_degree": [
            {"degree": k, "homology": [0] * (components + 1)} for k in range(degree_bound + 1)
        ],
    }


def kunneth_grid(h_a: list[int], h_b: list[int], width: int, height: int) -> list[list[int]]:
    """E2 of a tensor product bicomplex: cell (p, q) holds h^p(A) * h^q(B), rows indexed by q."""
    return [
        [(h_a[p] if p < len(h_a) else 0) * (h_b[q] if q < len(h_b) else 0) for p in range(width + 1)]
        for q in range(height + 1)
    ]


def degeneration_expectation(
    h_a: list[int], h_b: list[int], width: int, height: int, zigzag: bool
) -> tuple[dict, int]:
    """Pages of a tensor product, optionally direct-summed with one zigzag.

    The zigzag (0,1) -> (1,1) <- (1,0) -> (2,0) of one-dimensional cells has
    zero total cohomology but leaves one class at each end on E2, joined
    by a nonzero d2; so E2 gains 1 at (0,1) and (2,0), Einf is unchanged,
    and the command reports the failed degeneration with exit code 2.
    """
    einf = kunneth_grid(h_a, h_b, width, height)
    e2 = [row[:] for row in einf]
    if zigzag:
        e2[1][0] += 1
        e2[0][2] += 1
    expect = {"degenerates_at_second_page": not zigzag, "E2": e2, "Einf": einf}
    return expect, 2 if zigzag else 0


def mismatches(expect: dict, expected_code: int, code: int, result: dict | None) -> list[str]:
    """Every way a CLI answer differs from its closed-form expectation."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if result is None:
        problems.append("no JSON report")
        return problems
    for key, want in expect.items():
        got = result.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems
