#!/usr/bin/env python3
"""Structure-sheaf cohomology of toric boundary configurations.

    PYTHONPATH=src python3 scripts/toric_boundary_demo.py

Prints, for the projective-space fans and the product of two lines, the
dimension of the full boundary's dual complex, the structure-sheaf
cohomology of the boundary, and the Euler identity between the alternating
sum of that cohomology and the face numbers of the dual complex.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dualcech import simplicial, toric


def describe(name: str, fan: toric.Fan) -> None:
    certificate, delta = toric.checked_boundary(fan, range(len(fan.rays)))
    totals = simplicial.betti_numbers(delta)
    chi_sheaf = sum((-1) ** k * t for k, t in enumerate(totals))
    chi_delta = simplicial.euler_characteristic(delta)
    print(f"{name:12s} rays {len(fan.rays)}  dual dim {delta.dim}  "
          f"totals {tuple(totals)}  chi {chi_sheaf} = {chi_delta}  [{certificate}]")
    assert chi_sheaf == chi_delta


def main() -> None:
    for n in range(2, 7):
        describe(f"P^{n}", toric.projective_space_fan(n))
    p1xp1 = toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    describe("P^1 x P^1", p1xp1)


if __name__ == "__main__":
    main()
