#!/usr/bin/env python3
"""Structure-sheaf cohomology of toric boundary configurations.

    PYTHONPATH=src python3 scripts/toric_boundary_demo.py

Prints, for the projective-space fans and the product of two lines, the
assembled cohomology of the full boundary next to the Betti numbers of the
dual complex, plus the Euler identity between the stratum tables and the
dual complex.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dualcech import simplicial, snc, toric


def describe(name: str, fan: toric.Fan) -> None:
    selected = range(len(fan.rays))
    divisor = toric.boundary_divisor(fan, selected)
    delta = snc.dual_complex(divisor)
    report = snc.combinatorial_cohomology_check(divisor)
    chi_tables = snc.sheaf_euler_characteristic(divisor)
    chi_delta = simplicial.euler_characteristic(delta)
    certificate = toric.completeness_certificate(fan)
    print(f"{name:12s} rays {len(fan.rays)}  dual dim {delta.dim}  "
          f"totals {tuple(report.totals)}  chi {chi_tables} = {chi_delta}  [{certificate}]")
    assert chi_tables == chi_delta


def main() -> None:
    for n in range(2, 7):
        describe(f"P^{n}", toric.projective_space_fan(n))
    p1xp1 = toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    describe("P^1 x P^1", p1xp1)


if __name__ == "__main__":
    main()
