"""Acceptance suite.

One test per criterion; each prints a PASS line when its assertions hold.
All comparisons are exact (every quantity is an integer); the only stated
tolerances are wall-clock budgets, which are asserted too.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time

from dualcech import bicomplex, cli, localmodel, presheaf, simplicial, snc, toric
from dualcech.errors import HodgeMismatch
from dualcech.exactla import RationalMatrix

from helpers import (
    OracleCochainComplex,
    conjugate_presheaf,
    elliptic_triangle_divisor,
    oracle_betti,
    pn_hyperplanes_divisor,
    random_bicomplex,
    random_complex,
    random_presheaf,
    three_lines_divisor,
)


def test_acceptance_1_hyperplane_configurations():
    for n in (2, 3, 4, 5):
        start = time.perf_counter()
        report = snc.structure_sheaf_cohomology(pn_hyperplanes_divisor(n))
        elapsed = time.perf_counter() - start
        expected = tuple([1] + [0] * (n - 2) + [1])
        assert report.totals == expected
        assert report.totals[n - 1] == 1
        assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS: hyperplane configurations give (1,0,...,0,1) "
          "with the trailing 1 in degree n-1, each under a second")


def test_acceptance_2_toric_boundaries():
    for n in (2, 3, 4, 5):
        start = time.perf_counter()
        fan = toric.projective_space_fan(n)
        _, delta = toric.checked_boundary(fan, range(len(fan.rays)))
        totals = simplicial.betti_numbers(delta)
        elapsed = time.perf_counter() - start
        sphere = [1] + [0] * (n - 2) + [1]
        assert totals == sphere
        assert elapsed < 1.0
    p1xp1 = toric.make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    assert simplicial.betti_numbers(toric.checked_boundary(p1xp1, [0, 1, 2, 3])[1]) == [1, 1]
    print("ACCEPTANCE 2 PASS: toric boundaries reproduce the Betti numbers of "
          "spheres for n=2..5 and (1,1) for the product of two lines")


def test_acceptance_3_curve_euler_characteristics():
    triangle = snc.snc_curve_euler([0, 0, 0], 3)
    assert triangle.value == 0
    assert triangle.value == triangle.dual_complex_euler - triangle.genus_sum
    pair = snc.snc_curve_euler([2, 0], 2)
    assert pair.value == -2
    alternating_oracle = sum(1 - g for g in [2, 0]) - 2  # sum chi(curves) - points
    assert pair.value == alternating_oracle
    print("ACCEPTANCE 3 PASS: curve Euler characteristics match the "
          "dual-complex and alternating-sum oracles")


def test_acceptance_4_local_model_sweep():
    start = time.perf_counter()
    count = 0
    for spec in localmodel.sweep_specs(max_ambient=4, multiplicity_values=(1, 2, 3), degree_bound=8):
        verdict = localmodel.verify_exactness(spec)
        assert verdict.exact, f"not exact: {spec}"
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 336
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: all {count} local models exact through degree 8 "
          f"in {elapsed:.1f}s")


def test_acceptance_4_local_model_sweep_ambient_5():
    start = time.perf_counter()
    count = 0
    for spec in localmodel.sweep_specs(max_ambient=5, multiplicity_values=(1, 2, 3), degree_bound=8):
        verdict = localmodel.verify_exactness(spec)
        assert verdict.exact, f"not exact: {spec}"
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 1359
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: all {count} local models up to ambient 5 exact "
          f"through degree 8 in {elapsed:.1f}s")


def test_acceptance_4_local_model_sweep_ambient_6():
    start = time.perf_counter()
    count = 0
    for spec in localmodel.sweep_specs(max_ambient=6, multiplicity_values=(1, 2, 3), degree_bound=12):
        verdict = localmodel.verify_exactness(spec)
        assert verdict.exact, f"not exact: {spec}"
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 5454
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: all {count} local models up to ambient 6 exact "
          f"through degree 12 in {elapsed:.1f}s")


def test_acceptance_5_constant_presheaf_identification():
    rng = random.Random(51)
    checked = 0
    while checked < 100:
        base = random_complex(rng, max_vertices=8)
        constant = presheaf.constant_presheaf(base, 1)
        cech = presheaf.cech_complex(constant)
        assert list(cech.differentials) == [
            simplicial.coboundary_matrix(base, p) for p in range(base.dim)
        ]
        via_presheaf = presheaf.presheaf_cohomology(constant)
        assert via_presheaf == oracle_betti(base)
        assert via_presheaf == simplicial.betti_numbers(base)
        checked += 1
    print(f"ACCEPTANCE 5 PASS: constant-presheaf cohomology equals the "
          f"boundary-matrix Betti oracle on {checked} random complexes")


def test_acceptance_6_spectral_convergence():
    rng = random.Random(62)
    checked = 0
    while checked < 100:
        b = random_bicomplex(rng, max_width=3, max_height=3, cap=4)
        totals = bicomplex.total_cohomology(b)
        tc = b.total
        assert totals == OracleCochainComplex(tc.space_dims, tc.differentials).cohomology()
        e2 = bicomplex.page(b, 2)
        einf = bicomplex.page_infinity(b)
        for m in range(b.width + b.height + 1):
            diagonal = sum(
                einf.dim(p, m - p) for p in range(b.width + 1) if 0 <= m - p <= b.height
            )
            assert diagonal == totals[m]
        for cell, value in einf.dims.items():
            assert value <= e2.dim(*cell)
        checked += 1
    one = RationalMatrix.identity(1)
    crafted = bicomplex.make_bicomplex(
        dims={(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
        horizontal={(0, 1): one, (1, 0): one},
        vertical={(1, 0): one},
    )
    assert bicomplex.page(crafted, 2).dims != bicomplex.page_infinity(crafted).dims
    print(f"ACCEPTANCE 6 PASS: limit pages sum to total cohomology on {checked} "
          f"random bicomplexes and the crafted second-page differential is detected")


def test_acceptance_7_elliptic_triangle_cross_check():
    divisor = elliptic_triangle_divisor()
    report = snc.structure_sheaf_cohomology(divisor)
    assert report.totals == (1, 4, 0)
    assert report.alternating_sum() == -3
    assert snc.sheaf_euler_characteristic(divisor) == -3
    print("ACCEPTANCE 7 PASS: elliptic triangle assembles to (1,4,0) and its "
          "alternating sum -3 matches the stratum Euler sum")


def test_acceptance_8_hodge_assembly(tmp_path, capsys):
    table = snc.hodge_decomposition(three_lines_divisor())
    nonzero_prefix = tuple(table.antidiagonal_sums[:3])
    assert nonzero_prefix == (1, 1, 3)
    assert table.antidiagonal_sums == table.derham_totals
    try:
        snc.hodge_decomposition(three_lines_divisor(perturb=((0,), 1, 1)))
        raise AssertionError("perturbed table was not flagged")
    except HodgeMismatch:
        pass
    # same failure through the command line, exit code 2
    import os

    doc_path = os.path.join(os.path.dirname(__file__), "..", "inputs", "three_lines_p2.json")
    with open(doc_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    for row in doc["tables"]:
        if row["tuple"] == [0] and row.get("r") == 1 and row["q"] == 1:
            row["dim"] += 1
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["hodge", str(bad), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["result"]["match"] is False
    print("ACCEPTANCE 8 PASS: Hodge antidiagonal sums equal the deRham totals "
          "and a +1 perturbation trips the mismatch with exit code 2")


def test_acceptance_9_splitting_and_rationality(capsys):
    rng = random.Random(93)
    checked = 0
    while checked < 50:
        base = random_complex(rng, max_vertices=6)
        if not base.simplices:
            continue
        planted = presheaf.direct_sum(
            presheaf.constant_presheaf(base, 1), random_presheaf(rng, base, summands=2)
        )
        twisted, changes = conjugate_presheaf(rng, planted)
        unit = {
            s: [changes[s].entry(i, 0) for i in range(changes[s].rows)]
            for s in base.simplices
        }
        (total, constant, rest), complement = presheaf.split_constant(twisted, unit)
        assert constant == simplicial.betti_numbers(base)
        assert rest == presheaf.presheaf_cohomology(complement)
        assert total == presheaf.presheaf_cohomology(twisted)
        pieces = [
            a + b
            for a, b in zip(
                simplicial.betti_numbers(base), presheaf.presheaf_cohomology(complement)
            )
        ]
        assert total == pieces
        checked += 1
    divisor = pn_hyperplanes_divisor(2)
    delta = snc.dual_complex(divisor)
    report = snc.rational_singularity_check(
        divisor, True, presheaf.constant_presheaf(delta, 1), {s: [1] for s in delta.simplices}
    )
    assert report.obstruction_degrees == (1,)
    assert "unproven" in report.conditional_on
    print(f"ACCEPTANCE 9 PASS: cohomology is additive across {checked} planted "
          f"splittings and the circle dual complex is flagged as a conditional obstruction")
