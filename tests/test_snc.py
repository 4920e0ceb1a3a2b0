import glob
import json
import os
import random

import pytest

from dualcech import formats, presheaf, simplicial, snc
from dualcech.errors import (
    FunctorialityViolation,
    HodgeMismatch,
    HypothesisViolated,
    InputError,
    MissingTable,
    NotClosed,
    NotSimplicial,
    UnderdeterminedRestrictions,
)
from dualcech.snc import DERHAM, SHEAF, TableEntry

from helpers import (
    elliptic_triangle_divisor,
    nonfunctorial_q1_document,
    oracle_is_functorial,
    oracle_layered_report,
    pn_hyperplanes_divisor,
    recorded_cech_work,
    three_lines_divisor,
)

INPUTS = os.path.join(os.path.dirname(__file__), "..", "inputs")


def single_component(name="X", dim=1, h_row=(1, 1)):
    tables = {((0,), SHEAF, 0, q): TableEntry(d if q else 1, "constant" if q == 0 else None) for q, d in enumerate(h_row)}
    return snc.make_snc_divisor([(name, dim)], [(0,)], tables)


def test_dual_complex_of_hyperplanes_is_sphere():
    for n in (2, 3, 4):
        delta = snc.dual_complex(pn_hyperplanes_divisor(n))
        expected = [1] + [0] * (n - 2) + [1]
        assert simplicial.betti_numbers(delta) == expected


def test_dual_complex_single_component():
    delta = snc.dual_complex(single_component())
    assert delta.simplices == frozenset({(0,)})


def test_dual_complex_two_disjoint_components():
    d = snc.make_snc_divisor(
        [("A", 1), ("B", 1)],
        [(0,), (1,)],
        {
            ((0,), SHEAF, 0, 0): TableEntry(1, "constant"),
            ((0,), SHEAF, 0, 1): TableEntry(0),
            ((1,), SHEAF, 0, 0): TableEntry(1, "constant"),
            ((1,), SHEAF, 0, 1): TableEntry(0),
        },
    )
    delta = snc.dual_complex(d)
    assert simplicial.betti_numbers(delta) == [2]


def test_dual_complex_requires_irreducibility():
    d = snc.make_snc_divisor(
        [("A", 1)],
        [(0,)],
        {((0,), SHEAF, 0, 0): TableEntry(1, "constant")},
        irreducible=False,
    )
    with pytest.raises(NotSimplicial):
        snc.dual_complex(d)


def test_strata_downward_closure_enforced():
    with pytest.raises(NotClosed):
        snc.make_snc_divisor([("A", 1), ("B", 1)], [(0,), (0, 1)], {})


def test_build_presheaf_structure_layer_is_constant():
    d = elliptic_triangle_divisor()
    v = snc.layer(d, snc.dual_complex(d), 0, 0)
    assert all(dim == 1 for dim in v.dims.values())


def test_build_presheaf_vertex_supported_layer():
    d = elliptic_triangle_divisor()
    v = snc.layer(d, snc.dual_complex(d), 0, 1)
    assert {s: v.dim(s) for s in sorted(v.base.simplices)} == {
        (0,): 1, (1,): 1, (2,): 1, (0, 1): 0, (0, 2): 0, (1, 2): 0,
    }


def test_build_presheaf_zero_tables_give_zero_presheaf():
    d = three_lines_divisor()
    v = snc.layer(d, snc.dual_complex(d), 1, 0)
    assert v.is_zero() and v.restrictions == {}


def test_build_presheaf_missing_table():
    d = snc.make_snc_divisor(
        [("A", 2)], [(0,)], {((0,), SHEAF, 0, 0): TableEntry(1, "constant")}
    )
    with pytest.raises(MissingTable):
        snc.layer(d, snc.dual_complex(d), 0, 1)


def test_build_presheaf_with_explicit_restriction_matrices():
    # two surfaces through an elliptic curve; the h^1 layer needs genuine
    # maps, supplied explicitly on the edge row
    from dualcech.exactla import RationalMatrix

    strata = [(0,), (1,), (0, 1)]
    one = RationalMatrix.identity(1)
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        bound = 2 - (len(t) - 1)
        for q in range(1, bound + 1):
            dim = 1 if q == 1 else 0
            if t == (0, 1) and q == 1:
                tables[(t, SHEAF, 0, q)] = TableEntry(1, {(0,): one, (1,): one})
            else:
                tables[(t, SHEAF, 0, q)] = TableEntry(dim)
    d = snc.make_snc_divisor([("S0", 2), ("S1", 2)], strata, tables)
    layer = snc.layer(d, snc.dual_complex(d), 0, 1)
    assert presheaf.presheaf_cohomology(layer) == [1, 0]
    assert snc.structure_sheaf_cohomology(d).totals == (1, 1, 0)


def test_build_presheaf_refuses_underdetermined_restrictions():
    # two surfaces meeting in a curve, both sides with h^1 = 1 and no maps
    strata = [(0,), (1,), (0, 1)]
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        bound = 2 - (len(t) - 1)
        for q in range(1, bound + 1):
            tables[(t, SHEAF, 0, q)] = TableEntry(1 if q == 1 else 0)
    d = snc.make_snc_divisor([("S0", 2), ("S1", 2)], strata, tables)
    with pytest.raises(UnderdeterminedRestrictions):
        snc.layer(d, snc.dual_complex(d), 0, 1)


def test_structure_sheaf_cohomology_hyperplanes():
    assert snc.structure_sheaf_cohomology(pn_hyperplanes_divisor(4)).totals == (1, 0, 0, 1)


def test_structure_sheaf_cohomology_elliptic_triangle():
    report = snc.structure_sheaf_cohomology(elliptic_triangle_divisor())
    assert report.totals == (1, 4, 0)
    assert report.alternating_sum() == -3
    assert snc.sheaf_euler_characteristic(elliptic_triangle_divisor()) == -3


def test_structure_sheaf_single_component_is_own_row():
    report = snc.structure_sheaf_cohomology(single_component(h_row=(1, 1)))
    assert report.totals == (1, 1)


def test_reduced_forms_three_lines():
    assert snc.reduced_forms_cohomology(three_lines_divisor(), 1).totals == (0, 3, 0)


def test_reduced_forms_degree_zero_is_structure_sheaf():
    d = three_lines_divisor()
    assert snc.reduced_forms_cohomology(d, 0) == snc.structure_sheaf_cohomology(d)


def test_reduced_forms_above_all_dimensions_vanish():
    totals = snc.reduced_forms_cohomology(three_lines_divisor(), 5).totals
    assert all(t == 0 for t in totals)


def test_derham_three_lines():
    assert snc.derham_cohomology(three_lines_divisor()).totals == (1, 1, 3, 0)


def test_derham_single_component_is_own_row():
    tables = {
        ((0,), SHEAF, 0, 0): TableEntry(1, "constant"),
        ((0,), SHEAF, 0, 1): TableEntry(1),
        ((0,), DERHAM, 0, 0): TableEntry(1, "constant"),
        ((0,), DERHAM, 0, 1): TableEntry(2),
        ((0,), DERHAM, 0, 2): TableEntry(1),
    }
    d = snc.make_snc_divisor([("E", 1)], [(0,)], tables)
    assert snc.derham_cohomology(d).totals == (1, 2, 1)


def test_derham_two_disjoint_components_add():
    tables = {}
    for i in (0, 1):
        tables[((i,), SHEAF, 0, 0)] = TableEntry(1, "constant")
        tables[((i,), SHEAF, 0, 1)] = TableEntry(0)
        tables[((i,), DERHAM, 0, 0)] = TableEntry(1, "constant")
        tables[((i,), DERHAM, 0, 1)] = TableEntry(0)
        tables[((i,), DERHAM, 0, 2)] = TableEntry(1)
    d = snc.make_snc_divisor([("A", 1), ("B", 1)], [(0,), (1,)], tables)
    assert snc.derham_cohomology(d).totals == (2, 0, 2)


def test_hodge_three_lines():
    table = snc.hodge_decomposition(three_lines_divisor())
    assert table.entries == ((1, 1, 0), (0, 3, 0))
    assert table.antidiagonal_sums == (1, 1, 3, 0)
    assert table.derham_totals == (1, 1, 3, 0)


def test_hodge_single_elliptic_curve():
    tables = {
        ((0,), SHEAF, 0, 0): TableEntry(1, "constant"),
        ((0,), SHEAF, 0, 1): TableEntry(1),
        ((0,), SHEAF, 1, 0): TableEntry(1),
        ((0,), SHEAF, 1, 1): TableEntry(1),
        ((0,), DERHAM, 0, 0): TableEntry(1, "constant"),
        ((0,), DERHAM, 0, 1): TableEntry(2),
        ((0,), DERHAM, 0, 2): TableEntry(1),
    }
    d = snc.make_snc_divisor([("E", 1)], [(0,)], tables)
    table = snc.hodge_decomposition(d)
    assert table.antidiagonal_sums == (1, 2, 1)


def test_hodge_empty_divisor():
    d = snc.make_snc_divisor([], [], {})
    table = snc.hodge_decomposition(d)
    assert table.entries == ()


def test_hodge_mismatch_on_perturbed_table():
    with pytest.raises(HodgeMismatch) as info:
        snc.hodge_decomposition(three_lines_divisor(perturb=((0,), 1, 1)))
    diag = info.value.diagnostics
    assert diag["mismatch_degrees"] == [2]
    assert diag["stratum_derham_consistent"] is False


def test_sheaf_euler_hyperplanes_p2():
    assert snc.sheaf_euler_characteristic(pn_hyperplanes_divisor(2)) == 0


def test_sheaf_euler_single_component():
    assert snc.sheaf_euler_characteristic(single_component(h_row=(1, 1))) == 0
    assert snc.sheaf_euler_characteristic(single_component(h_row=(1, 0))) == 1


def test_curve_euler_formula():
    assert snc.snc_curve_euler([0, 0], 1).value == 1
    assert snc.snc_curve_euler([0, 0, 0], 3).value == 0
    result = snc.snc_curve_euler([2, 0], 2)
    assert result.value == -2
    assert result.dual_complex_euler - result.genus_sum == -2


def test_curve_euler_matches_stratum_assembly():
    # same number through the stratum tables: two curves of genus 2 and 0
    # with two point intersections is not simplicial, so check the triangle
    d = pn_hyperplanes_divisor(2)
    assert snc.sheaf_euler_characteristic(d) == snc.snc_curve_euler([0, 0, 0], 3).value


def test_combinatorial_check_hyperplanes():
    for n in (2, 3, 4):
        d = pn_hyperplanes_divisor(n)
        report = snc.combinatorial_cohomology_check(d)
        assert list(report.totals) == simplicial.betti_numbers(snc.dual_complex(d))
        assert report == oracle_layered_report(d, 0, SHEAF)


def _explicit_row_above_own_bound():
    # B is a curve, so its own bound is 1, but the surface A lifts the
    # largest bound to 2 and an explicit h^2 row of B is read there
    tables = {(t, SHEAF, 0, 0): TableEntry(1, "constant") for t in [(0,), (1,), (0, 1)]}
    tables[((0,), SHEAF, 0, 1)] = TableEntry(0)
    tables[((0,), SHEAF, 0, 2)] = TableEntry(0)
    tables[((1,), SHEAF, 0, 1)] = TableEntry(0)
    tables[((1,), SHEAF, 0, 2)] = TableEntry(1)
    return snc.make_snc_divisor([("A", 2), ("B", 1)], [(0,), (1,), (0, 1)], tables)


def test_combinatorial_check_rejects_higher_cohomology():
    for d in (elliptic_triangle_divisor(), _explicit_row_above_own_bound()):
        with pytest.raises(HypothesisViolated):
            snc.combinatorial_cohomology_check(d)


def test_combinatorial_check_single_rational_component():
    report = snc.combinatorial_cohomology_check(single_component(dim=1, h_row=(1, 0)))
    assert report.totals == (1,)


def test_rational_check_contractible_no_obstruction():
    strata = [(0,), (1,), (0, 1)]
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        for q in range(1, 2 - (len(t) - 1) + 1):
            tables[(t, SHEAF, 0, q)] = TableEntry(0)
    d = snc.make_snc_divisor([("A", 1), ("B", 1)], strata, tables)
    delta = snc.dual_complex(d)
    report = snc.rational_singularity_check(
        d, True, presheaf.constant_presheaf(delta, 1), {s: [1] for s in delta.simplices}
    )
    assert report.obstruction_degrees == ()
    assert report.inclusion_holds


def test_rational_check_flags_circle():
    d = pn_hyperplanes_divisor(2)
    delta = snc.dual_complex(d)
    report = snc.rational_singularity_check(
        d, True, presheaf.constant_presheaf(delta, 1), {s: [1] for s in delta.simplices}
    )
    assert report.obstruction_degrees == (1,)
    assert "unproven" in report.conditional_on


def test_rational_check_extra_dimensions():
    # thickened sections: constant summand plus a vertex-supported part
    d = pn_hyperplanes_divisor(2)
    delta = snc.dual_complex(d)
    extra = presheaf.make_presheaf(
        delta, {s: (1 if len(s) == 1 else 0) for s in delta.simplices}
    )
    sections = presheaf.direct_sum(presheaf.constant_presheaf(delta, 1), extra)
    unit = {s: ([1, 0] if len(s) == 1 else [1]) for s in delta.simplices}
    report = snc.rational_singularity_check(d, False, sections, unit)
    assert report.inclusion_holds
    assert report.scheme_cohomology == (4, 1)
    assert report.obstruction_degrees == ()


def test_assembly_euler_identity_random_tables():
    # alternating sum of assembled totals equals the stratum Euler sum no
    # matter what the tables are
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.randint(2, 3)
        d = _random_divisor(rng, n)
        report = snc.structure_sheaf_cohomology(d)
        assert report.alternating_sum() == snc.sheaf_euler_characteristic(d)
        betti = simplicial.betti_numbers(snc.dual_complex(d))
        for i, b in enumerate(betti):
            assert report.totals[i] >= b


def _random_divisor(rng, components):
    names = [(f"C{i}", 1) for i in range(components)]
    strata = [(i,) for i in range(components)]
    for i in range(components):
        for j in range(i + 1, components):
            if rng.random() < 0.7:
                strata.append((i, j))
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        if len(t) == 1:
            tables[(t, SHEAF, 0, 1)] = TableEntry(rng.randint(0, 2))
    return snc.make_snc_divisor(names, strata, tables)


def test_hodge_random_symmetric_diamonds():
    # divisors assembled from genuine stratum diamonds always satisfy the
    # antidiagonal identity
    rng = random.Random(998877)
    for _ in range(20):
        g = [rng.randint(0, 2) for _ in range(3)]
        strata = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        tables = {}
        for t in strata:
            tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
            tables[(t, DERHAM, 0, 0)] = TableEntry(1, "constant")
            if len(t) == 1:
                gi = g[t[0]]
                tables[(t, SHEAF, 0, 1)] = TableEntry(gi)
                tables[(t, SHEAF, 1, 0)] = TableEntry(gi)
                tables[(t, SHEAF, 1, 1)] = TableEntry(1)
                tables[(t, DERHAM, 0, 1)] = TableEntry(2 * gi, "zero")
                tables[(t, DERHAM, 0, 2)] = TableEntry(1)
            else:
                tables[(t, SHEAF, 1, 0)] = TableEntry(0)
        d = snc.make_snc_divisor([(f"C{i}", 1) for i in range(3)], strata, tables)
        table = snc.hodge_decomposition(d)
        assert table.antidiagonal_sums == table.derham_totals


def _outcome(compute, *args):
    """The report, or the class of the input error raised instead."""
    try:
        return compute(*args)
    except InputError as exc:
        return type(exc)


def test_zero_layer_skip_matches_every_layer_ranked():
    reports = 0
    zero_layers = 0
    for path in sorted(glob.glob(os.path.join(INPUTS, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc["kind"] != "divisor":
            continue
        d = formats.parse_divisor(doc)
        bound = max(snc.stratum_dim_bound(d, t) for t in d.strata)
        cases = [(snc.structure_sheaf_cohomology, (d,), (d, 0, SHEAF))]
        cases += [(snc.reduced_forms_cohomology, (d, r), (d, r, SHEAF)) for r in range(bound + 1)]
        cases += [(snc.derham_cohomology, (d,), (d, 0, DERHAM))]
        for compute, args, oracle_args in cases:
            report = _outcome(compute, *args)
            assert report == _outcome(oracle_layered_report, *oracle_args), (path, compute.__name__, args[1:])
            reports += isinstance(report, snc.CohomologyReport)
        delta = snc.dual_complex(d)
        zero_layers += sum(snc.layer(d, delta, 0, q).is_zero() for q in range(bound + 1))
    # every structure-sheaf report, three_lines_p2's forms and deRham reports, and skipped layers
    assert reports >= 18 and zero_layers > 0


def test_unchecked_layers_are_functorial_by_oracle():
    # the constant q = 0 layers and the all-zero layers skip
    # check_functoriality; the oracle confirms every layer built is functorial
    docs = []
    for path in sorted(glob.glob(os.path.join(INPUTS, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    docs.append(nonfunctorial_q1_document())
    constant = zero = 0
    for doc in docs:
        if doc["kind"] != "divisor":
            continue
        d = formats.parse_divisor(doc)
        bound = max(snc.stratum_dim_bound(d, t) for t in d.strata)
        for flavor, r_top, q_top in ((SHEAF, bound, bound), (DERHAM, 0, 2 * bound)):
            for r in range(r_top + 1):
                for q in range(q_top + 1):
                    v = _outcome(snc.layer, d, snc.dual_complex(d), r, q, flavor)
                    if isinstance(v, presheaf.Presheaf):
                        assert oracle_is_functorial(v), (doc, flavor, r, q)
                        constant += q == 0 and r == 0
                        zero += v.is_zero()
    assert constant > 0 and zero > 0


def test_each_ranked_layer_is_assembled_once():
    # make_presheaf checks d.d on the Cech complex it keeps, and
    # presheaf_cohomology ranks that complex; the zero layers are neither
    with open(os.path.join(INPUTS, "pn_hyperplanes_4.json"), encoding="utf-8") as handle:
        d = formats.parse_divisor(json.load(handle))
    with recorded_cech_work() as (assembled, ranked):
        snc.hodge_decomposition(d)
    assert sorted(map(id, assembled)) == sorted(map(id, ranked))
    assert len(set(map(id, ranked))) == len(ranked) > 0


def test_zero_layer_skip_keeps_functoriality_check():
    d = formats.parse_divisor(nonfunctorial_q1_document())
    assert snc.layer(d, snc.dual_complex(d), 0, 2).is_zero()
    with pytest.raises(FunctorialityViolation):
        snc.structure_sheaf_cohomology(d)
