import contextlib
import io
import json
from itertools import product
from math import comb

import pytest

from dualcech import cli, localmodel, presheaf, simplicial
from dualcech.errors import InvalidInput
from dualcech.exactla import RationalMatrix
from dualcech.localmodel import make_local_model, verify_exactness

from helpers import (
    _monomials,
    oracle_checked,
    oracle_monomial_count,
    oracle_sheaf_cech_complex,
    oracle_survivor_counts,
    quotient_basis,
)


def test_default_degree_bound():
    spec = make_local_model(3, [1, 3], [2, 1])
    assert spec.degree_bound == 6


def test_quotient_basis_single_component():
    spec = make_local_model(1, [1], [2], degree_bound=3)
    expected = [((0,),), ((1,),), (), ()]
    for k in range(4):
        assert quotient_basis(spec, None, k).exponents == expected[k]


def test_quotient_basis_deep_stratum_is_point():
    spec = make_local_model(2, [1, 2], [1, 1], degree_bound=3)
    assert quotient_basis(spec, (1, 2), 0).exponents == ((0, 0),)
    for k in (1, 2, 3):
        assert quotient_basis(spec, (1, 2), k).exponents == ()


def test_quotient_basis_whole_divisor_kills_products():
    spec = make_local_model(2, [1, 2], [1, 1], degree_bound=2)
    assert quotient_basis(spec, None, 2).exponents == ((0, 2), (2, 0))


def test_quotient_basis_membership_predicate():
    spec = make_local_model(2, [1, 2], [2, 3], degree_bound=4)
    basis = quotient_basis(spec, (1,), 3)
    assert basis.contains((1, 2))
    assert not basis.contains((2, 1))
    assert not basis.contains((1, 1))  # wrong degree


def test_quotient_basis_counts_match_inclusion_exclusion():
    spec = make_local_model(4, [1, 2, 4], [2, 1, 3], degree_bound=7)
    for k in range(8):
        whole = quotient_basis(spec, None, k)
        assert len(whole.exponents) == oracle_monomial_count(
            4, k, list(zip(spec.components, spec.multiplicities)), "any"
        )
        for stratum in [(1,), (2, 4), (1, 2, 4)]:
            basis = quotient_basis(spec, stratum, k)
            multiplicity = dict(zip(spec.components, spec.multiplicities))
            constraints = [(i, multiplicity[i]) for i in stratum]
            assert len(basis.exponents) == oracle_monomial_count(4, k, constraints, "all")


def test_single_component_complex_is_isomorphism():
    spec = make_local_model(2, [1], [2], degree_bound=4)
    for k in range(5):
        complex_ = oracle_sheaf_cech_complex(spec, k)
        assert complex_.space_dims[0] == complex_.space_dims[1]
        assert complex_.cohomology() == [0, 0]


def test_two_component_degree_zero_complex():
    spec = make_local_model(2, [1, 2], [1, 1], degree_bound=0)
    complex_ = oracle_sheaf_cech_complex(spec, 0)
    assert complex_.space_dims == (1, 2, 1)
    assert complex_.cohomology() == [0, 0, 0]


def test_exactness_small_cases():
    assert verify_exactness(make_local_model(2, [1, 2], [1, 1], degree_bound=6)).exact
    assert verify_exactness(make_local_model(3, [1, 2, 3], [2, 1, 3], degree_bound=8)).exact


def test_degree_zero_slice_matches_constant_presheaf_on_simplex():
    # with unit multiplicities the degree-0 complex, less the augmentation,
    # is the coboundary complex of the full simplex on the components
    spec = make_local_model(4, [1, 2, 3, 4], [1, 1, 1, 1], degree_bound=6)
    assert verify_exactness(spec).exact
    complex_ = oracle_sheaf_cech_complex(spec, 0)
    base = simplicial.from_facets(4, [(0, 1, 2, 3)])
    expected = presheaf.cech_complex(presheaf.constant_presheaf(base, 1))
    assert complex_.space_dims[1:] == expected.space_dims
    assert complex_.differentials[1:] == expected.differentials


def test_verdict_table_shape():
    spec = make_local_model(2, [1, 2], [2, 2], degree_bound=5)
    verdict = verify_exactness(spec)
    assert len(verdict.homology) == 6
    assert all(len(row) == 3 for row in verdict.homology)
    assert verdict.failures() == []


def test_degree_above_bound_rejected():
    spec = make_local_model(2, [1, 2], [1, 1], degree_bound=2)
    with pytest.raises(InvalidInput):
        quotient_basis(spec, None, 3)


def test_huge_multiplicity_under_a_small_degree_bound():
    spec = make_local_model(3, [1, 3], [10**12, 2], degree_bound=4)
    assert verify_exactness(spec).exact


@pytest.mark.parametrize("degree_bound", [0, 6])
def test_many_components_build_no_simplex(tmp_path, degree_bound):
    # 40 components of multiplicity 1: a verdict that built the full simplex
    # on s vertices would enumerate 2^40 cells at K = 0
    spec = make_local_model(40, range(1, 41), [1] * 40, degree_bound)
    verdict = verify_exactness(spec)
    assert verdict.exact
    assert verdict.homology == ((0,) * 41,) * (degree_bound + 1)
    doc = {"kind": "localmodel", "n": 40, "components": list(range(1, 41)),
           "multiplicities": [1] * 40, "degree_bound": degree_bound}
    path = tmp_path / "lm_40.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify-lemma31", str(path), "--json"]) == 0
    assert json.loads(out.getvalue())["result"]["exact"] is True


def test_verdict_entries_are_capped():
    # three components: four joints per degree
    cap = localmodel.MAX_VERDICT_ENTRIES
    assert len(verify_exactness(make_local_model(3, [1, 2, 3], [2, 2, 2], cap // 4 - 1)).homology) == cap // 4
    for bound in (cap // 4, 10**12):
        with pytest.raises(InvalidInput, match="verdict entries"):
            make_local_model(3, [1, 2, 3], [2, 2, 2], bound)
    # the default bound is twice the multiplicities' sum
    with pytest.raises(InvalidInput, match="verdict entries"):
        make_local_model(1, [1], [10**12])


@pytest.mark.parametrize("through", ["field", "flag"])
def test_huge_degree_bound_exits_1_without_traceback(tmp_path, capsys, through):
    # a terabyte-sized verdict is refused before anything is allocated
    doc = {"kind": "localmodel", "n": 3, "components": [1, 2, 3], "multiplicities": [2, 2, 2]}
    argv = ["verify-lemma31", str(tmp_path / "lm.json"), "--json"]
    if through == "field":
        doc["degree_bound"] = 10**12
    else:
        argv += ["--degree-bound", str(10**12)]
    (tmp_path / "lm.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: degree bound 1000000000000 with 3 components gives 4000000000004 "
        "verdict entries, more than the cap of 1000000\n"
    )


def test_bad_component_indices_rejected():
    with pytest.raises(InvalidInput):
        make_local_model(2, [2, 1], [1, 1])
    with pytest.raises(InvalidInput):
        make_local_model(2, [1, 3], [1, 1])
    with pytest.raises(InvalidInput):
        make_local_model(2, [1], [0])


def test_sweep_spec_count():
    assert sum(1 for _ in localmodel.sweep_specs()) == 336


def test_monomials_are_lexicographic():
    for n in range(5):
        for k in range(5):
            expected = sorted(a for a in product(range(k + 1), repeat=n) if sum(a) == k)
            assert list(_monomials(n, k)) == expected


def test_split_matches_full_cech_oracle():
    # the block on s vertices has C(s, j) cells at joint j, the empty face at joint 0
    for spec in localmodel.sweep_specs(max_ambient=3, degree_bound=6):
        joints = len(spec.components) + 1
        table = []
        for k in range(spec.degree_bound + 1):
            oracle = oracle_sheaf_cech_complex(spec, k)
            split_dims = [0] * joints
            for s, count in oracle_survivor_counts(spec, k).items():
                for j in range(s + 1):
                    split_dims[j] += count * comb(s, j)
            assert tuple(split_dims) == oracle.space_dims, (spec, k)
            table.append(tuple(oracle.cohomology()))
        assert verify_exactness(spec).homology == tuple(table), spec


@pytest.mark.parametrize("s", range(1, 9))
def test_block_homology_is_read_off_the_betti_numbers_of_the_simplex(s):
    # the augmented block as matrices: the all-ones column through the
    # checking constructor, then the coboundaries; oracle_checked multiplies
    # out d.d and ranks by Bareiss
    simplex = simplicial.from_facets(s, [range(s)])
    augmentation = RationalMatrix(s, 1, {(i, 0): 1 for i in range(s)})
    coboundaries = [simplicial.coboundary_matrix(simplex, p) for p in range(s - 1)]
    block = oracle_checked(simplicial.CochainComplex((1, *simplex.counts()), (augmentation, *coboundaries)))
    b = simplicial.betti_numbers(simplex)
    assert block.cohomology() == [0, b[0] - 1, *b[1:]]
    # in degree 0 with unit multiplicities every component survives, so the table is one block
    spec = make_local_model(s, range(1, s + 1), [1] * s, degree_bound=0)
    assert verify_exactness(spec).homology == (tuple(block.cohomology()),)
