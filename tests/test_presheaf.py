import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dualcech import presheaf, simplicial
from dualcech.errors import (
    BaseMismatch,
    CompositionNonzero,
    FunctorialityViolation,
    IncompatibleSection,
    NonSplitExtension,
    UnderdeterminedRestrictions,
    ZeroSection,
)
from dualcech.exactla import RationalMatrix

from helpers import (
    OracleCochainComplex,
    conjugate_presheaf,
    hstack,
    oracle_checked,
    oracle_inverse,
    oracle_is_functorial,
    random_complex,
    random_presheaf,
    random_unimodular,
)


def hollow_triangle():
    return simplicial.from_facets(3, [(0, 1), (0, 2), (1, 2)])


def test_constant_on_point():
    point = simplicial.from_facets(1, [(0,)])
    v = presheaf.constant_presheaf(point, 1)
    assert v.dims == {(0,): 1}
    assert presheaf.presheaf_cohomology(v) == [1]


def test_constant_on_triangle_spaces():
    v = presheaf.constant_presheaf(hollow_triangle(), 1)
    assert sorted(v.dims.values()) == [1, 1, 1, 1, 1, 1]
    assert all(m == RationalMatrix.identity(1) for m in v.restrictions.values())


def test_zero_presheaf():
    v = presheaf.constant_presheaf(hollow_triangle(), 0)
    complex_ = presheaf.cech_complex(v)
    assert complex_.space_dims == (0, 0)
    assert presheaf.presheaf_cohomology(v) == [0, 0]


def test_cech_complex_point():
    v = presheaf.constant_presheaf(simplicial.from_facets(1, [(0,)]), 1)
    complex_ = presheaf.cech_complex(v)
    assert complex_.space_dims == (1,)
    assert complex_.differentials == ()


def test_cech_differential_matrix_on_triangle():
    v = presheaf.constant_presheaf(hollow_triangle(), 1)
    complex_ = presheaf.cech_complex(v)
    assert complex_.space_dims == (3, 3)
    expected = RationalMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert complex_.differentials[0] == expected
    assert presheaf.presheaf_cohomology(v) == [1, 1]


def test_constant_on_sphere():
    full = tuple(range(5))
    facets = [full[:k] + full[k + 1 :] for k in range(5)]
    base = simplicial.from_facets(5, facets)
    v = presheaf.constant_presheaf(base, 1)
    assert presheaf.presheaf_cohomology(v) == [1, 0, 0, 1]


def test_vertex_supported_presheaf():
    base = hollow_triangle()
    v = presheaf.make_presheaf(base, {s: (1 if len(s) == 1 else 0) for s in base.simplices})
    assert presheaf.presheaf_cohomology(v) == [3, 0]


def test_missing_restriction_refused():
    base = hollow_triangle()
    with pytest.raises(UnderdeterminedRestrictions):
        presheaf.make_presheaf(base, {s: 1 for s in base.simplices}, {})


def nonfunctorial_triangle():
    """A filled triangle whose composites (0,) -> (0, 1, 2) give 2 and 1."""
    base = simplicial.from_facets(3, [(0, 1, 2)])
    dims = {s: 1 for s in base.simplices}
    restrictions = {}
    for tau in sorted(base.simplices):
        for pos in range(len(tau)):
            sigma = tau[:pos] + tau[pos + 1 :]
            if sigma:
                restrictions[(sigma, tau)] = RationalMatrix.identity(1)
    restrictions[((0,), (0, 1))] = RationalMatrix.from_rows([[2]])
    return base, dims, restrictions


def test_functoriality_violation_detected():
    base, dims, restrictions = nonfunctorial_triangle()
    with pytest.raises(FunctorialityViolation):
        v = presheaf.make_presheaf(base, dims, restrictions)
        presheaf.cech_complex(v)


def test_unchecked_presheaf_refused_by_cech_complex():
    # make_presheaf is the door that refuses the data; a Presheaf built
    # around it gets a Cech complex whose d.d the oracle finds nonzero
    base, dims, restrictions = nonfunctorial_triangle()
    with pytest.raises(FunctorialityViolation):
        presheaf.make_presheaf(base, dims, restrictions)
    v = presheaf.Presheaf(base, dims, restrictions)
    assert not oracle_is_functorial(v)
    complex_ = presheaf.cech_complex(v)
    with pytest.raises(CompositionNonzero):
        OracleCochainComplex(complex_.space_dims, complex_.differentials)


def test_direct_sum_dimension_additivity():
    base = hollow_triangle()
    v = presheaf.constant_presheaf(base, 1)
    w = presheaf.make_presheaf(base, {s: (1 if len(s) == 1 else 0) for s in base.simplices})
    both = presheaf.direct_sum(v, w)
    assert presheaf.presheaf_cohomology(both) == [4, 1]
    zero = presheaf.constant_presheaf(base, 0)
    assert presheaf.direct_sum(v, zero).dims == v.dims
    assert presheaf.direct_sum(v, v).dims == presheaf.constant_presheaf(base, 2).dims


def test_direct_sum_base_mismatch():
    v = presheaf.constant_presheaf(hollow_triangle(), 1)
    w = presheaf.constant_presheaf(simplicial.from_facets(1, [(0,)]), 1)
    with pytest.raises(BaseMismatch):
        presheaf.direct_sum(v, w)


def test_split_constant_trivial():
    base = hollow_triangle()
    v = presheaf.constant_presheaf(base, 1)
    (total, constant, complement), quotient = presheaf.split_constant(v, {s: [1] for s in base.simplices})
    assert total == constant == simplicial.betti_numbers(base)
    assert complement == [0, 0]
    assert quotient.is_zero()


def test_split_constant_of_rank_two():
    base = hollow_triangle()
    v = presheaf.constant_presheaf(base, 2)
    (total, constant, complement), quotient = presheaf.split_constant(v, {s: [1, 0] for s in base.simplices})
    assert constant == simplicial.betti_numbers(base)
    assert total == [2, 2]
    assert quotient.dims == presheaf.constant_presheaf(base, 1).dims
    assert complement == presheaf.presheaf_cohomology(quotient) == [1, 1]


def test_split_constant_projection_presheaf():
    base = hollow_triangle()
    dims = {s: (2 if len(s) == 1 else 1) for s in base.simplices}
    restrictions = {}
    for tau in sorted(base.simplices):
        if len(tau) == 2:
            for pos in range(2):
                sigma = tau[:pos] + tau[pos + 1 :]
                restrictions[(sigma, tau)] = RationalMatrix.from_rows([[1, 0]])
    v = presheaf.make_presheaf(base, dims, restrictions)
    unit = {s: ([1, 0] if len(s) == 1 else [1]) for s in base.simplices}
    (total, constant, complement), quotient = presheaf.split_constant(v, unit)
    assert {s: quotient.dim(s) for s in base.simplices} == {
        s: (1 if len(s) == 1 else 0) for s in base.simplices
    }
    assert total == presheaf.presheaf_cohomology(v)
    assert constant == simplicial.betti_numbers(base)
    assert complement == presheaf.presheaf_cohomology(quotient)
    assert total == [a + b for a, b in zip(constant, complement)]


def test_split_constant_zero_section_rejected():
    base = hollow_triangle()
    v = presheaf.constant_presheaf(base, 1)
    with pytest.raises(ZeroSection):
        presheaf.split_constant(v, {s: [0] for s in base.simplices})


def test_split_constant_incompatible_section_rejected():
    base = hollow_triangle()
    v = presheaf.constant_presheaf(base, 1)
    unit = {s: [2 if s == (0,) else 1] for s in base.simplices}
    with pytest.raises(IncompatibleSection):
        presheaf.split_constant(v, unit)


@given(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=4).filter(any),
    st.integers(0, 2**31 - 1),
)
def test_split_projection_matches_inverse_oracle(u0, seed):
    # one edge, stalks changed by random bases C_s, unit u_s = C_s u0: the
    # quotient restriction P_tau R E_sigma fixes P_tau, because the image of
    # R E_sigma and u_tau span the stalk; P must be the last rows of
    # [u | E]^-1, the projection along u onto the coordinates off lead
    rng = random.Random(seed)
    d = len(u0)
    base = simplicial.from_facets(2, [(0, 1)])
    changes = {s: random_unimodular(rng, d) for s in base.simplices}
    restrictions = {(s, (0, 1)): changes[(0, 1)] @ oracle_inverse(changes[s]) for s in [(0,), (1,)]}
    v = presheaf.make_presheaf(base, {s: d for s in base.simplices}, restrictions)
    units = {s: changes[s] @ RationalMatrix.column(u0) for s in base.simplices}
    _, quotient = presheaf.split_constant(v, {s: [u.entry(i, 0) for i in range(d)] for s, u in units.items()})
    embeddings, projections = {}, {}
    for s, u in units.items():
        lead = min(i for i in range(d) if u.entry(i, 0) != 0)
        embeddings[s] = RationalMatrix.from_entries(
            d, d - 1, {(j, k): 1 for k, j in enumerate(j for j in range(d) if j != lead)}
        )
        inv = oracle_inverse(hstack(u, embeddings[s]))
        projections[s] = RationalMatrix.from_entries(
            d - 1, d, {(i - 1, j): inv.entry(i, j) for i in range(1, d) for j in range(d)}
        )
    for (sigma, tau), mat in quotient.restrictions.items():
        assert mat == projections[tau] @ v.restrictions[(sigma, tau)] @ embeddings[sigma]


def test_split_constant_detects_nonsplit_extension():
    # a twisted extension of the constant presheaf over a circle; the unit
    # section is preserved but no complement exists
    base = hollow_triangle()
    restrictions = {}
    for tau in sorted(base.simplices):
        if len(tau) == 2:
            for pos in range(2):
                sigma = tau[:pos] + tau[pos + 1 :]
                t = 1 if (tau == (0, 1) and sigma == (0,)) else 0
                restrictions[(sigma, tau)] = RationalMatrix.from_rows([[1, t], [0, 1]])
    v = presheaf.make_presheaf(base, {s: 2 for s in base.simplices}, restrictions)
    with pytest.raises(NonSplitExtension):
        presheaf.split_constant(v, {s: [1, 0] for s in base.simplices})


@given(st.integers(0, 2**31 - 1))
def test_cech_complex_of_random_presheaf_is_valid(seed):
    # construction of CochainComplex asserts the differential squares to zero
    rng = random.Random(seed)
    base = random_complex(rng, max_vertices=5)
    v = random_presheaf(rng, base)
    complex_ = presheaf.cech_complex(v)
    assert sum(complex_.space_dims) == sum(v.dims.values())


@given(st.integers(0, 2**31 - 1))
def test_unchecked_constructions_are_functorial_by_oracle(seed):
    # constant, zero, direct-sum and split-quotient presheaves skip
    # check_functoriality; the oracle confirms they need no check, and
    # OracleCochainComplex checks d.d of each Cech complex by oracle_matmul
    rng = random.Random(seed)
    base = random_complex(rng, max_vertices=5)
    for d in (0, 1, 2):
        assert oracle_is_functorial(presheaf.constant_presheaf(base, d))
        oracle_checked(presheaf.cech_complex(presheaf.constant_presheaf(base, d)))
    v = random_presheaf(rng, base, summands=2)
    w = random_presheaf(rng, base, summands=2)
    assert oracle_is_functorial(presheaf.direct_sum(v, w))
    oracle_checked(presheaf.cech_complex(v))
    oracle_checked(presheaf.cech_complex(presheaf.direct_sum(v, w)))
    planted = presheaf.direct_sum(presheaf.constant_presheaf(base, 1), random_presheaf(rng, base, summands=2))
    twisted, changes = conjugate_presheaf(rng, planted)
    unit = {s: [changes[s].entry(i, 0) for i in range(changes[s].rows)] for s in base.simplices}
    _, quotient = presheaf.split_constant(twisted, unit)
    assert oracle_is_functorial(quotient)
    oracle_checked(presheaf.cech_complex(quotient))


@given(st.integers(0, 2**31 - 1))
def test_constant_presheaf_cohomology_is_betti(seed):
    rng = random.Random(seed)
    base = random_complex(rng, max_vertices=6)
    v = presheaf.constant_presheaf(base, 1)
    assert presheaf.presheaf_cohomology(v) == simplicial.betti_numbers(base)


@given(st.integers(0, 2**31 - 1))
def test_direct_sum_cohomology_additive(seed):
    rng = random.Random(seed)
    base = random_complex(rng, max_vertices=5)
    v = random_presheaf(rng, base, summands=2)
    w = random_presheaf(rng, base, summands=2)
    left = presheaf.presheaf_cohomology(presheaf.direct_sum(v, w))
    right = [
        a + b
        for a, b in zip(presheaf.presheaf_cohomology(v), presheaf.presheaf_cohomology(w))
    ]
    assert left == right


@given(st.integers(0, 2**31 - 1))
def test_euler_characteristic_matches_cohomology(seed):
    rng = random.Random(seed)
    base = random_complex(rng, max_vertices=5)
    v = random_presheaf(rng, base)
    complex_ = presheaf.cech_complex(v)
    cohomology = complex_.cohomology()
    assert complex_.euler_characteristic() == sum(
        (-1) ** p * h for p, h in enumerate(cohomology)
    )
    oracle = OracleCochainComplex(complex_.space_dims, complex_.differentials)
    assert cohomology == oracle.cohomology()
