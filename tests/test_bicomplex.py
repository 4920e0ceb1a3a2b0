import random

import pytest
from hypothesis import given, settings, strategies as st

from dualcech import presheaf, simplicial
from dualcech.bicomplex import (
    INFINITY,
    degenerates_at_two,
    from_cochain_rows,
    make_bicomplex,
    page,
    page_infinity,
    total_cohomology,
    total_complex,
)
from dualcech.errors import InvalidBicomplex
from dualcech.exactla import RationalMatrix

from helpers import (
    conjugate_bicomplex,
    oracle_page,
    oracle_page_infinity,
    oracle_rank,
    random_bicomplex,
    random_cochain_complex,
    tensor_bicomplex,
)

ONE = RationalMatrix.identity(1)


def nonzero_d2_instance():
    """Three columns, two rows; both E2 entries of dimension one die at Einf."""
    return make_bicomplex(
        dims={(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
        horizontal={(0, 1): ONE, (1, 0): ONE},
        vertical={(1, 0): ONE},
    )


def test_single_cell():
    b = make_bicomplex({(0, 0): 3})
    assert total_cohomology(b) == [3]
    assert page(b, 2).dims == {(0, 0): 3}
    assert degenerates_at_two(b)


def test_exact_two_term_row():
    b = make_bicomplex({(0, 0): 1, (1, 0): 1}, horizontal={(0, 0): ONE})
    assert total_cohomology(b) == [0, 0]
    assert degenerates_at_two(b)


def test_one_row_from_presheaf():
    base = simplicial.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    row = presheaf.cech_complex(presheaf.constant_presheaf(base, 1))
    b = from_cochain_rows([row])
    assert total_cohomology(b) == [1, 1]
    e2 = page(b, 2)
    assert [e2.dim(p, 0) for p in range(b.width + 1)] == [1, 1]
    assert degenerates_at_two(b)


def test_one_column_bicomplex():
    b = make_bicomplex(
        {(0, 0): 1, (0, 1): 2, (0, 2): 1},
        vertical={(0, 0): RationalMatrix.from_rows([[1], [0]])},
    )
    e2 = page(b, 2)
    assert [e2.dim(0, q) for q in range(3)] == [0, 1, 1]
    assert total_cohomology(b) == [0, 1, 1]
    assert degenerates_at_two(b)


def test_two_row_injective_columns():
    # 0 -> A^* -> B^* -> 0 with injective verticals: E1 sits in the top row
    # as the cokernels
    b = make_bicomplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2},
        horizontal={
            (0, 0): ONE,
            (0, 1): RationalMatrix.from_rows([[1, 0], [0, 1]]),
        },
        vertical={
            (0, 0): RationalMatrix.from_rows([[1], [0]]),
            (1, 0): RationalMatrix.from_rows([[-1], [0]]),
        },
    )
    e1 = page(b, 1)
    assert e1.dim(0, 0) == 0 and e1.dim(1, 0) == 0
    assert e1.dim(0, 1) == 1 and e1.dim(1, 1) == 1
    # the induced map between the cokernels is invertible, so the second
    # page dies completely; cross-check against the total complex
    e2 = page(b, 2)
    assert all(v == 0 for v in e2.dims.values())
    assert total_cohomology(b) == [0, 0, 0]
    assert degenerates_at_two(b)


def test_nonzero_d2_instance():
    b = nonzero_d2_instance()
    assert total_cohomology(b) == [0, 0, 0, 0]
    e2 = page(b, 2)
    assert e2.dim(0, 1) == 1 and e2.dim(2, 0) == 1
    assert sum(e2.dims.values()) == 2
    einf = page_infinity(b)
    assert all(v == 0 for v in einf.dims.values())
    assert not degenerates_at_two(b)


def test_crafted_instance_found_by_search_over_unit_matrices():
    # brute-force all 0/1 choices for the three maps on this four-cell
    # support; the only valid bicomplexes that fail degeneration are the
    # ones with all three maps nonzero
    failing = []
    for h01 in (0, 1):
        for h10 in (0, 1):
            for v10 in (0, 1):
                b = make_bicomplex(
                    dims={(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
                    horizontal={(0, 1): ONE.scaled(h01), (1, 0): ONE.scaled(h10)},
                    vertical={(1, 0): ONE.scaled(v10)},
                )
                if not degenerates_at_two(b):
                    failing.append((h01, h10, v10))
    assert failing == [(1, 1, 1)]


def test_page_index_values():
    b = nonzero_d2_instance()
    assert page(b, 0).page == 0
    assert page_infinity(b).page == INFINITY
    with pytest.raises(InvalidBicomplex):
        page(b, 3)


def test_invalid_bicomplex_rejected():
    with pytest.raises(InvalidBicomplex):
        make_bicomplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            horizontal={(0, 0): ONE, (0, 1): ONE},
            vertical={(0, 0): ONE, (1, 0): ONE},
        )  # commutes instead of anticommuting


def test_anticommuting_square_accepted():
    b = make_bicomplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        horizontal={(0, 0): ONE, (0, 1): ONE.scaled(-1)},
        vertical={(0, 0): ONE, (1, 0): ONE},
    )
    assert total_cohomology(b) == [0, 0, 0]
    assert degenerates_at_two(b)


def test_snc_style_rows_with_zero_verticals_degenerate():
    base = simplicial.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    row0 = presheaf.cech_complex(presheaf.constant_presheaf(base, 1))
    row1 = presheaf.cech_complex(
        presheaf.make_presheaf(base, {s: (1 if len(s) == 1 else 0) for s in base.simplices})
    )
    b = from_cochain_rows([row0, row1])
    assert degenerates_at_two(b)
    e2 = page(b, 2)
    assert e2.dim(0, 0) == 1 and e2.dim(1, 0) == 1
    assert e2.dim(0, 1) == 3


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_convergence_and_monotonicity(seed):
    b = random_bicomplex(random.Random(seed))
    totals = total_cohomology(b)
    einf = page_infinity(b)
    for m in range(b.width + b.height + 1):
        acc = sum(
            einf.dim(p, m - p)
            for p in range(b.width + 1)
            if 0 <= m - p <= b.height
        )
        assert acc == totals[m]
    pages = [page(b, 0), page(b, 1), page(b, 2)]
    for cell in pages[0].dims:
        e0, e1, e2 = (pg.dim(*cell) for pg in pages)
        assert e0 >= e1 >= e2 >= einf.dim(*cell) >= 0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_tensor_product_pages_match_kunneth_oracle(seed):
    # for a tensor product of two complexes the second page is the product
    # of the factor cohomologies and nothing dies afterwards; this pins
    # page() and page_infinity() to an external prediction
    rng = random.Random(seed)
    a = random_cochain_complex(rng)
    b = random_cochain_complex(rng)
    bi = tensor_bicomplex(a, b)
    ha, hb = a.cohomology(), b.cohomology()
    e2 = page(bi, 2)
    for (p, q), value in e2.dims.items():
        expected = ha[p] * hb[q] if p < len(ha) and q < len(hb) else 0
        assert value == expected
    assert degenerates_at_two(bi)
    totals = total_cohomology(bi)
    for m, total in enumerate(totals):
        assert total == sum(
            ha[p] * hb[m - p] for p in range(len(ha)) if 0 <= m - p < len(hb)
        )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_single_row_or_column_always_degenerates(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        b = random_bicomplex(rng, max_height=0)
    else:
        b = random_bicomplex(rng, max_width=0)
    assert degenerates_at_two(b)


def _drawn_bicomplex(seed):
    """A random block-sum bicomplex, a tensor product, or either with "p/q" entries."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind in (0, 2):
        b = random_bicomplex(rng)
    else:
        b = tensor_bicomplex(random_cochain_complex(rng), random_cochain_complex(rng))
    return conjugate_bicomplex(rng, b) if kind >= 2 else b


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_pages_match_kernel_basis_oracle(seed):
    b = _drawn_bicomplex(seed)
    for r in (0, 1, 2):
        assert page(b, r) == oracle_page(b, r)
    assert page_infinity(b) == oracle_page_infinity(b)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_filtered_pairs_are_a_partial_matching_with_nonnegative_gaps(seed):
    b = _drawn_bicomplex(seed)
    pairs = b._pairs
    ends = [cell for pair in pairs for cell in pair]
    assert len(ends) == len(set(ends))
    for sigma, tau in pairs:
        assert tau[0] - sigma[0] >= 0
        assert sum(tau[:2]) == sum(sigma[:2]) + 1
        assert 0 <= sigma[2] < b.dim(*sigma[:2]) and 0 <= tau[2] < b.dim(*tau[:2])
    # the pairs leaving degree m number rank d_m, and the pairs of gap 0
    # leaving (p, q) number the rank of the vertical map there
    tc = total_complex(b)
    for m, d in enumerate(tc.differentials):
        assert sum(1 for sigma, _ in pairs if sum(sigma[:2]) == m) == oracle_rank(d.to_rows())
    for (p, q), v in b.vertical.items():
        gap0 = sum(1 for sigma, tau in pairs if sigma[:2] == (p, q) and tau[0] == p)
        assert gap0 == oracle_rank(v.to_rows())
