import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from dualcech import exactla
from dualcech.errors import CompositionNonzero, ShapeMismatch
from dualcech.exactla import RationalMatrix

from helpers import (
    oracle_det,
    oracle_homology_dim,
    oracle_matmul,
    oracle_minor_gcd,
    oracle_rank,
    random_unimodular,
)


def test_rank_identity():
    assert exactla.rank(RationalMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert exactla.rank(RationalMatrix.zeros(2, 5)) == 0


def test_rank_dependent_rows():
    assert exactla.rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_zero_dimensional():
    assert exactla.rank(RationalMatrix.zeros(0, 4)) == 0
    assert exactla.rank(RationalMatrix.zeros(4, 0)) == 0
    assert exactla.rank(RationalMatrix.zeros(0, 0)) == 0


def test_fraction_entries():
    m = RationalMatrix.from_rows([["1/2", "1/3"], ["1/4", "1/6"]])
    assert exactla.rank(m) == 1
    assert m[0, 1] == Fraction(1, 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        RationalMatrix.from_rows([[0.5]])


def test_homology_exact_at_joint():
    d_in = RationalMatrix.zeros(1, 0)
    d_out = RationalMatrix.identity(1)
    assert oracle_homology_dim(d_in, d_out) == 0


def test_homology_all_zero_maps():
    d_in = RationalMatrix.zeros(2, 1)
    d_out = RationalMatrix.zeros(1, 2)
    assert oracle_homology_dim(d_in, d_out) == 2


def test_homology_cone_point():
    d_in = RationalMatrix.from_rows([[1], [1], [1]])
    d_out = RationalMatrix.from_rows([[-1, 1, 0], [-1, 0, 1]])
    assert oracle_homology_dim(d_in, d_out) == 0


def test_homology_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        oracle_homology_dim(RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 3))


def test_homology_composition_nonzero():
    one = RationalMatrix.identity(1)
    with pytest.raises(CompositionNonzero):
        oracle_homology_dim(one, one)


def test_kernel_basis_spans_kernel():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    k = exactla.kernel_basis(m)
    assert k.cols == 2
    assert (m @ k).is_zero()
    assert exactla.rank(k) == 2


def test_kernel_of_zero_row_matrix_is_identity():
    k = exactla.kernel_basis(RationalMatrix.zeros(0, 3))
    assert k == RationalMatrix.identity(3)


def test_inverse_round_trip():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert exactla.inverse(m) @ m == RationalMatrix.identity(2)


def test_inverse_singular():
    with pytest.raises(ShapeMismatch):
        exactla.inverse(RationalMatrix.from_rows([[1, 2], [2, 4]]))


def test_block_matrix_assembly():
    one = RationalMatrix.identity(1)
    m = exactla.block_matrix([1, 1], [1, 1], {(0, 0): one, (1, 1): one.scaled(-1)})
    assert m == RationalMatrix.from_rows([[1, 0], [0, -1]])


def test_entry_outside_the_matrix_raises():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    for i, j in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ShapeMismatch):
            m.entry(i, j)


def test_smith_normal_form_examples():
    assert exactla.smith_normal_form(RationalMatrix.from_rows([[2]])) == [2]
    assert exactla.smith_normal_form(
        RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ) == [1, 1, 1]
    assert exactla.smith_normal_form(RationalMatrix.from_rows([[2, 4], [6, 8]])) == [2, 4]


def test_smith_normal_form_zero():
    assert exactla.smith_normal_form(RationalMatrix.zeros(3, 2)) == []


def test_smith_normal_form_divisibility_fold():
    # diagonal entries that do not divide each other must be folded
    assert exactla.smith_normal_form(RationalMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
    assert exactla.smith_normal_form(
        RationalMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    ) == [1, 30, 30]


@st.composite
def small_int_matrix(draw, max_dim=4, bound=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = [
        [draw(st.integers(-bound, bound)) for _ in range(cols)] for _ in range(rows)
    ]
    return data


@given(small_int_matrix())
def test_rank_matches_oracle(data):
    m = RationalMatrix.from_rows(data)
    assert exactla.rank(m) == oracle_rank(data)


@given(small_int_matrix(max_dim=6), st.randoms(use_true_random=False))
def test_static_pivot_order_gives_the_rank_and_a_triangular_system(data, rnd):
    m = RationalMatrix.from_rows(data)
    column_key = list(range(m.cols))
    row_key = list(range(m.rows))
    rnd.shuffle(column_key)
    rnd.shuffle(row_key)
    pivots = exactla._eliminate(m, order=(column_key.__getitem__, row_key.__getitem__))
    assert len(pivots) == oracle_rank(data)
    assert len({r for _, r, _ in pivots}) == len(pivots)
    # columns are pivoted in walk order, and each pivot row is zero in the
    # columns walked before its own
    walked = [column_key[c] for c, _, _ in pivots]
    assert walked == sorted(walked)
    for c, _, row in pivots:
        assert row[c] != 0 and min(column_key[j] for j in row) == column_key[c]
    # the pivot rows lie in the row space of m
    dense = [[row.get(j, 0) for j in range(m.cols)] for _, _, row in pivots]
    assert oracle_rank(data + dense) == len(pivots)


@given(small_int_matrix())
def test_rank_equals_rank_of_transpose(data):
    m = RationalMatrix.from_rows(data)
    assert exactla.rank(m) == exactla.rank(m.transpose())


_ENTRY = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def small_rational_matrix(draw, max_dim=4, square=False):
    """(rows as lists of Fractions, column count); either count may be 0."""
    rows = draw(st.integers(0, max_dim))
    cols = rows if square else draw(st.integers(0, max_dim))
    return [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)], cols


def test_oracle_rank_clears_denominators():
    assert oracle_rank([[Fraction(1, 2)]]) == 1
    assert oracle_rank([[Fraction(1, 2), 1], [1, 2]]) == 1


@given(small_rational_matrix())
def test_rank_matches_oracle_on_rational_entries(drawn):
    data, cols = drawn
    assert exactla.rank(RationalMatrix.from_rows(data, cols=cols)) == oracle_rank(data)


@given(small_rational_matrix())
def test_kernel_basis_matches_oracle(drawn):
    data, cols = drawn
    m = RationalMatrix.from_rows(data, cols=cols)
    k = exactla.kernel_basis(m)
    assert k.rows == m.cols
    assert (m @ k).is_zero()
    assert k.cols == m.cols - oracle_rank(data)
    assert oracle_rank(k.to_rows()) == k.cols


@given(small_rational_matrix(square=True))
def test_inverse_matches_oracle(drawn):
    data, n = drawn
    m = RationalMatrix.from_rows(data, cols=n)
    if oracle_rank(data) == n:
        inv = exactla.inverse(m)
        assert inv @ m == RationalMatrix.identity(n)
        assert m @ inv == RationalMatrix.identity(n)
    else:
        with pytest.raises(ShapeMismatch):
            exactla.inverse(m)


def test_oracle_det_clears_denominators():
    assert oracle_det([[Fraction(1, 2), 1], [1, 2]]) == 0
    assert oracle_det([[Fraction(1, 2)]]) == Fraction(1, 2)


@st.composite
def composable_pair(draw, max_dim=4):
    """Rows of an r x k and a k x c rational matrix, and c; any of r, k, c may be 0."""
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    a = [[draw(_ENTRY) for _ in range(k)] for _ in range(r)]
    b = [[draw(_ENTRY) for _ in range(c)] for _ in range(k)]
    return a, b, c


@given(composable_pair())
def test_matmul_matches_oracle(drawn):
    a, b, c = drawn
    product = RationalMatrix.from_rows(a, cols=len(b)) @ RationalMatrix.from_rows(b, cols=c)
    assert (product.rows, product.cols) == (len(a), c)
    assert product.to_rows() == oracle_matmul(a, b, c)


def _all_fractions(m: RationalMatrix) -> bool:
    return all(type(v) is Fraction for _, _, v in m.nonzero_entries())


@given(composable_pair(), st.booleans())
def test_results_have_fraction_entries(drawn, integral):
    # integer data is where int / int would silently give a float
    a, b, c = drawn
    if integral:
        a = [[x.numerator for x in row] for row in a]
        b = [[x.numerator for x in row] for row in b]
    ma = RationalMatrix.from_rows(a, cols=len(b))
    assert _all_fractions(ma @ RationalMatrix.from_rows(b, cols=c))
    assert _all_fractions(exactla.kernel_basis(ma))
    if ma.rows == ma.cols and oracle_rank(a) == ma.rows:
        assert _all_fractions(exactla.inverse(ma))


@pytest.mark.parametrize("n", range(1, 13))
def test_hilbert_matrix_rank_and_inverse(n):
    # entries 1/(i+j+1) clear to large integers, and the inverse has
    # integer entries of up to 3.7e15 at n = 12
    hilbert = RationalMatrix.from_rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    assert exactla.rank(hilbert) == n
    closed_form = RationalMatrix.from_rows(
        [
            [
                (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    inv = exactla.inverse(hilbert)
    assert inv == closed_form
    assert inv @ hilbert == RationalMatrix.identity(n)


def test_smith_normal_form_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        exactla.smith_normal_form(RationalMatrix.from_rows([[Fraction(1, 2)]]))


@given(small_int_matrix(max_dim=3, bound=4))
def test_smith_chain_and_minor_gcd(data):
    m = RationalMatrix.from_rows(data)
    factors = exactla.smith_normal_form(m)
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert len(factors) == oracle_rank(data)
    if factors:
        product = 1
        for f in factors:
            product *= f
        assert product == oracle_minor_gcd(data, len(factors))


@given(st.integers(0, 2**31 - 1))
def test_homology_invariant_under_change_of_basis(seed):
    rng = random.Random(seed)
    a, b, c = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
    # build d_in, d_out with zero composite: route d_in through a subspace
    # killed by d_out
    d_in = RationalMatrix.from_entries(
        b, a, {(i, j): rng.randint(-2, 2) for i in range(min(b, 2)) for j in range(a)}
    )
    d_out = RationalMatrix.from_entries(
        c, b, {(i, j): rng.randint(-2, 2) for i in range(c) for j in range(2, b)}
    )
    if not (d_out @ d_in).is_zero():
        return
    expected = oracle_homology_dim(d_in, d_out)
    sa = random_unimodular(rng, a)
    sb = random_unimodular(rng, b)
    sc = random_unimodular(rng, c)
    new_in = sb @ d_in @ exactla.inverse(sa)
    new_out = sc @ d_out @ exactla.inverse(sb)
    assert oracle_homology_dim(new_in, new_out) == expected


@given(small_int_matrix())
def test_euler_characteristic_of_two_term_complex(data):
    # chi of the complex 0 -> Q^cols -> Q^rows -> 0 equals chi of its homology
    m = RationalMatrix.from_rows(data)
    kernel = m.cols - exactla.rank(m)
    cokernel = m.rows - exactla.rank(m)
    assert m.cols - m.rows == kernel - cokernel
