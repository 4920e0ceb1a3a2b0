import copy
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from dualcech import exactla, formats, simplicial
from dualcech.errors import ShapeMismatch
from dualcech.exactla import RationalMatrix

from helpers import (
    CompositionNonzero,
    block_matrix,
    disguised_rays,
    negated,
    oracle_det,
    oracle_eliminate,
    oracle_homology_dim,
    oracle_inverse,
    oracle_matmul,
    oracle_minor_gcd,
    oracle_rank,
    oracle_smith_normal_form,
    random_complex,
    random_unimodular,
    same_storage,
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
    assert m.entry(0, 1) == Fraction(1, 3)


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
    assert oracle_inverse(m) @ m == RationalMatrix.identity(2)


def test_inverse_singular():
    with pytest.raises(ShapeMismatch):
        oracle_inverse(RationalMatrix.from_rows([[1, 2], [2, 4]]))


def test_block_matrix_assembly():
    one = RationalMatrix.identity(1)
    m = block_matrix([1, 1], [1, 1], {(0, 0): one, (1, 1): RationalMatrix.from_rows([[-1]])})
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
    # walking a matrix with shuffled rows and columns by index is walking
    # the original in the shuffled order, so any static order is covered
    row_order = list(range(len(data)))
    column_order = list(range(len(data[0])))
    rnd.shuffle(row_order)
    rnd.shuffle(column_order)
    shuffled = [[data[i][j] for j in column_order] for i in row_order]
    m = RationalMatrix.from_rows(shuffled)
    pivots = exactla._eliminate({i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(shuffled)})
    assert len(pivots) == oracle_rank(data)
    assert len({r for _, r, _ in pivots}) == len(pivots)
    assert len({c for c, _, _ in pivots}) == len(pivots)
    # columns are pivoted in walk order, and each pivot row is zero in the
    # columns walked before its own
    walked = [c for c, _, _ in pivots]
    assert walked == sorted(walked)
    for c, _, row in pivots:
        assert row[c] != 0 and min(row) == c
    # the pivot rows lie in the row space of m
    dense = [[row.get(j, 0) for j in range(m.cols)] for _, _, row in pivots]
    assert oracle_rank(shuffled + dense) == len(pivots)


@st.composite
def sparse_row_sets(draw):
    """Integer rows, column -> nonzero value, under sparse indices in shuffled order; some empty, some repeated."""
    row = st.dictionaries(st.integers(0, 12), st.integers(-4, 4).filter(bool), max_size=6)
    rows = draw(st.lists(row, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    indices = draw(st.lists(st.integers(0, 60), min_size=len(rows), max_size=len(rows), unique=True))
    return {i: dict(r) for i, r in zip(indices, rows)}


@given(sparse_row_sets())
def test_eliminate_matches_the_column_walk_oracle(rows):
    # same subtractions in the same order: the same pivots, pivot rows included
    assert exactla._eliminate(copy.deepcopy(rows)) == oracle_eliminate(rows)


@given(st.integers(0, 2**31 - 1))
def test_eliminate_matches_the_column_walk_oracle_on_coboundaries(seed):
    k = random_complex(random.Random(seed))
    for p in range(k.dim):
        d = simplicial.coboundary_matrix(k, p)
        transposed = exactla._by_column(d, set())
        assert exactla._eliminate(copy.deepcopy(transposed)) == oracle_eliminate(transposed), (k, p)


@given(small_int_matrix())
def test_rank_equals_rank_of_transpose(data):
    m = RationalMatrix.from_rows(data)
    assert exactla.rank(m) == exactla.rank(RationalMatrix.from_rows([list(col) for col in zip(*data)]))


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
        inv = oracle_inverse(m)
        assert inv @ m == RationalMatrix.identity(n)
        assert m @ inv == RationalMatrix.identity(n)
    else:
        with pytest.raises(ShapeMismatch):
            oracle_inverse(m)


def test_oracle_det_clears_denominators():
    assert oracle_det([[Fraction(1, 2), 1], [1, 2]]) == 0
    assert oracle_det([[Fraction(1, 2)]]) == Fraction(1, 2)


@st.composite
def square_int_matrix(draw, values, max_dim=6):
    """Square integer matrices of 0 to ``max_dim`` rows, entries from ``values``; at times one row is a combination of the others."""
    n = draw(st.integers(0, max_dim))
    rows = [[draw(st.sampled_from(values)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coefficients = [draw(st.integers(-2, 2)) if k != i else 0 for k in range(n)]
        rows[i] = [sum(a * row[j] for a, row in zip(coefficients, rows)) for j in range(n)]
    return rows


def _sparse_rows(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


# the second family has no unit entry, and zeros force row swaps in both
@given(st.one_of(square_int_matrix((-1, 0, 0, 1, 2, -3)), square_int_matrix((0, 2, -2, 3, -3, 5, 6, 0))))
def test_determinant_matches_oracle(rows):
    assert exactla._determinant(_sparse_rows(rows)) == oracle_det(rows)


def test_determinant_pins():
    for rows, det in [
        ([], 1),
        ([[2, 3], [3, 5]], 1),
        ([[0, 2], [3, 0]], -6),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[2, 4], [3, 6]], 0),
        ([[-1, 0], [0, 1]], -1),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 240),
    ]:
        assert exactla._determinant(_sparse_rows(rows)) == det == oracle_det(rows), rows


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
        assert _all_fractions(oracle_inverse(ma))


def _agrees(m: RationalMatrix, dense: list[list[Fraction]], cols: int) -> bool:
    """``m`` holds ``dense``, entry for entry and as a matrix built from it afresh."""
    return m.to_rows() == dense and m == RationalMatrix.from_rows(dense, cols=cols)


@given(composable_pair(), st.data())
def test_matrix_algebra_matches_dense_oracle(drawn, data):
    # the storage is canonical, so == must agree with entrywise equality
    # however a matrix was built
    a, b, c = drawn
    r, k = len(a), len(b)
    e = [[data.draw(_ENTRY) for _ in range(k)] for _ in range(r)]
    f = data.draw(_ENTRY.filter(bool))
    ma, me = RationalMatrix.from_rows(a, cols=k), RationalMatrix.from_rows(e, cols=k)
    mb = RationalMatrix.from_rows(b, cols=c)
    assert (ma == me) == (a == e)
    scalar = RationalMatrix(k, k, {(i, i): f for i in range(k)})
    assert _agrees(ma @ scalar, [[f * x for x in row] for row in a], k)
    product = oracle_matmul(a, b, c)
    dense = [row + p for row, p in zip(a, product)] + [[Fraction(0)] * k + row for row in b]
    blocks = {(0, 0): ma, (1, 1): mb, (0, 1): ma @ mb}
    assert _agrees(block_matrix([r, k], [k, c], blocks), dense, k + c)
    inverse = RationalMatrix(k, k, {(i, i): 1 / f for i in range(k)})
    assert ma @ scalar @ inverse == ma
    assert ma @ RationalMatrix.zeros(k, k) == RationalMatrix.zeros(r, k)


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
    inv = oracle_inverse(hilbert)
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


@st.composite
def int_matrix(draw, values, max_dim=5):
    """Integer matrices of 0 to ``max_dim`` rows and columns, entries drawn from ``values``."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return RationalMatrix(rows, cols, {(i, j): draw(st.sampled_from(values)) for i in range(rows) for j in range(cols)})


@given(st.one_of(int_matrix(range(-6, 7)), int_matrix((0, 2, -2, 3, -3, 6, -6))))
def test_smith_normal_form_matches_dense_oracle(m):
    # the second family has no unit entry, so only the dense residual can
    # decide it; the oracle folds rows into the corner until it divides the
    # rest, a different algorithm from the residual's smallest-pivot loop
    # and gcd/lcm pass
    assert exactla.smith_normal_form(m) == oracle_smith_normal_form(m)


@given(st.integers(0, 2**31 - 1))
def test_smith_normal_form_matches_dense_oracle_on_coboundaries_and_rays(seed):
    rng = random.Random(seed)
    k = random_complex(rng)
    for p in range(k.dim):
        m = simplicial.coboundary_matrix(k, p)
        assert exactla.smith_normal_form(m) == oracle_smith_normal_form(m), (k, p)
    n = rng.randint(1, 4)
    rays = disguised_rays(rng, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n + 1))])
    m = RationalMatrix.from_rows(rays)
    assert exactla.smith_normal_form(m) == oracle_smith_normal_form(m), rays


@st.composite
def integer_row_dicts(draw):
    """Integer rows, column -> nonzero value, under huge row and column keys in shuffled order; some rows empty."""
    keys = st.integers(0, 2**64)
    columns = draw(st.lists(keys, max_size=7, unique=True))
    values = st.sampled_from((1, -1, 2, -2, 3, -3, 4, 6, -6, 9, 10))
    row = st.dictionaries(st.sampled_from(columns), values, max_size=len(columns)) if columns else st.just({})
    rows = draw(st.lists(row, max_size=7)) + [{}] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    indices = draw(st.lists(keys, min_size=len(rows), max_size=len(rows), unique=True))
    return dict(zip(indices, rows))


@given(integer_row_dicts())
def test_smith_factors_of_rows_match_dense_oracle(rows):
    # the oracle takes the same matrix with rows and columns renumbered from 0
    column_index = {j: n for n, j in enumerate(sorted({j for row in rows.values() for j in row}))}
    entries = {(n, column_index[j]): v for n, row in enumerate(rows.values()) for j, v in row.items()}
    m = RationalMatrix(len(rows), len(column_index), entries)
    assert exactla._smith_factors(copy.deepcopy(rows)) == oracle_smith_normal_form(m)


@given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 6, 12), (3, 3, 9), (4,), (1, 2, 6, 12), (1, 1, 5, 10, 10)]))
def test_smith_normal_form_of_a_disguised_diagonal(seed, chain):
    # U D V has the invariant factors of D for unimodular U and V; without
    # a leading 1 every entry is a multiple of the first factor, so no unit
    # pivot exists and the residual alone decides
    rng = random.Random(seed)
    rows, cols = rng.randint(len(chain), 8), rng.randint(len(chain), 8)
    d = RationalMatrix(rows, cols, {(i, i): f for i, f in enumerate(chain)})
    m = random_unimodular(rng, rows) @ d @ random_unimodular(rng, cols)
    assert exactla.smith_normal_form(m) == list(chain)


def test_smith_normal_form_pins_without_unit_entries():
    assert exactla.smith_normal_form(RationalMatrix.from_rows([[2, 3]])) == [1]
    assert exactla.smith_normal_form(RationalMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


@given(st.integers(0, 2**31 - 1))
def test_homology_invariant_under_change_of_basis(seed):
    rng = random.Random(seed)
    a, b, c = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
    # build d_in, d_out with zero composite: route d_in through a subspace
    # killed by d_out
    d_in = RationalMatrix(
        b, a, {(i, j): rng.randint(-2, 2) for i in range(min(b, 2)) for j in range(a)}
    )
    d_out = RationalMatrix(
        c, b, {(i, j): rng.randint(-2, 2) for i in range(c) for j in range(2, b)}
    )
    if not (d_out @ d_in).is_zero():
        return
    expected = oracle_homology_dim(d_in, d_out)
    sa = random_unimodular(rng, a)
    sb = random_unimodular(rng, b)
    sc = random_unimodular(rng, c)
    new_in = sb @ d_in @ oracle_inverse(sa)
    new_out = sc @ d_out @ oracle_inverse(sb)
    assert oracle_homology_dim(new_in, new_out) == expected


@given(small_int_matrix())
def test_euler_characteristic_of_two_term_complex(data):
    # chi of the complex 0 -> Q^cols -> Q^rows -> 0 equals chi of its homology
    m = RationalMatrix.from_rows(data)
    kernel = m.cols - exactla.rank(m)
    cokernel = m.rows - exactla.rank(m)
    assert m.cols - m.rows == kernel - cokernel


# the storage is canonical: numerators grouped by row, no empty row, over
# the lowest common denominator; every door must write what the checking
# constructor writes from the same entries

_CANCELLING = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)))


def _rebuilt(m: RationalMatrix) -> RationalMatrix:
    """``m`` built afresh by the checking constructor from its entries."""
    return RationalMatrix(m.rows, m.cols, {(i, j): v for i, j, v in m.nonzero_entries()})


@st.composite
def _drawn_matrix(draw, rows, cols, entries=_CANCELLING):
    return RationalMatrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_products_are_stored_canonically_and_cancel_to_no_row(r, k, c, data):
    a, b = data.draw(_drawn_matrix(r, k)), data.draw(_drawn_matrix(k, c))
    assert same_storage(a @ b, _rebuilt(a @ b))
    # a times its kernel is zero in every row; stacked under another
    # matrix, some rows of the product cancel and the others need not
    kernel = exactla.kernel_basis(a)
    zero = a @ kernel
    assert zero.is_zero() and same_storage(zero, RationalMatrix.zeros(r, kernel.cols))
    e = data.draw(_drawn_matrix(c, k))
    stacked = RationalMatrix._placed(r + c, k, [(0, 0, 1, a), (r, 0, 1, e)]) @ kernel
    assert same_storage(stacked, _rebuilt(stacked))
    assert same_storage(stacked, RationalMatrix._placed(r + c, kernel.cols, [(r, 0, 1, e @ kernel)]))


@st.composite
def _blocks(draw):
    """Row and column dims of a block grid, and blocks (row block, column block, sign, matrix) at distinct places."""
    row_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    col_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    places = [(bi, bj) for bi in range(len(row_dims)) for bj in range(len(col_dims))]
    chosen = draw(st.lists(st.sampled_from(places), unique=True, max_size=len(places)))
    entries = st.one_of(_CANCELLING, _ENTRY)
    return row_dims, col_dims, [
        (bi, bj, draw(st.sampled_from((1, -1))), draw(_drawn_matrix(row_dims[bi], col_dims[bj], entries)))
        for bi, bj in chosen
    ]


@given(_blocks())
def test_block_writer_matches_the_block_matrix_oracle(drawn):
    # blocks of different denominators and signs, several in one block row
    row_dims, col_dims, blocks = drawn
    row_off = [sum(row_dims[:k]) for k in range(len(row_dims) + 1)]
    col_off = [sum(col_dims[:k]) for k in range(len(col_dims) + 1)]
    placed = RationalMatrix._placed(
        row_off[-1], col_off[-1], [(row_off[bi], col_off[bj], sign, m) for bi, bj, sign, m in blocks]
    )
    oracle = block_matrix(row_dims, col_dims, {(bi, bj): m if sign > 0 else negated(m) for bi, bj, sign, m in blocks})
    assert same_storage(placed, oracle)
    assert same_storage(placed, _rebuilt(placed))


@given(st.integers(0, 4), st.integers(0, 4), st.integers(2, 6), st.data())
def test_parse_coboundary_and_of_doors_are_stored_canonically(rows, cols, factor, data):
    m = data.draw(_drawn_matrix(rows, cols, st.one_of(_CANCELLING, _ENTRY)))
    value = [[x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}" for x in row] for row in m.to_rows()]
    assert same_storage(formats._matrix(value, "/m", rows, cols), _rebuilt(m))
    # numerators and denominator sharing a factor are reduced by _of
    scaled = {i: {j: v * factor for j, v in row.items()} for i, row in m._num.items()}
    assert same_storage(RationalMatrix._of(rows, cols, scaled, m._den * factor), _rebuilt(m))
    k = random_complex(random.Random(data.draw(st.integers(0, 2**31 - 1))))
    for p in range(-1, k.dim + 1):
        d = simplicial.coboundary_matrix(k, p)
        assert same_storage(d, _rebuilt(d))
