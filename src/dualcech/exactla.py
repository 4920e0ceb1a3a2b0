"""Exact linear algebra over the rationals, and Smith normal form over the integers.

Every quantity in this package is ultimately a dimension, so a single
rounding error would falsify a theorem check.  There is no floating point
anywhere.  A ``RationalMatrix`` stores integer numerators over one
positive common denominator, and every operation inside this module works
on those Python ``int``s; ``fractions.Fraction`` appears only at the API,
which takes ints, ``Fraction``s or 'p/q' strings and returns ``Fraction``
entries.  Rank, kernels and the filtered pairing behind the spectral
pages come from one sparse elimination, ``_eliminate``, with one pivot
rule: it walks the rows once by descending index, through a table from
each column to the row that owns it, and reduces each row at its
smallest column against that column's owner until it finds none and
claims the column.  These are the pivots of walking the columns by index
and pivoting each on its holder of largest row index, the order the
filtered pairing needs; rank, row space and clearing hold under any
order, so no caller chooses one.  A square integer matrix has its
determinant from ``_determinant``, a sparse fraction-free (Bareiss)
elimination that takes unit pivots first; ``toric.make_fan`` decides its
full-dimensional cones with it.  Smith normal form is the only other
reduction, ``_smith_factors``.  It takes integer rows shaped as
``_eliminate`` takes them: a matrix's numerators from
``smith_normal_form``, the door that checks they are integers, the
packed rows of each transposed coboundary from
``simplicial.integral_cohomology``, and the rays of a lower-dimensional
cone from ``toric.make_fan``.  It peels the unit pivots with a sparse row
update that keeps an index of the rows holding each column,
``_subtract``, exact over the integers when the pivot is +-1, and hands
what is left to ``_residual_factors``, a dense smallest-pivot loop
followed by one gcd/lcm pass over the diagonal it splits off.  A cochain
complex is ranked degree by degree in ``_cleared_pivots``, the one
clearing loop: it serves the cohomology of ``CochainComplex``, the
filtered pairing and the Betti numbers, and it is sound because d.d = 0
is known wherever a ``CochainComplex`` is built (its docstring lists the
builders) and holds for a coboundary by the alternating-sign identity.

``_eliminate`` reads the numerators, which are the matrix scaled by its
positive denominator, divides each row by the gcd of its entries, which
leaves the row space unchanged, and then eliminates fraction-free: a row
is replaced by an integer combination ``s*row - t*pivot_row`` with
``s > 0`` and divided by the gcd of its entries.  Each row so stays a
positive multiple of the row that rational elimination would hold, with
the same zero pattern, so the pivots, the rank and the row space of the
triangular system are the same.  Kernel vectors are read off that system
with the free coordinates fixed to a unit vector; such a vector is
unique, so the kernel basis does not depend on the scaling.

A matrix stores its numerators in the layout every elimination takes:
grouped by row, row index -> column index -> nonzero int, with no empty
row.  ``rank``, ``kernel_basis`` and ``smith_normal_form`` hand
``_eliminate`` and ``_smith_factors`` a copy of those rows, and a product
reads the rows of both operands as they are stored and multiplies over
the product of their denominators.  ``_cleared_pivots`` takes the rows
of the transpose of each d_m, without the cleared columns, from a
builder per degree: ``_by_column`` regroups a matrix's numerators by
column, and ``simplicial.betti_numbers`` writes the rows of a coboundary
straight from its packed cells, with no matrix.

A matrix enters through one of two doors.  The constructor, and
``from_rows``, ``zeros`` and ``identity`` on top of it, is for outside
data keyed by (row, column): it checks the shape and every index,
coerces each entry and brings the entries over one denominator.  ``_of``
takes numerators already grouped by row that are nonzero ints in bounds
by construction; it checks nothing, and each caller says in its
docstring why it needs no check.  Two kinds of caller use it: the
matrices the package derives itself (products, and the block matrices
of ``_placed``), and the doors that write rows straight from their
source, ``formats._matrix``, which reads a JSON matrix to reduced
numerators over their lcm and so has made the constructor's checks on
the way, and ``simplicial.coboundary_matrix``.  ``_placed`` is the one
block writer: the Cech differentials and the block-diagonal restrictions
of ``presheaf``, and the total differential of ``bicomplex``, are its
blocks at their offsets.  No other module reads the numerators or the
denominator.  The class keeps the algebra the package uses: products,
equality and reading entries back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ShapeMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce an exact value to ``Fraction``. Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"rational entries must be int, Fraction or 'p/q' string, got {type(value).__name__}"
    )


class RationalMatrix:
    """Immutable matrix of exact rationals.

    Zero-row and zero-column matrices are first class; they represent maps
    to or from the zero space and save every caller from special-casing
    empty complexes.

    Entry (i, j) is ``_num[i][j] / _den``: ``_num`` holds the nonzero
    integer numerators grouped by row, with no empty row, and ``_den > 0``
    is one common denominator, in lowest terms, gcd(``_den``, every
    numerator) = 1.  The form is canonical, so equal matrices have equal
    ``_den`` and ``_num``.  The constructor takes ``_den`` as the lcm of
    the reduced denominators of its entries, which is already lowest
    terms: for a prime p dividing ``_den``, the entry whose denominator
    holds the highest power of p has a numerator that p does not divide.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], object]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative matrix shape {rows}x{cols}")
        values = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            if type(value) is not int:
                value = as_fraction(value)
            if value:
                values[(i, j)] = value
        den = lcm(*(v.denominator for v in values.values()))
        num: dict[int, dict[int, int]] = {}
        for (i, j), v in values.items():
            num.setdefault(i, {})[j] = v.numerator * (den // v.denominator)
        self.rows, self.cols, self._num, self._den = rows, cols, num, den

    @classmethod
    def _of(cls, rows: int, cols: int, num: dict[int, dict[int, int]], den: int = 1) -> "RationalMatrix":
        """Wrap nonzero in-bounds numerators, grouped by row with no empty row, over ``den > 0``.

        Their common factor with ``den`` is divided out.  The gcd runs row
        by row and stops at the first row that brings it to 1; only when
        no row does is every numerator divided.
        """
        if den != 1:
            g = den
            for row in num.values():
                g = gcd(g, *row.values())
                if g == 1:
                    break
            else:
                den //= g
                num = {i: {j: v // g for j, v in row.items()} for i, row in num.items()}
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = rows, cols, num, den
        return m

    @classmethod
    def _placed(cls, rows: int, cols: int, blocks: list[tuple[int, int, int, "RationalMatrix"]]) -> "RationalMatrix":
        """The ``rows`` x ``cols`` matrix holding each (row offset, column offset, sign, block) of ``blocks``.

        The one block writer.  Every block's numerators are scaled to the
        lcm of the block denominators, signed by its sign (+-1), and
        written at its offsets.  The caller checks that each block fits at
        its offsets and that no two blocks meet at an entry, so the
        numerators are nonzero and in bounds, and a block's rows are
        nonempty; blocks may share rows.
        """
        den = lcm(*(m._den for *_, m in blocks))
        num: dict[int, dict[int, int]] = {}
        for ri, ci, sign, m in blocks:
            scale = sign * (den // m._den)
            for i, row in m._num.items():
                out = num.get(ri + i)
                if out is None:
                    out = num[ri + i] = {}
                for j, v in row.items():
                    out[ci + j] = scale * v
        return cls._of(rows, cols, num, den)

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence], cols: int | None = None) -> "RationalMatrix":
        nrows = len(rows_data)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, {})
        ncols = len(rows_data[0]) if cols is None else cols
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ShapeMismatch(f"row {i} has {len(row)} entries, expected {ncols}")
            for j, value in enumerate(row):
                entries[(i, j)] = value
        return cls(nrows, ncols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        # a negative shape goes to the constructor, which refuses it
        return cls._of(rows, cols, {}) if rows >= 0 and cols >= 0 else cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(n, n, {i: {i: 1} for i in range(n)}) if n >= 0 else cls.zeros(n, n)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return Fraction(self._num.get(i, {}).get(j, 0), self._den)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for i, row in self._num.items():
            for j, value in row.items():
                out[i][j] = Fraction(value, self._den)
        return out

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [
            (i, j, Fraction(v, self._den)) for i in sorted(self._num) for j, v in sorted(self._num[i].items())
        ]

    def is_zero(self) -> bool:
        return not self._num

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other._num
        num: dict[int, dict[int, int]] = {}
        for i, row in self._num.items():
            acc: dict[int, int] = {}
            for k, a in row.items():
                right_row = right.get(k)
                if right_row is None:
                    continue
                for j, b in right_row.items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                num[i] = acc if all(acc.values()) else {j: n for j, n in acc.items() if n}
        return RationalMatrix._of(self.rows, other.cols, num, self._den * other._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(
                " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
            )
            return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"
        return f"RationalMatrix({self.rows}x{self.cols}, {sum(map(len, self._num.values()))} nonzero)"


def _eliminate(rows: dict[int, dict[int, int]]) -> list[tuple[int, int, dict[int, int]]]:
    """Sparse fraction-free elimination of integer ``rows``; returns the pivots as (column, row index, row), by column.

    ``rows`` maps a row index to its nonzero entries, column -> value, and
    is consumed; a matrix's numerators serve, since a positive scaling
    changes no pivot.

    Each row is first divided by the gcd of its entries, so the rows are
    integers with coprime entries; a row holding ``a`` in the pivot column
    becomes ``(p/g)*row - (a/g)*pivot_row`` for the pivot value ``p`` and
    ``g = gcd(a, p)`` signed like ``p``, and is then divided by the gcd of
    its entries.  The rows are walked once, by descending index, with a
    table from each column to the row that owns it, the pivot lookup of
    persistence reduction (Zomorodian-Carlsson, *Computing persistent
    homology*, 2005; Bauer, *Ripser*, 2021).  A row is reduced at its
    smallest column against the owner of that column for as long as there
    is one, and otherwise claims the column; a row reduced to zero owns
    nothing.  The rank and the row space do not depend on the order, only
    the pivots can: each pivot row is zero in the columns before its own,
    so the pivot rows, by column, form a triangular system with the row
    space of ``rows``.  A pivot reports the index of the row it came from,
    which was changed only by positive scaling and by adding multiples of
    pivot rows of larger index.

    The pivots are those of the column walk that ``bicomplex._pairing``
    needs for the filtered pairing: walk the columns once by index and
    pivot each live one on its holder of largest row index.  Both walks
    make the same subtractions, in the same order, on every row.  In the
    column walk a live row is zero in every column already walked, so the
    rows holding column c when it comes up are the live rows whose
    smallest column is c.  The largest of them is the pivot and is not
    touched again; every other one is reduced against it and moves on to
    a larger smallest column, and a row's smallest column never falls.
    So the pivot of c is the row of largest index whose smallest column
    ends at c, as it stands after its own reductions at smaller columns.
    The row walk takes the rows by descending index, so by induction each
    row of larger index has had exactly its column-walk subtractions when
    row i comes up: the owner of c is then the row of largest index
    ending at c, and row i takes the same subtractions, at the same
    columns, in increasing column order.
    """
    owners: dict[int, tuple[int, dict[int, int]]] = {}
    for i in sorted(rows, reverse=True):
        row = rows[i]
        if not row:
            continue
        row = _primitive(row)
        while True:
            c = min(row)
            owner = owners.get(c)
            if owner is None:
                owners[c] = (i, row)
                break
            pivot_row = owner[1]
            p, a = pivot_row[c], row[c]
            g = gcd(a, p) if p > 0 else -gcd(a, p)
            s, t = p // g, a // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, v in pivot_row.items():
                new = row.get(j, 0) - t * v
                if new:
                    row[j] = new
                else:
                    # only where row held t * v, so j is in row
                    del row[j]
            if not row:
                break
            row = _primitive(row)
    return [(c, i, row) for c, (i, row) in sorted(owners.items())]


def _determinant(rows: list[dict[int, int]]) -> int:
    """Determinant of the square integer matrix with ``rows``, each its nonzero entries column -> value; consumed.

    Sparse fraction-free elimination (Bareiss, *Sylvester's identity and
    multistep integer-preserving Gaussian elimination*, 1968).  The
    columns are walked once by index.  Column c pivots on a live row with
    a +-1 there if there is one, else on the first live row holding it;
    with none the determinant is 0.  A pivot row is negated, in effect,
    when its pivot is negative, so every pivot p is positive.  Each other
    live row becomes ``(p*row - a*pivot_row) / prev`` outside column c,
    for its entry ``a`` in column c and the pivot ``prev`` of the column
    before (1 at the first): by Sylvester's identity the division is exact
    and the entries stay minors of the matrix.  A row with ``a = 0`` is
    ``(p/prev)*row``, so it is skipped when ``p = prev``, as after two unit
    pivots.  The last pivot is the determinant of the matrix with its rows
    in pivot order and the negated rows negated, so its sign is corrected
    by the parity of both.
    """
    live = dict(enumerate(rows))
    sign, prev = 1, 1
    for c in range(len(rows)):
        r = None
        for i, row in live.items():
            v = row.get(c)
            if v is not None:
                if v == 1 or v == -1:
                    r = i
                    break
                if r is None:
                    r = i
        if r is None:
            return 0
        pivot_row = live.pop(r)
        p = pivot_row.pop(c)
        # taking row r next moves it past the live rows of smaller index
        if sum(1 for i in live if i < r) % 2:
            sign = -sign
        if p < 0:
            sign, p, flip = -sign, -p, -1
        else:
            flip = 1
        for i, row in live.items():
            a = row.pop(c, 0) * flip
            if a == 0:
                if p != prev:
                    live[i] = {j: v * p // prev for j, v in row.items()}
            elif p == 1 == prev:
                for j, v in pivot_row.items():
                    new = row.get(j, 0) - a * v
                    if new:
                        row[j] = new
                    else:
                        del row[j]
            else:
                live[i] = {
                    j: x
                    for j in row.keys() | pivot_row.keys()
                    if (x := (p * row.get(j, 0) - a * pivot_row.get(j, 0)) // prev)
                }
        prev = p
    return sign * prev


def _take_pivot_row(rows: dict[int, dict[int, int]], cols: dict[int, set[int]], r: int) -> dict[int, int]:
    """Remove row ``r`` from ``rows`` and from the holders in ``cols``, and return it."""
    pivot_row = rows.pop(r)
    for j in pivot_row:
        holders = cols[j]
        holders.discard(r)
        if not holders:
            del cols[j]
    return pivot_row


def _subtract(row: dict[int, int], i: int, t: int, pivot_row: dict[int, int], cols: dict[int, set[int]]) -> None:
    """``row -= t * pivot_row`` in place, keeping ``cols``, the holders of each column, in step for row ``i``."""
    for j, v in pivot_row.items():
        new = row.get(j, 0) - t * v
        if new == 0:
            if j in row:
                del row[j]
                holders = cols[j]
                holders.discard(i)
                if not holders:
                    del cols[j]
        else:
            if j not in row:
                cols.setdefault(j, set()).add(i)
            row[j] = new


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its (nonzero) entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _cleared_pivots(degrees: Iterable[Callable[[set[int]], dict[int, dict[int, int]]]]) -> list[list[tuple[int, int]]]:
    """The pivots (row, column) of each d_m of a cochain complex, with clearing.

    ``degrees`` yields one builder per degree m.  Called with the cleared
    set, the rows of d_{m-1} that pivoted (empty in the first degree), it
    returns the rows of the transpose of d_m without the cleared columns:
    each other column j of d_m, keyed by j, as its nonzero numerators by
    row index of d_m.  ``_by_column`` is that builder for a
    ``RationalMatrix``; ``simplicial.betti_numbers`` builds the rows from
    packed cells instead, and its indices are the cells' keys.  Degree m
    eliminates these rows with ``_eliminate``: the uncleared columns of
    d_m are walked by descending index, each is reduced at its row of
    smallest index until no column taken before it owns that row, and
    then claims it, so a row of d_m pivots on the column of largest index
    that reduces to it.  The rows of d_m that pivot are dropped as
    columns of d_{m+1} (Chen-Kerber, *Persistent homology computation
    with a twist*, 2011; Bauer-Kerber-Reininghaus, *Clear and compress*,
    2014).  So ``len(pivots[m])`` is rank d_m, as it would be under any
    pivot order, provided d_{m+1} d_m = 0, which the caller must know
    (the docstring of ``simplicial.CochainComplex`` lists the builders
    that do).  Let R be the pivoted rows of d_m and C the columns used.
    The pivot rows of the transpose are an invertible triangular
    combination of its rows C, and on the columns R they are triangular
    with a nonzero diagonal, so d_m[R, C] is invertible.  Restricted to the columns C,
    d_{m+1} d_m = 0 reads d_{m+1}[:, R] d_m[R, C] = -d_{m+1}[:, ~R] d_m[~R, C]:
    the columns R of d_{m+1} lie in the span of its other columns, and
    dropping them keeps its rank.
    """
    out = []
    cleared: set[int] = set()
    for transposed in degrees:
        pivots = _eliminate(transposed(cleared))
        cleared = {c for c, _, _ in pivots}
        out.append([(c, r) for c, r, _ in pivots])
    return out


def _by_column(d: RationalMatrix, cleared: set[int]) -> dict[int, dict[int, int]]:
    """The numerators of ``d`` by column, the rows of its transpose, without the columns in ``cleared``; a row may be empty."""
    rows: dict[int, dict[int, int]] = {j: {} for j in range(d.cols) if j not in cleared}
    for i, row in d._num.items():
        for j, v in row.items():
            column = rows.get(j)
            if column is not None:
                column[i] = v
    return rows


def _back_substitute(pivots: list[tuple[int, int, dict[int, int]]], ncols: int) -> RationalMatrix:
    """Null space of triangular pivot rows, one kernel vector per free column.

    Kernel vector k is 1 at the k-th free column, 0 at the other free
    columns, and solves each pivot row for its pivot column, last row first.
    """
    pivot_cols = {c for c, _, _ in pivots}
    free = [j for j in range(ncols) if j not in pivot_cols]
    # solution[j][k]: coordinate j of kernel vector k
    solution = {f: {k: _ONE} for k, f in enumerate(free)}
    for c, _, row in reversed(pivots):
        acc: dict[int, Fraction] = {}
        for j, v in row.items():
            if j != c:
                for k, x in solution[j].items():
                    acc[k] = acc.get(k, _ZERO) - v * x
        pivot_value = row[c]
        solution[c] = {k: x / pivot_value for k, x in acc.items() if x != 0}
    entries = {(j, k): x for j, coords in solution.items() for k, x in coords.items()}
    return RationalMatrix(ncols, len(free), entries)


def rank(m: RationalMatrix) -> int:
    """Exact rank by sparse Gaussian elimination."""
    return len(_eliminate({i: dict(row) for i, row in m._num.items()}))


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the null space of ``m``."""
    return _back_substitute(_eliminate({i: dict(row) for i, row in m._num.items()}), m.cols)


def smith_normal_form(m: RationalMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of a matrix with integer entries.

    An entry with a denominator other than 1 raises ``TypeError``, which
    names the first such entry by row and column; a copy of the rows goes
    to ``_smith_factors``.
    """
    # in lowest terms some entry is fractional exactly when the denominator is not 1
    if m._den != 1:
        i, j, value = next((i, j, v) for i, j, v in m.nonzero_entries() if v.denominator != 1)
        raise TypeError(f"Smith normal form needs integer entries, got {value} at ({i},{j})")
    return _smith_factors({i: dict(row) for i, row in m._num.items()})


def _smith_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of the integer matrix with ``rows``, shaped as ``_eliminate`` takes them; consumed.

    ``rows`` maps a row index to its nonzero entries, column -> int, and
    may hold empty rows, which are dropped first: a row builder writes one
    row per cell, and an empty row would be a zero row of the dense
    residual.  ``smith_normal_form`` serves a matrix's numerators,
    ``simplicial.integral_cohomology`` the packed rows of each transposed
    coboundary, and ``toric.make_fan`` the rays of a cone.  Unit pivots
    are peeled first, sparsely (Dumas-Saunders-Villard, *On efficient
    sparse integer matrix Smith normal form computations*, 2001;
    Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004).  The
    columns are walked once by index, and a live column with an entry
    a_rc = +-1 is pivoted on its unit holder of largest row index.  Row
    operations, adding integer multiples of row r to the others, clear
    column c outside row r.  Column operations adding multiples of column
    c to the others would then clear row r, and since column c is now zero
    outside row r they touch no other row.  Both are unimodular, so
    SNF(M) = (1) + SNF(M'), where M' is the row-reduced matrix without row
    r and column c, and 1 divides every factor of M'.  Row r and column c
    are therefore dropped and the walk goes on in M'.  Whatever is left,
    without its zero rows and columns, goes through ``_residual_factors``,
    which is exact for any integer matrix.
    """
    rows = {i: row for i, row in rows.items() if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    peeled = 0
    for c in sorted(cols):
        r = max((i for i in cols.get(c, ()) if rows[i][c] in (1, -1)), default=None)
        if r is None:
            continue
        pivot_row = _take_pivot_row(rows, cols, r)
        p = pivot_row[c]
        for i in list(cols.get(c, ())):
            row = rows[i]
            # p = +-1 divides every entry, and a / p = a * p
            _subtract(row, i, row[c] * p, pivot_row, cols)
            if not row:
                del rows[i]
        peeled += 1
    live = sorted(cols)
    return [1] * peeled + _residual_factors([[row.get(j, 0) for j in live] for row in rows.values()])


def _residual_factors(a: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of the dense integer matrix ``a``, a list of equal-length rows, reduced in place.

    The loop pivots on a live entry p of smallest absolute value, at row r
    and column c.  Row operations, adding integer multiples of row r to the
    others, reduce every other entry of column c to its remainder modulo
    p; column operations, adding multiples of column c to the others,
    reduce every other entry of row r the same way.  When both are clear
    the matrix is (p) + M' up to the order of rows and columns, and since
    every operation is unimodular SNF(a) is the Smith normal form of
    diag(|p|) + M': row r and column c are dropped and the loop goes on in
    M'.  Otherwise some remainder is nonzero, and a remainder is smaller
    than |p| in absolute value, so the smallest live entry has shrunk.  A
    positive integer cannot shrink for ever, so a pivot splits off after
    finitely many rounds, and the matrix shrinks until it is zero.  What
    is left is the diagonal d_1, ..., d_k of a matrix with the Smith
    normal form of ``a``.

    One pass then replaces each pair (d_i, d_j), i < j, with (gcd, lcm).
    On rows and columns i and j of a diagonal matrix this is the 2 x 2
    diag(d_i, d_j), whose first invariant factor is the gcd of its
    entries, gcd(d_i, d_j), and whose two factors multiply to |det| =
    d_i d_j, so the second is lcm(d_i, d_j); unimodular operations on those
    rows and columns alone turn one into the other and keep the Smith
    normal form of the whole.  Once i has met every j > i, d_i divides
    every d_j, j > i, and it stays so: d_i is not touched again, and a
    later step replaces two multiples of d_i with their gcd and lcm, again
    multiples of d_i.  So the pass ends on the divisibility chain.
    """
    diagonal = []
    while any(any(row) for row in a):
        _, r, c = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        pivot_row = a[r]
        p = pivot_row[c]
        for i, row in enumerate(a):
            if i != r and row[c]:
                q = row[c] // p
                a[i] = [x - q * y for x, y in zip(row, pivot_row)]
        for j, v in enumerate(pivot_row):
            if j != c and v:
                q = v // p
                for row in a:
                    row[j] -= q * row[c]
        if sum(1 for v in pivot_row if v) == 1 and sum(1 for row in a if row[c]) == 1:
            diagonal.append(abs(p))
            del a[r]
            for row in a:
                del row[c]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return diagonal
