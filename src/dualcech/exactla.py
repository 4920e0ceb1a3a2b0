"""Exact linear algebra over the rationals, and Smith normal form over the integers.

Every quantity in this package is ultimately a dimension, so a single
rounding error would falsify a theorem check.  There is no floating point
anywhere.  A ``RationalMatrix`` stores integer numerators over one
positive common denominator, and every operation inside this module works
on those Python ``int``s; ``fractions.Fraction`` appears only at the API,
which takes ints, ``Fraction``s or 'p/q' strings and returns ``Fraction``
entries.  Rank, kernels and the filtered pairing behind the spectral
pages come from one sparse elimination, ``_eliminate``, with one pivot
rule: it walks the columns once by index and pivots each on its holder
of largest row index.  The filtered pairing needs that order, and rank,
row space and clearing hold under any order, so no caller chooses one.
Smith normal form is the only other reduction.  A cochain complex is
ranked degree by degree in ``_cleared_pivots``, the one clearing loop:
it serves both the cohomology of ``CochainComplex`` and the filtered
pairing, and it is sound because d.d = 0 is known wherever a
``CochainComplex`` is built (its docstring lists the builders).

``_eliminate`` reads the numerators, which are the matrix scaled by its
positive denominator, divides each row by the gcd of its entries, which
leaves the row space unchanged, and then eliminates fraction-free: a row
is replaced by an integer combination ``s*row - t*pivot_row`` with
``s > 0`` and divided by the gcd of its entries.  Each row so stays a
positive multiple of the row that rational elimination would hold, with
the same zero pattern, so the pivots, the rank and the row space of the
triangular system are the same.  Kernel vectors are read off that system
with the free coordinates fixed to a unit vector; such a vector is
unique, so the kernel basis does not depend on the scaling.  A product
multiplies the numerators of both operands over the product of their
denominators, and a sum adds them over the lcm of the denominators.

Matrices are conceptually dense and row-major.  Internally only nonzero
entries are stored, which keeps the differentials of large combinatorial
complexes cheap; the representation is invisible through the API and
cannot change any result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import ShapeMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _by_row(entries: Mapping[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    """The entries grouped by row: row index -> column index -> value."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


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

    Entry (i, j) is ``_entries[(i, j)] / _den``: ``_entries`` holds the
    nonzero integer numerators and ``_den > 0`` is one common denominator,
    in lowest terms, gcd(``_den``, every numerator) = 1.  The form is
    canonical, so equal matrices have equal ``_den`` and ``_entries``.
    The constructor takes ``_den`` as the lcm of the reduced denominators
    of its entries, which is already lowest terms: for a prime p dividing
    ``_den``, the entry whose denominator holds the highest power of p has
    a numerator that p does not divide.
    """

    __slots__ = ("rows", "cols", "_entries", "_den")

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
        self.rows, self.cols = rows, cols
        self._entries = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        self._den = den

    @classmethod
    def _of(cls, rows: int, cols: int, entries: dict[tuple[int, int], int], den: int = 1) -> "RationalMatrix":
        """Wrap nonzero in-bounds numerators over ``den > 0``, dividing out their common factor with ``den``."""
        if den != 1:
            g = gcd(den, *entries.values())
            if g != 1:
                den //= g
                entries = {k: v // g for k, v in entries.items()}
        m = object.__new__(cls)
        m.rows, m.cols, m._entries, m._den = rows, cols, entries, den
        return m

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
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "RationalMatrix":
        return cls(rows, cols, entries)

    @classmethod
    def column(cls, values: Sequence) -> "RationalMatrix":
        return cls.from_rows([[v] for v in values], cols=1)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return Fraction(self._entries.get((i, j), 0), self._den)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entry(*key)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._entries.items():
            out[i][j] = Fraction(value, self._den)
        return out

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, Fraction(v, self._den)) for (i, j), v in sorted(self._entries.items())]

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of(self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()}, self._den)

    def scaled(self, factor) -> "RationalMatrix":
        if type(factor) is not int:
            factor = as_fraction(factor)
        if factor == 0:
            return RationalMatrix.zeros(self.rows, self.cols)
        n, d = factor.numerator, factor.denominator
        return RationalMatrix._of(self.rows, self.cols, {k: n * v for k, v in self._entries.items()}, self._den * d)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        den = lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        entries = {k: s * v for k, v in self._entries.items()}
        for key, value in other._entries.items():
            total = entries.get(key, 0) + t * value
            if total == 0:
                entries.pop(key, None)
            else:
                entries[key] = total
        return RationalMatrix._of(self.rows, self.cols, entries, den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = _by_row(other._entries)
        entries: dict[tuple[int, int], int] = {}
        for i, row in _by_row(self._entries).items():
            acc: dict[int, int] = {}
            for k, a in row.items():
                right_row = right.get(k)
                if right_row is None:
                    continue
                for j, b in right_row.items():
                    acc[j] = acc.get(j, 0) + a * b
            for j, n in acc.items():
                if n:
                    entries[(i, j)] = n
        return RationalMatrix._of(self.rows, other.cols, entries, self._den * other._den)

    def take_columns(self, indices: Sequence[int]) -> "RationalMatrix":
        """Column ``indices[k]`` of ``self`` as column k; a column asked for twice is copied twice."""
        positions: dict[int, list[int]] = {}
        for new, c in enumerate(indices):
            positions.setdefault(c, []).append(new)
        entries = {}
        for (i, j), value in self._entries.items():
            for new in positions.get(j, ()):
                entries[(i, new)] = value
        return RationalMatrix._of(self.rows, len(indices), entries, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(
                " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
            )
            return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def _eliminate(m: RationalMatrix) -> list[tuple[int, int, dict[int, int]]]:
    """Sparse fraction-free elimination; returns the pivots as (column, row index, row).

    The rows are the numerators of ``m``, each divided by the gcd of its
    entries, so integers with coprime entries; a row holding ``a``
    in the pivot column becomes ``(p/g)*row - (a/g)*pivot_row`` for the
    pivot value ``p`` and ``g = gcd(a, p)`` signed like ``p``, and is then
    divided by the gcd of its entries.  The columns are walked once, by
    index, and each live one is pivoted on its holder of largest row
    index, the order ``bicomplex._pairing`` needs for the filtered
    pairing.  One forward pass suffices: every live row is zero in the
    columns already walked, so a pivot row is too, and fill-in lands only
    in columns after the current pivot.  The rank and the row space do
    not depend on the order, only the pivots can: each pivot row is zero
    in the pivot columns of the rows before it, so the rows form a
    triangular system with the row space of ``m``.  A pivot reports the
    index in ``m`` of the row it came from, which was changed only by
    positive scaling and by adding multiples of earlier pivot rows.
    """
    rows = _by_row(m._entries)
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        row = rows[i] = _primitive(row)
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots: list[tuple[int, int, dict[int, int]]] = []
    for c in sorted(cols):
        if c not in cols:
            continue
        r = max(cols[c])
        pivot_row = rows.pop(r)
        p = pivot_row[c]
        for j in pivot_row:
            holders = cols[j]
            holders.discard(r)
            if not holders:
                del cols[j]
        for i in list(cols.get(c, ())):
            row = rows[i]
            a = row[c]
            g = gcd(a, p) if p > 0 else -gcd(a, p)
            s, t = p // g, a // g
            if s != 1:
                for j in row:
                    row[j] *= s
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
            if row:
                rows[i] = _primitive(row)
            else:
                del rows[i]
        pivots.append((c, r, pivot_row))
    return pivots


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its (nonzero) entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _cleared_pivots(differentials: Sequence[RationalMatrix]) -> list[list[tuple[int, int]]]:
    """The pivots (row, column) of each d_m of a cochain complex, with clearing.

    Degree m eliminates the transpose of d_m without the entries of its
    cleared columns, each column keeping its index as a row index: the
    rows of d_m are walked by index, and each is pivoted on its uncleared
    column of largest index.  The rows of d_m that pivot are dropped as
    columns of d_{m+1} (Chen-Kerber, *Persistent homology computation
    with a twist*, 2011; Bauer-Kerber-Reininghaus, *Clear and compress*,
    2014).  So
    ``len(pivots[m])`` is rank d_m, as it would be under any pivot order,
    provided d_{m+1} d_m = 0, which the caller must know (the docstring of
    ``simplicial.CochainComplex`` lists the builders that do).  Let R be
    the pivoted rows of d_m and C the columns used.  The pivot rows of
    the transpose are an invertible lower-triangular combination of its
    rows C, and on the columns R they are triangular with a nonzero
    diagonal, so d_m[R, C] is invertible.  Restricted to the columns C,
    d_{m+1} d_m = 0 reads d_{m+1}[:, R] d_m[R, C] = -d_{m+1}[:, ~R] d_m[~R, C]:
    the columns R of d_{m+1} lie in the span of its other columns, and
    dropping them keeps its rank.
    """
    out = []
    cleared: set[int] = set()
    for d in differentials:
        entries = {(j, i): v for (i, j), v in d._entries.items() if j not in cleared}
        # the numerators alone: a positive scaling changes no pivot
        pivots = _eliminate(RationalMatrix._of(d.cols, d.rows, entries))
        cleared = {c for c, _, _ in pivots}
        out.append([(c, r) for c, r, _ in pivots])
    return out


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
    return len(_eliminate(m))


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the null space of ``m``."""
    return _back_substitute(_eliminate(m), m.cols)


def block_matrix(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: Mapping[tuple[int, int], RationalMatrix],
) -> RationalMatrix:
    """Assemble a matrix from blocks; absent blocks are zero.

    The numerators of each block are brought over the lcm of the block
    denominators.
    """
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    den = lcm(*(block._den for block in blocks.values()))
    entries: dict[tuple[int, int], int] = {}
    for (bi, bj), block in blocks.items():
        if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
            raise ShapeMismatch(
                f"block ({bi},{bj}) is {block.rows}x{block.cols}, "
                f"expected {row_dims[bi]}x{col_dims[bj]}"
            )
        ri, ci, s = row_off[bi], col_off[bj], den // block._den
        for (i, j), value in block._entries.items():
            entries[(ri + i, ci + j)] = s * value
    return RationalMatrix._of(row_off[-1], col_off[-1], entries, den)


def _smallest_nonzero(a: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            v = row[j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
                if best_abs == 1:
                    return best
    return best


def smith_normal_form(m: RationalMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of a matrix with integer entries.

    An entry with a denominator other than 1 raises ``TypeError``.
    Classical reduction over the integers: bring the smallest entry to the
    corner, clear its row and column with euclidean steps, and when the
    corner fails to divide some remaining entry fold that row in and start
    over.  The folding step is what guarantees the divisibility chain.
    """
    nr, nc = m.rows, m.cols
    a = [[0] * nc for _ in range(nr)]
    for (i, j), value in m._entries.items():
        # in lowest terms some entry is fractional exactly when the denominator is not 1
        if value % m._den:
            raise TypeError(f"Smith normal form needs integer entries, got {Fraction(value, m._den)} at ({i},{j})")
        a[i][j] = value
    factors: list[int] = []
    t = 0
    while True:
        pos = _smallest_nonzero(a, t, nr, nc)
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t; a remainder strictly smaller than the pivot
            # becomes the new pivot, so this terminates
            for i in range(t + 1, nr):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
            # clear row t the same way
            for j in range(t + 1, nc):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
            if any(a[i][t] for i in range(t + 1, nr)):
                continue  # column reduction was disturbed by the row sweep
            offender = None
            pivot = a[t][t]
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        factors.append(abs(a[t][t]))
        t += 1
        if t >= min(nr, nc):
            break
    return factors
