"""Exact linear algebra over the rationals, and Smith normal form over the integers.

Every quantity in this package is ultimately a dimension, so a single
rounding error would falsify a theorem check.  There is no floating point
anywhere: the API takes and returns arbitrary-precision
``fractions.Fraction`` entries, and the two inner loops run on Python
``int``s.  Rank, kernels, inverses and the filtered pairing behind the
spectral pages come from one sparse elimination, ``_eliminate``, with a
fill-reducing pivot order or a fixed one; Smith normal form is the only
other reduction.

``_eliminate`` first scales each row by a positive rational to integers
with no common factor, which leaves the row space unchanged, and then
eliminates fraction-free: a row is replaced by an integer combination
``s*row - t*pivot_row`` with ``s > 0`` and divided by the gcd of its
entries.  Each row so stays a positive multiple of the row that rational
elimination would hold, with the same zero pattern, so the pivots, the
rank and the row space of the triangular system are the same.  Kernel
vectors are read off that system with the free coordinates fixed to a unit
vector; such a vector is unique, so the kernel basis (and the inverse read
off it) does not depend on the scaling.  A product multiplies the integer
numerators of both operands over their common denominators and forms one
``Fraction`` per nonzero entry of the result.

Matrices are conceptually dense and row-major.  Internally only nonzero
entries are stored, which keeps the differentials of large combinatorial
complexes cheap; the representation is invisible through the API and
cannot change any result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping, Sequence

from .errors import ShapeMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_rows(m: RationalMatrix) -> tuple[dict[int, dict[int, int]], int]:
    """The nonzero rows of ``m`` as integer numerators over the common denominator."""
    d = lcm(*(v.denominator for v in m._entries.values()))
    rows: dict[int, dict[int, int]] = {}
    if d == 1:
        for (i, j), v in m._entries.items():
            rows.setdefault(i, {})[j] = v.numerator
    else:
        for (i, j), v in m._entries.items():
            rows.setdefault(i, {})[j] = v.numerator * (d // v.denominator)
    return rows, d


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
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Fraction]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative matrix shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        data = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            value = as_fraction(value)
            if value != 0:
                data[(i, j)] = value
        self._entries = data

    @classmethod
    def _of_fractions(cls, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> "RationalMatrix":
        """Wrap nonzero in-bounds ``Fraction`` entries without checking them again."""
        m = object.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, entries
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
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "RationalMatrix":
        return cls(rows, cols, entries)

    @classmethod
    def column(cls, values: Sequence) -> "RationalMatrix":
        return cls.from_rows([[v] for v in values], cols=1)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self._entries.get((i, j), _ZERO)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entry(*key)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._entries.items():
            out[i][j] = value
        return out

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, v) for (i, j), v in sorted(self._entries.items())]

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of_fractions(self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()})

    def scaled(self, factor) -> "RationalMatrix":
        factor = as_fraction(factor)
        if factor == 0:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix._of_fractions(self.rows, self.cols, {k: factor * v for k, v in self._entries.items()})

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        entries = dict(self._entries)
        for key, value in other._entries.items():
            total = entries.get(key, _ZERO) + value
            if total == 0:
                entries.pop(key, None)
            else:
                entries[key] = total
        return RationalMatrix._of_fractions(self.rows, self.cols, entries)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        left, da = _integer_rows(self)
        right, db = _integer_rows(other)
        d = da * db
        entries: dict[tuple[int, int], Fraction] = {}
        for i, row in left.items():
            acc: dict[int, int] = {}
            for k, a in row.items():
                right_row = right.get(k)
                if right_row is None:
                    continue
                for j, b in right_row.items():
                    acc[j] = acc.get(j, 0) + a * b
            for j, n in acc.items():
                if n:
                    entries[(i, j)] = Fraction(n) if d == 1 else Fraction(n, d)
        return RationalMatrix._of_fractions(self.rows, other.cols, entries)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch(
                f"cannot stack {self.rows}x{self.cols} beside {other.rows}x{other.cols}"
            )
        entries = dict(self._entries)
        for (i, j), value in other._entries.items():
            entries[(i, j + self.cols)] = value
        return RationalMatrix._of_fractions(self.rows, self.cols + other.cols, entries)

    def take_columns(self, indices: Sequence[int]) -> "RationalMatrix":
        position = {c: new for new, c in enumerate(indices)}
        entries = {}
        for (i, j), value in self._entries.items():
            if j in position:
                entries[(i, position[j])] = value
        return RationalMatrix._of_fractions(self.rows, len(indices), entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(
                " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
            )
            return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def _eliminate(
    m: RationalMatrix,
    pivot_limit: int | None = None,
    order: tuple[Callable[[int], object], Callable[[int], object]] | None = None,
) -> list[tuple[int, int, dict[int, int]]]:
    """Sparse fraction-free elimination; returns the pivots as (column, row index, row).

    Rows are scaled to integers with coprime entries; a row holding ``a``
    in the pivot column becomes ``(p/g)*row - (a/g)*pivot_row`` for the
    pivot value ``p`` and ``g = gcd(a, p)`` signed like ``p``, and is then
    divided by the gcd of its entries.  By default pivots are chosen to
    keep fill-in low (shortest column, then shortest row, ties broken by
    index so runs are reproducible).  ``order = (column_key, row_key)``
    fixes the order instead: the columns are walked once, in increasing
    ``column_key``, and each live one is pivoted on its holder of least
    ``row_key``.  One forward pass suffices: every live row is zero in the
    columns already walked, so a pivot row is too, and fill-in lands only
    in columns after the current pivot.  The pivot rule can change the
    pivots but not the rank or the row space: each pivot row is zero in
    the pivot columns of the rows before it, so the rows form a triangular
    system with the row space of ``m``.  A pivot reports the index in ``m``
    of the row it came from, which was changed only by positive scaling
    and by adding multiples of earlier pivot rows.  Only columns below ``pivot_limit`` (default: all)
    hold pivots; rows left with entries in the other columns alone are not
    returned.
    """
    limit = m.cols if pivot_limit is None else pivot_limit
    rows, _ = _integer_rows(m)
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        row = rows[i] = _primitive(row)
        for j in row:
            if j < limit:
                cols.setdefault(j, set()).add(i)
    if order is not None:
        column_key, row_key = order
        walk = iter(sorted(cols, key=column_key))
    pivots: list[tuple[int, int, dict[int, int]]] = []
    while cols:
        if order is None:
            c = min(cols, key=lambda j: (len(cols[j]), j))
            r = min(cols[c], key=lambda i: (len(rows[i]), i))
        else:
            c = next(j for j in walk if j in cols)
            r = min(cols[c], key=row_key)
        pivot_row = rows.pop(r)
        p = pivot_row[c]
        for j in pivot_row:
            holders = cols.get(j)
            if holders is not None:
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
                        holders = cols.get(j)
                        if holders is not None:
                            holders.discard(i)
                            if not holders:
                                del cols[j]
                else:
                    if j < limit and j not in row:
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
    return RationalMatrix._of_fractions(ncols, len(free), entries)


def rank(m: RationalMatrix) -> int:
    """Exact rank by sparse Gaussian elimination."""
    return len(_eliminate(m))


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the null space of ``m``."""
    return _back_substitute(_eliminate(m), m.cols)


def inverse(m: RationalMatrix) -> RationalMatrix:
    """m^-1, read off the kernel of [m | -I]: kernel vector k is (m^-1 e_k, e_k)."""
    if m.rows != m.cols:
        raise ShapeMismatch(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    pivots = _eliminate(m.hstack(-RationalMatrix.identity(n)), pivot_limit=n)
    if len(pivots) != n:
        raise ShapeMismatch("matrix is singular")
    kernel = _back_substitute(pivots, 2 * n)
    return RationalMatrix._of_fractions(n, n, {(i, k): v for (i, k), v in kernel._entries.items() if i < n})


def block_matrix(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: Mapping[tuple[int, int], RationalMatrix],
) -> RationalMatrix:
    """Assemble a matrix from blocks; absent blocks are zero."""
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    entries: dict[tuple[int, int], Fraction] = {}
    for (bi, bj), block in blocks.items():
        if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
            raise ShapeMismatch(
                f"block ({bi},{bj}) is {block.rows}x{block.cols}, "
                f"expected {row_dims[bi]}x{col_dims[bj]}"
            )
        ri, ci = row_off[bi], col_off[bj]
        for (i, j), value in block._entries.items():
            entries[(ri + i, ci + j)] = value
    return RationalMatrix._of_fractions(row_off[-1], col_off[-1], entries)


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
        if value.denominator != 1:
            raise TypeError(f"Smith normal form needs integer entries, got {value} at ({i},{j})")
        a[i][j] = value.numerator
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
