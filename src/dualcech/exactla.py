"""Exact linear algebra over the rationals and the integers.

Every quantity in this package is ultimately a dimension, so a single
rounding error would falsify a theorem check.  All arithmetic here uses
arbitrary-precision ``fractions.Fraction`` (or plain ``int`` for integer
matrices); there is no floating point anywhere.

Matrices are conceptually dense and row-major.  Internally only nonzero
entries are stored, which keeps the differentials of large combinatorial
complexes cheap; the representation is invisible through the API and
cannot change any result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CompositionNonzero, ShapeMismatch

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
                entries[(i, j)] = as_fraction(value)
        return cls(nrows, ncols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "RationalMatrix":
        return cls(rows, cols, {k: as_fraction(v) for k, v in entries.items()})

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
        return RationalMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()})

    def scaled(self, factor) -> "RationalMatrix":
        factor = as_fraction(factor)
        if factor == 0:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix(self.rows, self.cols, {k: factor * v for k, v in self._entries.items()})

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
        return RationalMatrix(self.rows, self.cols, entries)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        other_rows: dict[int, dict[int, Fraction]] = {}
        for (k, j), value in other._entries.items():
            other_rows.setdefault(k, {})[j] = value
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, k), value in self._entries.items():
            row = other_rows.get(k)
            if row is None:
                continue
            for j, bv in row.items():
                key = (i, j)
                total = acc.get(key, _ZERO) + value * bv
                if total == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return RationalMatrix(self.rows, other.cols, acc)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch(
                f"cannot stack {self.rows}x{self.cols} beside {other.rows}x{other.cols}"
            )
        entries = dict(self._entries)
        for (i, j), value in other._entries.items():
            entries[(i, j + self.cols)] = value
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def take_columns(self, indices: Sequence[int]) -> "RationalMatrix":
        position = {c: new for new, c in enumerate(indices)}
        entries = {}
        for (i, j), value in self._entries.items():
            if j in position:
                entries[(i, position[j])] = value
        return RationalMatrix(self.rows, len(indices), entries)

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


def rank(m: RationalMatrix) -> int:
    """Exact rank by sparse Gaussian elimination.

    Pivots are chosen to keep fill-in low (shortest column, then shortest
    row, ties broken by index so runs are reproducible).  The pivot rule
    can only change the running time, never the result.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (i, j), value in m._entries.items():
        rows.setdefault(i, {})[j] = value
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    while cols:
        c = min(cols, key=lambda j: (len(cols[j]), j))
        r = min(cols[c], key=lambda i: (len(rows[i]), i))
        pivot_row = rows.pop(r)
        pivot_value = pivot_row[c]
        for j in pivot_row:
            holders = cols.get(j)
            if holders is not None:
                holders.discard(r)
                if not holders:
                    del cols[j]
        for i in list(cols.get(c, ())):
            row = rows[i]
            factor = row[c] / pivot_value
            for j, v in pivot_row.items():
                new = row.get(j, _ZERO) - factor * v
                if new == 0:
                    if j in row:
                        del row[j]
                        holders = cols.get(j)
                        if holders is not None:
                            holders.discard(i)
                            if not holders:
                                del cols[j]
                else:
                    if j not in row:
                        cols.setdefault(j, set()).add(i)
                    row[j] = new
            if not row:
                del rows[i]
        pivots += 1
    return pivots


def _rref(dense: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (matrix, pivot columns)."""
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(dense)):
            if dense[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        dense[r], dense[pivot] = dense[pivot], dense[r]
        pv = dense[r][c]
        if pv != 1:
            dense[r] = [x / pv for x in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivot_cols.append(c)
        r += 1
    return dense, pivot_cols


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the null space of ``m``."""
    dense, pivot_cols = _rref(m.to_rows(), m.cols)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    entries: dict[tuple[int, int], Fraction] = {}
    for k, free in enumerate(free_cols):
        entries[(free, k)] = _ONE
        for r, pc in enumerate(pivot_cols):
            value = dense[r][free]
            if value != 0:
                entries[(pc, k)] = -value
    return RationalMatrix(m.cols, len(free_cols), entries)


def inverse(m: RationalMatrix) -> RationalMatrix:
    if m.rows != m.cols:
        raise ShapeMismatch(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = [row + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(m.to_rows())]
    dense, pivot_cols = _rref(aug, n)
    if len(pivot_cols) != n:
        raise ShapeMismatch("matrix is singular")
    return RationalMatrix.from_rows([row[n:] for row in dense])


def homology_dim(d_in: RationalMatrix, d_out: RationalMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for two composable maps with d_out . d_in = 0."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"joint dimension mismatch: d_in lands in dim {d_in.rows}, d_out leaves dim {d_out.cols}"
        )
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out . d_in is not the zero map")
    return (d_in.rows - rank(d_out)) - rank(d_in)


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
    return RationalMatrix(row_off[-1], col_off[-1], entries)


class IntegerMatrix:
    """Immutable matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], int]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative matrix shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        data = {}
        for (i, j), value in entries.items():
            if not isinstance(value, int):
                raise TypeError(f"integer entries must be int, got {type(value).__name__}")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            if value != 0:
                data[(i, j)] = value
        self._entries = data

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        nrows = len(rows_data)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, {})
        ncols = len(rows_data[0]) if cols is None else cols
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ShapeMismatch(f"row {i} has {len(row)} entries, expected {ncols}")
            for j, value in enumerate(row):
                entries[(i, j)] = value
        return cls(nrows, ncols, entries)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], int]) -> "IntegerMatrix":
        return cls(rows, cols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {})

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeMismatch(f"index ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self._entries.get((i, j), 0)

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), value in self._entries.items():
            out[i][j] = value
        return out

    def to_rational(self) -> RationalMatrix:
        return RationalMatrix(self.rows, self.cols, {k: Fraction(v) for k, v in self._entries.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


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


def smith_normal_form(m: IntegerMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Classical reduction: bring the smallest entry to the corner, clear its
    row and column with euclidean steps, and when the corner fails to
    divide some remaining entry fold that row in and start over.  The
    folding step is what guarantees the divisibility chain.
    """
    a = m.to_rows()
    nr, nc = m.rows, m.cols
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
