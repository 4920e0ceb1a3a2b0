"""First-quadrant bicomplexes and their filtration spectral sequence.

Cells live at (p, q) for 0 <= p <= width, 0 <= q <= height.  Horizontal
differentials move right, vertical ones move up, and the two must
anticommute.  ``make_bicomplex`` assembles the total differential
D = horizontal + vertical once, checks all three laws as D.D = 0 with
``CochainComplex.square_defects``, the check that ``presheaf`` makes of
functoriality too, and stores the total complex on the ``Bicomplex``,
which keeps no other copy of the maps; nothing assembles it again.

Every page is read off one filtered reduction of the total complex.  The
column filtration F^p (the cells with column >= p) is preserved by the
total differential, and the persistence pairing of each d_m under it
matches a cell sigma of degree m with a cell tau of degree m + 1 at gap
p(tau) - p(sigma) >= 0 (see ``_pairing``).  E_r^{p,q} counts the cells at
(p, q) that are unpaired or end a pair of gap >= r; the pairs of gap r are
the ranks of d_r, and Einf counts the unpaired cells alone.  The same
pairing gives the total cohomology: the pairs leaving total degree m
number rank d_m under any pivot order (``exactla._cleared_pivots``), so
H^m is the count of cells of degree m left unpaired, and the antidiagonal
sums of Einf equal it by definition.  Only pages 0, 1, 2 and infinity are
exposed.  Degeneration at the second page is tested by comparing E2
against Einf, so it fails exactly when some pair has gap >= 2, a nonzero
higher differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import Mapping, NamedTuple

from . import exactla
from .errors import InvalidBicomplex
# kernel_basis and rank are unused here; perfbench/spans.py traces them as names bound in this module
from .exactla import RationalMatrix, kernel_basis, rank  # noqa: F401
from .simplicial import CochainComplex

INFINITY = math.inf

# a basis vector of the (p, q) entry: (p, q, index)
_Cell = tuple[int, int, int]


@dataclass(frozen=True)
class Bicomplex:
    """Cell dimensions on the full grid and the total complex.

    ``total`` is the total complex, the cells of each degree by p
    ascending, whose differential D = H + V ``make_bicomplex`` assembled
    and checked; callers read the field.  The horizontal and vertical maps
    are its blocks and are not kept apart.
    """

    width: int
    height: int
    dims: Mapping[tuple[int, int], int]
    total: CochainComplex

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    # derived once per bicomplex and shared by every page and total_cohomology
    @cached_property
    def _pairs(self) -> tuple[tuple[_Cell, _Cell], ...]:
        return _pairing(self)


class SpectralPage(NamedTuple):
    page: int | float
    dims: Mapping[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)


def make_bicomplex(
    dims: Mapping[tuple[int, int], int],
    horizontal: Mapping[tuple[int, int], RationalMatrix] | None = None,
    vertical: Mapping[tuple[int, int], RationalMatrix] | None = None,
) -> Bicomplex:
    """Validate bicomplex data and assemble its total differential D = H + V.

    Missing cells have dimension 0 and missing maps are zero.  The shape of
    each given map is checked, so each map is a block of
    ``RationalMatrix._placed`` at the offsets of its cells in D_m, where m
    is the total degree of its source; a horizontal and a vertical map
    have different target cells, so no two blocks meet.  Then the three
    laws are checked at once, as D_{m+1} D_m = 0 in each total degree m, a
    product of the assembled matrices (``square_defects`` of the total
    complex): the blocks of D_{m+1} D_m from (p, q) to (p+2, q), (p, q+2)
    and (p+1, q+1) are H.H, V.V and VH + HV.
    A failure names the block of a nonzero entry of a product, the first
    of them with the horizontal blocks by (q, p) first, then the vertical
    ones by (p, q), then the mixed ones by (p, q).  Data in another sign
    convention is rejected rather than silently reinterpreted.
    """
    if not dims:
        raise InvalidBicomplex("a bicomplex needs at least one cell")
    for (p, q), d in dims.items():
        if p < 0 or q < 0:
            raise InvalidBicomplex(f"cell ({p},{q}) outside the first quadrant")
        if d < 0:
            raise InvalidBicomplex(f"negative dimension at ({p},{q})")
    width = max(p for p, _ in dims)
    height = max(q for _, q in dims)
    full_dims = {(p, q): dims.get((p, q), 0) for p in range(width + 1) for q in range(height + 1)}

    diagonals = [_antidiagonal(width, height, m) for m in range(width + height + 1)]
    # per total degree, the index of the first basis vector of each cell
    offsets = [dict(zip(diag, accumulate((full_dims[c] for c in diag), initial=0))) for diag in diagonals]
    blocks = [[] for _ in diagonals[1:]]  # per total degree m: the blocks of D_m

    def place(maps, kind, dp, dq):
        maps = dict(maps or {})
        for (p, q), source in full_dims.items():
            mat = maps.pop((p, q), None)
            if mat is None:
                continue
            target = full_dims.get((p + dp, q + dq), 0)
            if mat.rows != target or mat.cols != source:
                raise InvalidBicomplex(
                    f"{kind} map at ({p},{q}) is {mat.rows}x{mat.cols}, "
                    f"expected {target}x{source}"
                )
            if not mat.is_zero():  # so the target cell is on the grid
                blocks[p + q].append((offsets[p + q + 1][(p + dp, q + dq)], offsets[p + q][(p, q)], 1, mat))
        if maps:
            key = next(iter(maps))
            raise InvalidBicomplex(f"{kind} map given at {key}, outside the grid")

    place(horizontal, "horizontal", 1, 0)
    place(vertical, "vertical", 0, 1)
    space_dims = tuple(sum(full_dims[c] for c in diag) for diag in diagonals)
    total = CochainComplex(
        space_dims, tuple(RationalMatrix._placed(space_dims[m + 1], space_dims[m], placed) for m, placed in enumerate(blocks))
    )
    if broken := total.square_defects():
        cells = [[c for c in diag for _ in range(full_dims[c])] for diag in diagonals]
        raise InvalidBicomplex(min(_law(cells[m][j], cells[m + 2][i]) for m, i, j in broken)[1])
    return Bicomplex(width, height, full_dims, total)


def _law(source: tuple[int, int], target: tuple[int, int]) -> tuple[tuple[int, int, int], str]:
    """Report-order key and message of the law whose block of D.D runs from ``source`` to ``target``."""
    (p, q), (tp, _) = source, target
    if tp == p + 2:
        return (0, q, p), f"horizontal differential does not square to zero at ({p},{q})"
    if tp == p:
        return (1, p, q), f"vertical differential does not square to zero at ({p},{q})"
    return (2, p, q), f"differentials do not anticommute at ({p},{q})"


def _antidiagonal(width: int, height: int, m: int) -> list[tuple[int, int]]:
    return [(p, m - p) for p in range(max(0, m - height), min(width, m) + 1)]


def total_cohomology(b: Bicomplex) -> list[int]:
    """H^m of the total complex: the cells of degree m that ``_pairing`` leaves unpaired.

    The pairs leaving degree m number rank d_m, because ``_cleared_pivots``
    counts that rank under any pivot order once d.d = 0, which
    ``make_bicomplex`` checked.
    """
    dims = _page_dims(b, INFINITY)
    return [
        sum(dims[pos] for pos in _antidiagonal(b.width, b.height, m))
        for m in range(b.width + b.height + 1)
    ]


def _pairing(b: Bicomplex) -> tuple[tuple[_Cell, _Cell], ...]:
    """The persistence pairing of the total complex under the column filtration.

    Each total degree m lists its cells (p, q, k), k indexing a basis of the
    (p, q) entry, in the order of the total differential that
    ``make_bicomplex`` assembled: by p ascending, so index order refines p
    order.  The columns of d_m are taken largest index first, and the pivot
    of each is its live row of smallest index, so of smallest p
    (Zomorodian-Carlsson, *Computing persistent homology*, 2005).  That is
    the one rule of ``exactla._eliminate``, on the transpose of d_m: it
    walks the columns of d_m by descending index and reduces each at its
    live row of smallest index against the column taken before it that owns
    that row, looked up in a table from row to column, until no column owns
    it.  A column sigma only gains multiples of columns taken before it, so
    it stays d_m of a cochain in the subcomplex F^p(sigma), and its pivot
    tau pairs with it at gap p(tau) - p(sigma) >= 0.  The pairs do not
    depend on how the elimination goes: let B(tau, sigma) be the block of
    d_m on the rows up to tau and the columns taken up to sigma; (sigma,
    tau) is a pair exactly when rank B(tau, sigma) - rank B(tau-, sigma) -
    rank B(tau, sigma-) + rank B(tau-, sigma-) = 1, with tau- the row before
    tau and sigma- the column taken before sigma, and adding a column to one
    taken after it keeps every such rank.

    ``exactla._cleared_pivots`` clears: the cells paired in d_m are
    dropped as columns of d_{m+1}, which keeps every rank.  Under this
    order it keeps the pairs as well.  The reduced column of the partner
    sigma of a cleared tau is a*tau (a != 0) plus rows of larger index,
    and d_{m+1} kills it, so d_{m+1}(tau) is a combination of the columns
    of d_{m+1} at cells of larger index, all taken before tau.  Column tau
    would reduce to zero, and deleting it changes the rank of no block B.
    """
    cells = [
        [(p, q, k) for p, q in _antidiagonal(b.width, b.height, m) for k in range(b.dim(p, q))]
        for m in range(len(b.total.space_dims))
    ]
    by_degree = exactla._cleared_pivots(partial(exactla._by_column, d) for d in b.total.differentials)
    return tuple(
        (cells[m][j], cells[m + 1][i]) for m, pivots in enumerate(by_degree) for i, j in pivots
    )


def _page_dims(b: Bicomplex, r: int | float) -> dict[tuple[int, int], int]:
    """E_r^{p,q}: the cells at (p, q) that are unpaired or end a pair of gap >= r."""
    dims = {(p, q): b.dim(p, q) for p in range(b.width + 1) for q in range(b.height + 1)}
    for sigma, tau in b._pairs:
        if tau[0] - sigma[0] < r:
            dims[sigma[:2]] -= 1
            dims[tau[:2]] -= 1
    return dims


def page(b: Bicomplex, r: int) -> SpectralPage:
    """Page E0 (raw dims), E1 (vertical cohomology) or E2 (horizontal cohomology of E1).

    Read off the filtered pairing of ``_pairing`` (with clearing, which
    leaves it unchanged): E_r^{p,q} counts the cells at (p, q) that are
    unpaired or end a pair of gap at least r.  A pair of gap r is one rank
    of d_r, so it is on E_r and gone from E_{r+1}; the pairs of gap 0 are
    the vertical differential.
    """
    if r not in (0, 1, 2):
        raise InvalidBicomplex(f"only pages 0, 1, 2 and infinity are computed, not {r}")
    return SpectralPage(r, _page_dims(b, r))


def page_infinity(b: Bicomplex) -> SpectralPage:
    """Graded pieces of the column filtration on total cohomology.

    These are the cells left unpaired by the filtered pairing of
    ``_pairing``, which clearing leaves unchanged.  Their antidiagonal sums
    are ``total_cohomology``, which counts the same cells.
    """
    return SpectralPage(INFINITY, _page_dims(b, INFINITY))
