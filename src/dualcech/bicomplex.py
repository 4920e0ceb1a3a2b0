"""First-quadrant bicomplexes and their filtration spectral sequence.

Cells live at (p, q) for 0 <= p <= width, 0 <= q <= height.  Horizontal
differentials move right, vertical ones move up, and the two must
anticommute; a valid bicomplex therefore has a total complex with
differential (horizontal + vertical).

Every page is read off one filtered reduction of the total complex.  The
column filtration F^p (the cells with column >= p) is preserved by the
total differential, and the persistence pairing of each d_m under it
matches a cell sigma of degree m with a cell tau of degree m + 1 at gap
p(tau) - p(sigma) >= 0 (see ``_pairing``).  E_r^{p,q} counts the cells at
(p, q) that are unpaired or end a pair of gap >= r; the pairs of gap r are
the ranks of d_r, and Einf counts the unpaired cells alone.  Only pages 0,
1, 2 and infinity are exposed.  Degeneration at the second page is tested
by comparing E2 against Einf, so it fails exactly when some pair has gap
>= 2, a nonzero higher differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from . import exactla
from .errors import InvalidBicomplex
# kernel_basis and rank are unused here; perfbench/spans.py traces them as names bound in this module
from .exactla import RationalMatrix, kernel_basis, rank  # noqa: F401
from .presheaf import CochainComplex

INFINITY = math.inf

# a basis vector of the (p, q) entry: (p, q, index)
_Cell = tuple[int, int, int]


@dataclass(frozen=True)
class Bicomplex:
    width: int
    height: int
    dims: Mapping[tuple[int, int], int]
    horizontal: Mapping[tuple[int, int], RationalMatrix]
    vertical: Mapping[tuple[int, int], RationalMatrix]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    # derived once per bicomplex and shared by every page and total_cohomology
    @cached_property
    def _total(self) -> CochainComplex:
        return total_complex(self)

    @cached_property
    def _pairs(self) -> tuple[tuple[_Cell, _Cell], ...]:
        return _pairing(self)


@dataclass(frozen=True)
class SpectralPage:
    page: int | float
    dims: Mapping[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)


def make_bicomplex(
    dims: Mapping[tuple[int, int], int],
    horizontal: Mapping[tuple[int, int], RationalMatrix] | None = None,
    vertical: Mapping[tuple[int, int], RationalMatrix] | None = None,
) -> Bicomplex:
    """Normalize and validate bicomplex data.

    Missing cells have dimension 0 and missing maps are zero.  Shapes, the
    square-zero laws along rows and columns, and anticommutativity are all
    checked here; data in another sign convention is rejected rather than
    silently reinterpreted.
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

    def normalize(maps, kind, target_of):
        maps = dict(maps or {})
        out = {}
        for p in range(width + 1):
            for q in range(height + 1):
                tp, tq = target_of(p, q)
                source = full_dims[(p, q)]
                target = full_dims.get((tp, tq), 0)
                mat = maps.pop((p, q), None)
                if mat is None:
                    mat = RationalMatrix.zeros(target, source)
                if mat.rows != target or mat.cols != source:
                    raise InvalidBicomplex(
                        f"{kind} map at ({p},{q}) is {mat.rows}x{mat.cols}, "
                        f"expected {target}x{source}"
                    )
                out[(p, q)] = mat
        if maps:
            key = next(iter(maps))
            raise InvalidBicomplex(f"{kind} map given at {key}, outside the grid")
        return out

    horiz = normalize(horizontal, "horizontal", lambda p, q: (p + 1, q))
    vert = normalize(vertical, "vertical", lambda p, q: (p, q + 1))
    for q in range(height + 1):
        for p in range(width - 1):
            if not (horiz[(p + 1, q)] @ horiz[(p, q)]).is_zero():
                raise InvalidBicomplex(f"horizontal differential does not square to zero at ({p},{q})")
    for p in range(width + 1):
        for q in range(height - 1):
            if not (vert[(p, q + 1)] @ vert[(p, q)]).is_zero():
                raise InvalidBicomplex(f"vertical differential does not square to zero at ({p},{q})")
    for p in range(width):
        for q in range(height):
            anti = vert[(p + 1, q)] @ horiz[(p, q)] + horiz[(p, q + 1)] @ vert[(p, q)]
            if not anti.is_zero():
                raise InvalidBicomplex(f"differentials do not anticommute at ({p},{q})")
    return Bicomplex(width, height, full_dims, horiz, vert)


def from_cochain_rows(rows: Sequence[CochainComplex]) -> Bicomplex:
    """Stack cochain complexes as rows q = 0, 1, ... with zero vertical maps.

    Row q keeps its own differential up to the sign (-1)^q, the twist that
    makes stacked rows anticommute with any vertical maps added later.
    """
    if not rows:
        raise InvalidBicomplex("need at least one row")
    dims: dict[tuple[int, int], int] = {(0, 0): 0}
    horizontal: dict[tuple[int, int], RationalMatrix] = {}
    for q, row in enumerate(rows):
        for p, d in enumerate(row.space_dims):
            dims[(p, q)] = d
        for p, mat in enumerate(row.differentials):
            horizontal[(p, q)] = mat.scaled(-1) if q % 2 else mat
    return make_bicomplex(dims, horizontal, {})


def _antidiagonal(b: Bicomplex, m: int) -> list[tuple[int, int]]:
    return [(p, m - p) for p in range(max(0, m - b.height), min(b.width, m) + 1)]


def total_complex(b: Bicomplex) -> CochainComplex:
    top = b.width + b.height
    space_dims = []
    for m in range(top + 1):
        space_dims.append(sum(b.dim(p, q) for p, q in _antidiagonal(b, m)))
    differentials = []
    for m in range(top):
        source = _antidiagonal(b, m)
        target = _antidiagonal(b, m + 1)
        target_index = {pos: i for i, pos in enumerate(target)}
        blocks: dict[tuple[int, int], RationalMatrix] = {}
        for si, (p, q) in enumerate(source):
            if (p + 1, q) in target_index:
                blocks[(target_index[(p + 1, q)], si)] = b.horizontal[(p, q)]
            if (p, q + 1) in target_index:
                blocks[(target_index[(p, q + 1)], si)] = b.vertical[(p, q)]
        differentials.append(
            exactla.block_matrix(
                [b.dim(p, q) for p, q in target],
                [b.dim(p, q) for p, q in source],
                blocks,
            )
        )
    return CochainComplex(tuple(space_dims), tuple(differentials))


def total_cohomology(b: Bicomplex) -> list[int]:
    return b._total.cohomology()


def _pairing(b: Bicomplex) -> tuple[tuple[_Cell, _Cell], ...]:
    """The persistence pairing of the total complex under the column filtration.

    Each total degree m lists its cells (p, q, k), k indexing a basis of
    the (p, q) entry, in the order of ``total_complex``: by p ascending, so
    index order refines p order.  The columns of d_m are taken largest
    index first, and the pivot of each is its live row of smallest index,
    so of smallest p (Zomorodian-Carlsson, *Computing persistent homology*,
    2005).  That is ``_eliminate`` on the transpose of d_m, walking the
    rows of d_m by index and pivoting each on the holder of largest index.
    A column sigma only gains multiples of columns taken before it, so it
    stays d_m of a cochain in the subcomplex F^p(sigma), and its pivot tau
    pairs with it at gap p(tau) - p(sigma) >= 0.  The pairs do not depend
    on how the elimination goes: let B(tau, sigma) be the block of d_m on
    the rows up to tau and the columns taken up to sigma; (sigma, tau) is
    a pair exactly when rank B(tau, sigma) - rank B(tau-, sigma) -
    rank B(tau, sigma-) + rank B(tau-, sigma-) = 1, with tau- the row
    before tau and sigma- the column taken before sigma, and adding a
    column to one taken after it keeps every such rank.

    Clearing (Chen-Kerber, *Persistent homology computation with a twist*,
    2011): the cells tau paired in d_m are dropped as columns of d_{m+1}.
    The reduced column of their partner sigma is a*tau (a != 0) plus rows
    of larger index, and d_{m+1} kills it, so d_{m+1}(tau) is a
    combination of the columns of d_{m+1} at cells of larger index, all
    taken before tau.  Column tau would reduce to zero, and deleting it
    changes the rank of no block B: neither the pairs nor the ranks change.
    """
    tc = b._total
    cells = [
        [(p, q, k) for p, q in _antidiagonal(b, m) for k in range(b.dim(p, q))]
        for m in range(len(tc.space_dims))
    ]
    pairs = []
    cleared: set[int] = set()
    for m, d in enumerate(tc.differentials):
        live = [i for i in range(d.cols) if i not in cleared]
        pivots = exactla._eliminate(
            d.take_columns(live).transpose(), order=(lambda j: j, lambda i: -i)
        )
        cleared = {c for c, _, _ in pivots}
        pairs.extend((cells[m][live[r]], cells[m + 1][c]) for c, r, _ in pivots)
    return tuple(pairs)


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
    ``_pairing``, which clearing leaves unchanged.  The antidiagonal sums
    are checked against the total cohomology, ranked independently with
    the default pivot order, before returning.
    """
    dims = _page_dims(b, INFINITY)
    for m, total in enumerate(total_cohomology(b)):
        if sum(dims[pos] for pos in _antidiagonal(b, m)) != total:
            raise InvalidBicomplex(
                f"filtration pieces in total degree {m} do not sum to the total cohomology"
            )
    return SpectralPage(INFINITY, dims)


def degenerates_at_two(b: Bicomplex) -> bool:
    return page(b, 2).dims == page_infinity(b).dims
