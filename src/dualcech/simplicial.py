"""Finite abstract simplicial complexes, cochain complexes and their cohomology.

A simplex is a strictly ascending tuple of 0-based vertex indices.  This
module owns the order of the cells and their faces, and every matrix
builder of the package reads it from here: ``SimplicialComplex`` lists
its levels once, the p-simplices in lexicographic order, which index the
cochains of degree p, and its ``face_pairs`` once, the codimension-1
inclusions in the order every presheaf builder visits them; ``_faces``
states the orientation.

``CochainComplex`` is the door to cohomology over the rationals for
matrices: its constructor checks the shapes, and ``cohomology`` ranks the
differentials in one cleared reduction (``exactla._cleared_pivots``).
That reduction is sound only when d.d = 0, which the constructor does not
check.  ``square_defects`` finds every entry where it fails, one product
per degree: the two builders that take caller data call it on the
complex they assembled, and the rest hold the identity by construction
(the class docstring lists them).  Cech complexes of presheaves and
total complexes of bicomplexes go through the class.  A simplicial
complex does not: ``_packed_cells`` is the one way the library writes
its coboundaries.  Each simplex is packed into one int, and the
coboundaries are written from those keys straight into integer rows,
with no matrix; d.d = 0 holds there by the alternating-sign identity.  ``betti_numbers`` feeds
the rows to the same reduction, and ``integral_cohomology`` takes their
Smith normal forms.  ``coboundary_matrix`` stays the matrix form of the
same coboundaries, with no library caller, for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from operator import lshift
from typing import Callable, Iterable, Sequence

from . import exactla
from .errors import BadTuple, ShapeMismatch
from .exactla import RationalMatrix

Simplex = tuple[int, ...]


def check_vertex_tuple(t: Sequence[int], vertex_count: int) -> Simplex:
    t = tuple(t)
    if not t:
        raise BadTuple("empty vertex tuple")
    if any(not isinstance(v, int) for v in t):
        raise BadTuple(f"non-integer vertex in {t}")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise BadTuple(f"vertex tuple {t} is not strictly ascending")
    if t[0] < 0 or t[-1] >= vertex_count:
        raise BadTuple(f"vertex tuple {t} out of range for {vertex_count} vertices")
    return t


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    simplices: frozenset[Simplex]

    # derived once per complex and read by every builder
    @cached_property
    def _levels(self) -> tuple[tuple[Simplex, ...], ...]:
        """Level p holds the p-simplices in lexicographic order."""
        levels: list[list[Simplex]] = [[] for _ in range(max(map(len, self.simplices), default=0))]
        for s in sorted(self.simplices):
            levels[len(s) - 1].append(s)
        return tuple(map(tuple, levels))

    @cached_property
    def face_pairs(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """Every codimension-1 inclusion (sigma, tau).

        The taus come in lexicographic order, and the faces of each in
        position order.
        """
        return tuple((sigma, tau) for tau in sorted(self.simplices) for sigma, _ in _faces(tau))

    @property
    def dim(self) -> int:
        return len(self._levels) - 1

    def p_simplices(self, p: int) -> list[Simplex]:
        return list(self._levels[p]) if 0 <= p < len(self._levels) else []

    def counts(self) -> list[int]:
        return [len(level) for level in self._levels]


def _faces(tau: Simplex) -> list[tuple[Simplex, int]]:
    """The codimension-1 faces of ``tau`` with their signs, in position order.

    Face k omits vertex k and carries the sign (-1)^k: this is the
    orientation of every coboundary and every Cech differential in the
    package.  A vertex has no faces here, since the empty simplex is not a
    cell.
    """
    if len(tau) < 2:
        return []
    return [(tau[:k] + tau[k + 1 :], -1 if k % 2 else 1) for k in range(len(tau))]


@dataclass(frozen=True)
class CochainComplex:
    """Spaces C^0..C^top with differentials C^p -> C^{p+1} squaring to zero.

    The constructor checks shapes only: d_{m+1} d_m = 0 is known by the
    caller.  The library builds cochain complexes at these doors alone.
    Two check the identity with ``square_defects`` on the differential
    they assembled, once, where the data enters:

    - ``presheaf.make_presheaf`` checks its Cech complex, whose d.d = 0 is
      functoriality (``presheaf.check_functoriality``); ``cech_complex``
      of the presheaf it returns is not checked again;
    - ``bicomplex.make_bicomplex`` checks the total differential
      D = H + V of a bicomplex in every total degree m (the blocks of
      D_{m+1} D_m are H^2, V^2 and HV + VH).

    The rest square to zero by construction: ``cech_complex`` of constant
    and zero presheaves, of ``direct_sum`` and of the ``split_constant``
    quotient (functorial by construction, see their docstrings).

    A simplicial complex's coboundaries square to zero by the
    alternating-sign identity.  ``betti_numbers`` ranks them as packed
    rows, without building this class, and only tests build it from
    ``coboundary_matrix``.
    """

    space_dims: tuple[int, ...]
    differentials: tuple[RationalMatrix, ...]

    def __post_init__(self):
        n = len(self.space_dims)
        if len(self.differentials) != max(n - 1, 0):
            raise ShapeMismatch(
                f"{n} spaces need {max(n - 1, 0)} differentials, got {len(self.differentials)}"
            )
        for p, d in enumerate(self.differentials):
            if d.cols != self.space_dims[p] or d.rows != self.space_dims[p + 1]:
                raise ShapeMismatch(
                    f"differential {p} is {d.rows}x{d.cols}, expected "
                    f"{self.space_dims[p + 1]}x{self.space_dims[p]}"
                )

    def square_defects(self) -> list[tuple[int, int, int]]:
        """(m, i, j) for every nonzero entry (i, j) of d_{m+1} d_m, one product per degree."""
        return [
            (m, i, j)
            for m, (d, after) in enumerate(zip(self.differentials, self.differentials[1:]))
            for i, j, _ in (after @ d).nonzero_entries()
        ]

    def cohomology(self) -> list[int]:
        # ranks[p] is the rank of the differential into C^p, ranks[p + 1] of the one out of it
        by_degree = exactla._cleared_pivots(partial(exactla._by_column, d) for d in self.differentials)
        ranks = [0, *map(len, by_degree), 0]
        return [dim - ranks[p] - ranks[p + 1] for p, dim in enumerate(self.space_dims)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.space_dims))


def from_facets(vertex_count: int, facets: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Smallest complex containing the given facets (face closure)."""
    simplices: set[Simplex] = set()
    for facet in facets:
        facet = check_vertex_tuple(facet, vertex_count)
        for k in range(1, len(facet) + 1):
            simplices.update(combinations(facet, k))
    return SimplicialComplex(vertex_count, frozenset(simplices))


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in k.simplices)


def coboundary_matrix(k: SimplicialComplex, p: int) -> RationalMatrix:
    """Signed incidence matrix from p-simplices to (p+1)-simplices.

    Its entries are the signs of ``_faces``, nonzero integers at the
    positions of two simplices of the levels, one row per (p+1)-simplex
    with faces (each of them for p >= 0), so no row is empty; the rows
    are wrapped as they are, without the constructor's checks.
    """
    lower = k.p_simplices(p)
    upper = k.p_simplices(p + 1)
    index = {s: i for i, s in enumerate(lower)}
    num = {ri: row for ri, tau in enumerate(upper) if (row := {index[face]: sign for face, sign in _faces(tau)})}
    return RationalMatrix._of(len(upper), len(lower), num)


def _packed_cells(
    k: SimplicialComplex,
) -> tuple[list[list[int]], Callable[[int, set[int]], dict[int, dict[int, int]]]]:
    """The levels of ``k`` as packed keys, and the builder of the rows of each transposed coboundary.

    Each simplex is one int, its key: its ascending vertices are the digits
    in base 2^w, the lowest vertex in the lowest digit, with w the bit
    length of ``vertex_count - 1`` (at least 1).  So a key takes
    (dim + 1) * w bits, whatever the vertex indices.  Face k of a key drops
    digit k and carries the sign (-1)^k, the orientation of ``_faces``.
    Level p is the keys of the p-simplices in ascending order, which is not
    the lexicographic order of the tuples, and need not be.
    ``coboundary(p, cleared)`` returns the rows of the transpose of
    delta^p, one per p-simplex not in ``cleared`` (a row may be empty),
    each its entries by (p+1)-simplex, all indexed by the keys: the rows
    ``exactla._eliminate`` and ``exactla._smith_factors`` take.  The keys
    only rename the rows and columns of ``coboundary_matrix``, and these
    coboundaries square to zero by the alternating-sign identity.
    """
    top = max(map(len, k.simplices), default=0)
    w = max(k.vertex_count - 1, 1).bit_length()
    shifts = range(0, w * (top + 1), w)
    levels: list[list[int]] = [[] for _ in range(top)]
    for s in k.simplices:
        levels[len(s) - 1].append(sum(map(lshift, s, shifts)))
    for level in levels:
        level.sort()

    def coboundary(p: int, cleared: set[int]) -> dict[int, dict[int, int]]:
        rows = {sigma: {} for sigma in levels[p] if sigma not in cleared}
        row_of = rows.get
        for j in range(p + 2):
            # face j of tau: the digits below j as they are, those above j one digit down
            low, high, at, sign = (1 << shifts[j]) - 1, shifts[j + 1], shifts[j], -1 if j % 2 else 1
            for tau in levels[p + 1]:
                row = row_of(tau & low | tau >> high << at)
                if row is not None:
                    row[tau] = sign
        return rows

    return levels, coboundary


def betti_numbers(k: SimplicialComplex) -> list[int]:
    """Dimensions of cohomology with rational coefficients, degrees 0..dim.

    Ranked straight from packed cells, ``_packed_cells``, with no
    coboundary matrix: the rows of each transposed coboundary, without
    the rows cleared in the degree before, go straight to
    ``exactla._cleared_pivots``.  ``exactla._eliminate`` walks the
    p-simplices in the reverse of the key order and reduces each at its
    smallest (p+1)-simplex.  The clearing loop counts the ranks under any
    order once d.d = 0, which holds by the alternating-sign identity; so
    these are the Betti numbers of the coboundary complex.
    """
    levels, coboundary = _packed_cells(k)
    by_degree = exactla._cleared_pivots(partial(coboundary, p) for p in range(len(levels) - 1))
    ranks = [0, *map(len, by_degree), 0]
    return [len(level) - ranks[p] - ranks[p + 1] for p, level in enumerate(levels)]


def integral_cohomology(k: SimplicialComplex) -> list[tuple[int, list[int]]]:
    """Per-degree (free rank, torsion invariant factors) with integer coefficients.

    Computed from the Smith normal forms of the packed coboundaries of
    ``_packed_cells``, each built whole, with no cleared rows: clearing is
    sound over the rationals, but over the integers it would also need the
    cleared pivots unimodular.  The builder writes the transpose of
    delta^p, and SNF(A^T) has the invariant factors of SNF(A): UAV = D
    with U and V unimodular gives V^T A^T U^T = D^T, the same diagonal.
    The free rank in degree p is dim ker(delta^p) - rank(delta^{p-1}), and
    the torsion is carried by the invariant factors of delta^{p-1} that
    exceed 1.
    """
    levels, coboundary = _packed_cells(k)
    # factors[p] belongs to the differential into degree p, factors[p + 1] to the one out of it
    factors = [[], *(exactla._smith_factors(coboundary(p, set())) for p in range(len(levels) - 1)), []]
    return [
        (len(level) - len(factors[p]) - len(factors[p + 1]), [f for f in factors[p] if f != 1])
        for p, level in enumerate(levels)
    ]
