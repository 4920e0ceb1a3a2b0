"""Finite abstract simplicial complexes, cochain complexes and their cohomology.

A simplex is a strictly ascending tuple of 0-based vertex indices.  This
module owns the order of the cells and their faces, and every builder of
the package reads it from here: ``SimplicialComplex`` lists its levels
once, the p-simplices in lexicographic order, which index the cochains of
degree p, and its ``face_pairs`` once, the codimension-1 inclusions in the
order every presheaf builder visits them; ``_faces`` states the
orientation.

``CochainComplex`` is the one door to cohomology over the rationals: its
constructor checks the shapes, and ``cohomology`` ranks the differentials
in one cleared reduction (``exactla._cleared_pivots``).  That reduction is
sound only when d.d = 0, which the constructor does not check: every
builder knows it, either because it checked the identity where the data
entered or because it holds by construction (the class docstring lists
them).  Betti numbers are the cohomology of the coboundary complex, and
Cech complexes of presheaves and total complexes of bicomplexes go through
the same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

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
    caller.  The library builds cochain complexes at these doors alone:

    - ``presheaf.cech_complex`` of a presheaf from ``make_presheaf``, which
      checks functoriality, the identity that makes the Cech differential
      square to zero;
    - ``bicomplex.make_bicomplex``, which assembles the total differential
      D = H + V of a bicomplex and checks D_{m+1} D_m = 0 on it in every
      total degree m (its blocks are H^2, V^2 and HV + VH);
    - builders that square to zero by construction: ``cech_complex`` of
      constant and zero presheaves, of ``direct_sum`` and of the
      ``split_constant`` quotient (functorial by construction, see their
      docstrings); ``coboundary_matrix``, by the alternating-sign
      identity; ``localmodel.simplex_block``, whose all-ones augmentation
      followed by delta^0 is 0 (each edge gets +1 and -1).
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

    def cohomology(self) -> list[int]:
        # ranks[p] is the rank of the differential into C^p, ranks[p + 1] of the one out of it
        ranks = [0, *(len(pivots) for pivots in exactla._cleared_pivots(self.differentials)), 0]
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
    positions of two simplices of the levels, so they are wrapped as they
    are, without the constructor's checks.
    """
    lower = k.p_simplices(p)
    upper = k.p_simplices(p + 1)
    index = {s: i for i, s in enumerate(lower)}
    entries = {(ri, index[face]): sign for ri, tau in enumerate(upper) for face, sign in _faces(tau)}
    return RationalMatrix._of(len(upper), len(lower), entries)


def betti_numbers(k: SimplicialComplex) -> list[int]:
    """Dimensions of cohomology with rational coefficients, degrees 0..dim."""
    coboundaries = tuple(coboundary_matrix(k, p) for p in range(k.dim))
    return CochainComplex(tuple(k.counts()), coboundaries).cohomology()


def integral_cohomology(k: SimplicialComplex) -> list[tuple[int, list[int]]]:
    """Per-degree (free rank, torsion invariant factors) with integer coefficients.

    Computed from Smith normal forms of the same coboundary matrices used
    for the rational Betti numbers: the free rank in degree p is
    dim ker(delta^p) - rank(delta^{p-1}) and the torsion is carried by the
    invariant factors of delta^{p-1} that exceed 1.
    """
    d = k.dim
    if d < 0:
        return []
    counts = k.counts()
    snfs = [exactla.smith_normal_form(coboundary_matrix(k, p)) for p in range(d)]
    out = []
    for p in range(d + 1):
        rank_out = len(snfs[p]) if p < d else 0
        rank_in = len(snfs[p - 1]) if p > 0 else 0
        free = counts[p] - rank_out - rank_in
        torsion = [f for f in (snfs[p - 1] if p > 0 else []) if f != 1]
        out.append((free, torsion))
    return out
