"""Coordinate-hyperplane local models with multiplicities, checked degree by degree.

The model is affine n-space with components x_i = 0 for i in a chosen
index set, the i-th taken with multiplicity r_i.  Every ring in sight is a
monomial quotient and every map a monomial projection, so each graded
piece of the augmented restriction complex

    0 -> (whole configuration) -> sum over singletons -> sum over pairs -> ...

is a finite complex of explicit 0/+-1 matrices.  All maps preserve total
degree, which is why verifying a truncation degree by degree is sound.

A monomial x^a survives in the quotient by (x_{i_0}^{r_0}, ..., x_{i_p}^{r_p})
iff a_i < r_i for every index in the tuple, and it survives in the quotient
by the single product (prod x_i^{r_i}) iff a_i < r_i for at least one index.

The maps preserve the exponent a as well, so each graded piece is a direct
sum over monomials x^a (the fine Z^n-grading of monomial quotients).  Let
S(a) = {component i : a_i < r_i} be the survivor set of a.  By the rule
above, x^a spans one copy of the field in the whole configuration when S(a)
is nonempty and one in each tuple inside S(a), and nothing elsewhere; every
map between these copies is the identity, with the sign of the omitted
index (the augmentation with sign +1).  The summand at a is therefore the
augmented cochain complex of the full simplex on S(a), vertices in
component order, and its homology depends only on s = |S(a)|.  So the
homology in degree k is the sum over s of (number of degree-k monomials with
|S(a)| = s) times the homology of one block on s vertices: a model needs at
most one block per s, not a matrix over all strata in every degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

from . import simplicial
from .errors import InvalidInput
from .exactla import RationalMatrix
from .presheaf import CochainComplex

ALL = "all"
ANY = "any"


@dataclass(frozen=True)
class LocalModelSpec:
    ambient: int
    components: tuple[int, ...]  # 1-based coordinate indices, ascending
    multiplicities: tuple[int, ...]
    degree_bound: int

    def multiplicity_of(self, index: int) -> int:
        return self.multiplicities[self.components.index(index)]


def make_local_model(
    ambient: int,
    components: Sequence[int],
    multiplicities: Sequence[int],
    degree_bound: int | None = None,
) -> LocalModelSpec:
    components = tuple(components)
    multiplicities = tuple(multiplicities)
    if ambient < 1:
        raise InvalidInput("ambient dimension must be at least 1")
    if not components:
        raise InvalidInput("at least one component index is required")
    if any(a >= b for a, b in zip(components, components[1:])):
        raise InvalidInput("component indices must be strictly ascending")
    if components[0] < 1 or components[-1] > ambient:
        raise InvalidInput(f"component indices must lie in 1..{ambient}")
    if len(multiplicities) != len(components):
        raise InvalidInput("one multiplicity per component is required")
    if any(r < 1 for r in multiplicities):
        raise InvalidInput("multiplicities must be at least 1")
    if degree_bound is None:
        degree_bound = 2 * sum(multiplicities)
    if degree_bound < 0:
        raise InvalidInput("degree bound must be nonnegative")
    return LocalModelSpec(ambient, components, multiplicities, degree_bound)


def _monomials(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of n variables summing to ``total``, lexicographically ascending."""
    if n == 0:
        if total == 0:
            yield ()
        return
    a = [0] * n
    a[-1] = total
    while True:
        yield tuple(a)
        # successor: take the last nonzero a[j] with j >= 1, move one unit
        # of it to a[j - 1] and the rest to a[-1]
        j = next((j for j in range(n - 1, 0, -1) if a[j]), 0)
        if j == 0:
            return
        rest = a[j] - 1
        a[j] = 0
        a[j - 1] += 1
        a[-1] = rest


@dataclass(frozen=True)
class MonomialQuotientBasis:
    ambient: int
    degree: int
    mode: str  # ALL: survive every constraint; ANY: survive at least one
    constraints: tuple[tuple[int, int], ...]  # (1-based coordinate, multiplicity)
    exponents: tuple[tuple[int, ...], ...]

    def contains(self, exponent: Sequence[int]) -> bool:
        if len(exponent) != self.ambient or sum(exponent) != self.degree:
            return False
        checks = (exponent[i - 1] < r for i, r in self.constraints)
        return all(checks) if self.mode == ALL else any(checks)


def quotient_basis(
    spec: LocalModelSpec, stratum: Sequence[int] | None, degree: int
) -> MonomialQuotientBasis:
    """Monomial basis of one graded piece.

    ``stratum`` is an ascending tuple of component indices; ``None`` means
    the whole configuration (quotient by the product of the powers).
    """
    if degree > spec.degree_bound:
        raise InvalidInput(f"degree {degree} exceeds the bound {spec.degree_bound}")
    if stratum is None:
        mode = ANY
        constraints = tuple(zip(spec.components, spec.multiplicities))
    else:
        stratum = tuple(stratum)
        if any(i not in spec.components for i in stratum) or not stratum:
            raise InvalidInput(f"stratum {stratum} is not a tuple of component indices")
        if any(a >= b for a, b in zip(stratum, stratum[1:])):
            raise InvalidInput(f"stratum {stratum} is not strictly ascending")
        mode = ALL
        constraints = tuple((i, spec.multiplicity_of(i)) for i in stratum)
    probe = MonomialQuotientBasis(spec.ambient, degree, mode, constraints, ())
    exponents = tuple(a for a in _monomials(spec.ambient, degree) if probe.contains(a))
    return MonomialQuotientBasis(spec.ambient, degree, mode, constraints, exponents)


@dataclass(frozen=True)
class ExactnessVerdict:
    exact: bool
    degree_bound: int
    homology: tuple[tuple[int, ...], ...]  # homology[k][joint], joint 0 = augmentation

    def failures(self) -> list[tuple[int, int]]:
        return [
            (k, joint)
            for k, row in enumerate(self.homology)
            for joint, h in enumerate(row)
            if h != 0
        ]


def simplex_block(s: int) -> CochainComplex:
    """Augmented cochain complex of the full simplex on s vertices.

    Joint 0 is one copy of the field, joint p + 1 one copy per (p + 1)-face;
    the augmentation is all ones, the rest are the simplicial coboundaries.
    """
    simplex = simplicial.from_facets(s, [range(s)])
    augmentation = RationalMatrix.from_entries(s, 1, {(i, 0): 1 for i in range(s)})
    coboundaries = [simplicial.coboundary_matrix(simplex, p) for p in range(s - 1)]
    return CochainComplex((1, *simplex.counts()), (augmentation, *coboundaries))


def survivor_counts(spec: LocalModelSpec, degree: int) -> Counter[int]:
    """Number of degree-``degree`` monomials x^a with |S(a)| = s, keyed by s >= 1."""
    bounds = [(i - 1, r) for i, r in zip(spec.components, spec.multiplicities)]
    return Counter(
        sum(a[i] < r for i, r in bounds) for a in quotient_basis(spec, None, degree).exponents
    )


def verify_exactness(spec: LocalModelSpec) -> ExactnessVerdict:
    """Check that every graded piece of the augmented complex is exact.

    Exactness at the first joint is injectivity of the augmentation; at the
    last joint it is surjectivity onto the deepest intersection.  Each
    degree is summed from the simplex blocks of the module docstring; each
    block is built, checked (d o d = 0) and ranked once per call.
    """
    joints = len(spec.components) + 1
    block_homology: dict[int, list[int]] = {}
    table = []
    for degree in range(spec.degree_bound + 1):
        row = [0] * joints
        for s, count in survivor_counts(spec, degree).items():
            if s not in block_homology:
                block_homology[s] = simplex_block(s).cohomology()
            for joint, h in enumerate(block_homology[s]):
                row[joint] += count * h
        table.append(tuple(row))
    exact = not any(any(row) for row in table)
    return ExactnessVerdict(exact, spec.degree_bound, tuple(table))


def sweep_specs(
    max_ambient: int = 4,
    multiplicity_values: Sequence[int] = (1, 2, 3),
    degree_bound: int = 8,
) -> Iterator[LocalModelSpec]:
    """All models with ambient dimension, component subset, and multiplicities bounded."""
    for ambient in range(1, max_ambient + 1):
        for size in range(1, ambient + 1):
            for components in combinations(range(1, ambient + 1), size):
                for mults in product(multiplicity_values, repeat=size):
                    yield make_local_model(ambient, components, mults, degree_bound)
