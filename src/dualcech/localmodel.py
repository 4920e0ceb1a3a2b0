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
most one block per s, not a matrix over all strata in every degree.  No
block is built as a matrix either: its homology is the reduced cohomology
of the simplex, read off ``simplicial.betti_numbers`` (``verify_exactness``
gives the identity).

The counts come from a generating function, not from listing monomials.
Give x^a the weight u^|S(a)| t^|a|.  Both exponents are sums over
coordinates (|S(a)| counts the components with a_i < r_i, |a| adds up
every a_i), so the weight is a product of one weight per coordinate, and
summing it over all a factors into one series per coordinate:

    component of multiplicity r:  sum_{a >= 0} u^[a < r] t^a
                                    = u (1 + t + ... + t^{r-1}) + t^r / (1 - t)
    free coordinate:              sum_{a >= 0} t^a = 1 / (1 - t)

The coefficient of u^s t^k in the product is the number of degree-k
monomials with |S(a)| = s.  Those with s = 0 are divisible by the product
of the powers and vanish in every quotient; s >= 1 is exactly the basis of
the whole configuration.  ``_survivor_table`` multiplies the component
factors in one at a time, truncated above t^K (the term t^j of a factor
sends the coefficient at t^i to t^(i+j), with one more u when j < r, so each
step is a prefix sum), and then convolves with the n - m free coordinates,
whose degree-j coefficient C(j + n - m - 1, j) counts the monomials of
degree j in n - m variables.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

from . import simplicial
from .errors import InvalidInput


class LocalModelSpec(NamedTuple):
    ambient: int
    components: tuple[int, ...]  # 1-based coordinate indices, ascending
    multiplicities: tuple[int, ...]
    degree_bound: int


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


class ExactnessVerdict(NamedTuple):
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


def _survivor_table(spec: LocalModelSpec) -> list[Counter[int]]:
    """For each degree k <= K, the number of degree-k monomials with |S(a)| = s >= 1,
    keyed by s: the coefficients of the module docstring's product."""
    top = spec.degree_bound
    poly = [[1] + [0] * top]  # poly[s][k], the coefficient of u^s t^k
    for r in spec.multiplicities:
        grown = [[0] * (top + 1) for _ in range(len(poly) + 1)]
        for s, row in enumerate(poly):
            prefix = [0, *accumulate(row)]
            for k in range(top + 1):
                low = max(k + 1 - r, 0)  # a = k - i >= r exactly for i < low
                grown[s][k] += prefix[low]
                grown[s + 1][k] += prefix[k + 1] - prefix[low]
        poly = grown
    free = spec.ambient - len(spec.components)
    series = [comb(j + free - 1, j) if free else int(j == 0) for j in range(top + 1)]
    table = []
    for k in range(top + 1):
        counts = (sum(row[i] * series[k - i] for i in range(k + 1)) for row in poly)
        table.append(Counter({s: count for s, count in enumerate(counts) if s and count}))
    return table


def verify_exactness(spec: LocalModelSpec) -> ExactnessVerdict:
    """Check that every graded piece of the augmented complex is exact.

    Exactness at the first joint is injectivity of the augmentation; at the
    last joint it is surjectivity onto the deepest intersection.  Each
    degree is summed from the simplex blocks of the module docstring, and
    the homology of each block is read once per call off the Betti numbers
    b = ``simplicial.betti_numbers`` of the full simplex on s >= 1
    vertices.  The block is that simplex's coboundary complex with the
    augmentation aug: k -> C^0 in front, the all-ones column.  It is
    nonzero, so its rank is 1, and delta^0 aug = 0, since each edge gets
    +1 and -1.  So the block's homology is 0 at joint 0, b_0 - 1 at joint
    1, the kernel of delta^0 less the image of aug, and b_{p-1} at every
    later joint p: (0, b_0 - 1, b_1, ..., b_{s-1}), the reduced cohomology
    of the simplex (Munkres, *Elements of Algebraic Topology*).
    """
    joints = len(spec.components) + 1
    block_homology: dict[int, list[int]] = {}
    table = []
    for counts in _survivor_table(spec):
        row = [0] * joints
        for s, count in counts.items():
            if s not in block_homology:
                b = simplicial.betti_numbers(simplicial.from_facets(s, [range(s)]))
                block_homology[s] = [0, b[0] - 1, *b[1:]]
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
