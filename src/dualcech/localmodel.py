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
block is built at all: its homology is the reduced cohomology of the full
simplex, which is contractible, so every block is exact and so is every
graded piece.  That is Lemma 3.1 for the model, and ``verify_exactness``
states the verdict from this proof and the counts, ranking nothing.

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
factors in one at a time, truncated above t^K, and then the series
(1 - t)^-(n - m) of the n - m free coordinates, whose degree-j coefficient
C(j + n - m - 1, j) counts the monomials of degree j in n - m variables.
The products run on packed integers (Kronecker substitution: Schoenhage,
1982): a series in t truncated at K becomes one int whose slot k, ``bits``
bits wide, holds the coefficient of t^k, and the coefficients of u^0 ..
u^m sit in rows of twice that many slots, so one big-int product
multiplies every row by a series in t.  Every coefficient is nonnegative,
so a product's slot k is the exact convolution sum as long as it fits its
slot, and a carry out of a slot only moves upward; slots past K, which a
mask drops, may overflow without touching the ones kept.  Every slot kept
counts monomials of degree at most K in at most n variables, so it fits
in ``bits = C(K + n - 1, n - 1).bit_length()`` (``_survivor_table`` has
the proof).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

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


def _survivor_table(spec: LocalModelSpec) -> list[list[int]]:
    """For each degree k <= K, the number of degree-k monomials with |S(a)| = s, at index s.

    These are the coefficients of the module docstring's product, packed as
    it says.  Row s of ``poly`` is bits [s * stride, s * stride + width),
    slot k of a row its bits [k * bits, (k + 1) * bits).  A component of
    multiplicity r has the factor u * low + high, with low = 1 + ... +
    t^(min(r, K + 1) - 1) and high = t^r + ... + t^K (zero when r > K) in
    every row's layout, so it sends
    row s to (row s) * high + (row s - 1) * low: one product by ``high``,
    and one by ``low`` shifted up a row.  The free coordinates multiply
    every row by ``series``.  Each product is masked to slots 0..K of rows
    0..m.

    Width.  A row and each factor are below 2^width, so a row's product is
    below 2^stride and never reaches the next row.  Within a row, slot k of
    a product is a sum of nonnegative terms, so with no carry into it the
    slots up to K are exact, and a carry can only come from a slot below
    that overflowed.  None does: after c factors, slot k of row s is the
    number of degree-k monomials in the first c coordinates, with k <= K,
    whose survivor set has s elements, and each partial product summed into
    it is at most that.  So it is at most the number of degree-k monomials
    in c <= n variables, C(k + c - 1, c - 1) <= C(K + n - 1, n - 1) < 2^bits;
    a coefficient C(j + n - m - 1, j) of ``series`` obeys the same bound.
    """
    top = spec.degree_bound
    bits = comb(top + spec.ambient - 1, spec.ambient - 1).bit_length()
    width = bits * (top + 1)
    stride = 2 * width
    row_mask = (1 << width) - 1
    ones = row_mask // ((1 << bits) - 1)  # 1 in every slot 0..K
    poly, mask = 1, row_mask
    for r in spec.multiplicities:
        low = ones & ((1 << bits * min(r, top + 1)) - 1)  # r > K: every slot
        mask |= mask << stride
        poly = (poly * (ones ^ low) & mask) + ((poly * low & mask) << stride)
    free = spec.ambient - len(spec.components)
    if free:
        series = sum(comb(j + free - 1, j) << bits * j for j in range(top + 1))
        poly = poly * series & mask
    slot = (1 << bits) - 1
    rows = [poly >> stride * s & row_mask for s in range(len(spec.components) + 1)]
    return [[row >> bits * k & slot for row in rows] for k in range(top + 1)]


def verify_exactness(spec: LocalModelSpec) -> ExactnessVerdict:
    """The graded pieces of the augmented complex in degrees 0..K, all exact by proof.

    Exactness at the first joint is injectivity of the augmentation; at the
    last joint it is surjectivity onto the deepest intersection.  Each
    degree is a sum over s >= 1 of (its count in ``_survivor_table``)
    copies of the simplex block of the module docstring: the coboundary
    complex of the full simplex on s vertices, with Betti numbers b, and
    the augmentation aug: k -> C^0 in front, the all-ones column.  It is
    nonzero, so its rank is 1, and delta^0 aug = 0, since each edge gets
    +1 and -1.  So the block's homology is 0 at joint 0, b_0 - 1 at joint
    1, the kernel of delta^0 less the image of aug, and b_{p-1} at every
    later joint p: (0, b_0 - 1, b_1, ..., b_{s-1}), the reduced cohomology
    of the simplex (Munkres, *Elements of Algebraic Topology*).  A simplex
    is a cone, so b = (1, 0, ..., 0) and every block is exact.  The verdict
    therefore holds one zero row of m + 1 joints per degree of the table,
    whatever the counts; the tests rank the blocks and the whole Cech
    complex against it.
    """
    zeros = (0,) * (len(spec.components) + 1)
    return ExactnessVerdict(True, spec.degree_bound, (zeros,) * len(_survivor_table(spec)))


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
