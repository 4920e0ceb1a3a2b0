"""Shared test utilities: independent oracles and random generators.

The oracles deliberately avoid the library's own elimination code.  Ranks
and determinants come from dense fraction-free Bareiss elimination over
the integers, the pivots of the sparse elimination from the column walk
with a holder index that it replaced (on the row helpers the Smith normal
form still uses), Betti numbers from chain boundary matrices (the
homology route, not the cochain route the library uses), monomial counts
from inclusion-exclusion, monomial quotient bases and survivor-set counts
from listing every monomial, local-model homology from the full Cech
matrix over every stratum at once, presheaf functoriality, the d.d = 0
of ``OracleCochainComplex`` and the bicomplex laws block by block from
triple-loop products, inverses
from dense Gauss-Jordan elimination, invariant factors from the dense
euclidean Smith normal form without unit peeling (integral cohomology
from that form of each ``coboundary_matrix``), the completeness test
of a fan from scans of every facet against every full cone, toric
boundaries as divisors whose tables write out every vanishing row, and
``cli.main``'s table path from argparse's full two-level parse.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterator, Sequence
from unittest import mock

from dualcech import cli, exactla, presheaf, simplicial, snc, toric
from dualcech.bicomplex import _antidiagonal as antidiagonal
from dualcech.bicomplex import INFINITY, Bicomplex, SpectralPage, make_bicomplex
from dualcech.errors import (
    InputError,
    InvalidBicomplex,
    InvalidInput,
    NecessaryConditionFailed,
    NotSmooth,
    SchemaError,
    ShapeMismatch,
)
from dualcech.formats import _list
from dualcech.exactla import RationalMatrix
from dualcech.localmodel import LocalModelSpec
from dualcech.presheaf import CochainComplex, Presheaf
from dualcech.simplicial import Simplex, SimplicialComplex
from dualcech.snc import DERHAM, SHEAF, Component, SncDivisor, TableEntry

DATA = os.path.join(os.path.dirname(__file__), "data")


class CompositionNonzero(InputError):
    """Two consecutive differentials that an oracle multiplied out do not compose to zero."""


# ---------------------------------------------------------------- oracles


def oracle_rank(rows: list[list]) -> int:
    """Rank of a rational matrix by fraction-free Bareiss elimination.

    Each row is first multiplied by the lcm of its denominators, which
    makes it integral and leaves the rank unchanged.
    """
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        pivot = next((i for i in range(row, nr) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (m[i][j] * m[row][col] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def oracle_det(rows: list[list]) -> Fraction:
    """Determinant of a square rational matrix, Bareiss again.

    Each row is first multiplied by the lcm of its denominators; the
    integer determinant is then divided by the product of those scales.
    """
    m = []
    scales = 1
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        scales *= scale
        m.append([int(x * scale) for x in row])
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return Fraction(sign * m[n - 1][n - 1], scales)


def oracle_eliminate(rows: dict[int, dict[int, int]]) -> list[tuple[int, int, dict[int, int]]]:
    """The pivots of ``exactla._eliminate`` by the column walk with a holder index, which it replaced.

    The columns are walked once, by index, and each live one is pivoted
    on its holder of largest row index; a per-column set of holder rows
    is kept in step with every row update.  ``rows`` is consumed.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        row = rows[i] = exactla._primitive(row)
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots: list[tuple[int, int, dict[int, int]]] = []
    for c in sorted(cols):
        if c not in cols:
            continue
        r = max(cols[c])
        pivot_row = exactla._take_pivot_row(rows, cols, r)
        p = pivot_row[c]
        for i in list(cols.get(c, ())):
            row = rows[i]
            a = row[c]
            g = gcd(a, p) if p > 0 else -gcd(a, p)
            s, t = p // g, a // g
            if s != 1:
                for j in row:
                    row[j] *= s
            exactla._subtract(row, i, t, pivot_row, cols)
            if row:
                rows[i] = exactla._primitive(row)
            else:
                del rows[i]
        pivots.append((c, r, pivot_row))
    return pivots


def oracle_matmul(a: list[list], b: list[list], cols: int) -> list[list[Fraction]]:
    """Dense product of rational matrices given as rows, by a triple loop.

    ``b`` has one row per column of ``a`` and ``cols`` columns; ``cols``
    is passed because ``b`` may have no rows to read it from.  The zero
    entries of each row of ``a`` are skipped, which leaves every sum the same.
    """
    out = []
    for row in a:
        terms = [(Fraction(x), b[k]) for k, x in enumerate(row) if x != 0]
        out.append([sum((x * Fraction(b_row[j]) for x, b_row in terms), Fraction(0)) for j in range(cols)])
    return out


def oracle_inverse(m: RationalMatrix) -> RationalMatrix:
    """m^-1 by dense Gauss-Jordan elimination of [m | I] over ``Fraction``s.

    Raises ``ShapeMismatch`` for a matrix that is not square or is singular.
    """
    if m.rows != m.cols:
        raise ShapeMismatch(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.to_rows())]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ShapeMismatch("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            factor = a[i][col]
            if i != col and factor != 0:
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return RationalMatrix.from_rows([row[n:] for row in a], cols=n)


def block_matrix(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: dict[tuple[int, int], RationalMatrix],
) -> RationalMatrix:
    """Assemble a matrix from blocks; absent blocks are zero.

    The oracle of the block writer, ``RationalMatrix._placed``: each
    block's entries, read through ``nonzero_entries``, are placed at its
    offsets and the whole goes through the checking constructor.  A block
    of the wrong shape raises ``ShapeMismatch``.
    """
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    entries = {}
    for (bi, bj), block in blocks.items():
        if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
            raise ShapeMismatch(
                f"block ({bi},{bj}) is {block.rows}x{block.cols}, "
                f"expected {row_dims[bi]}x{col_dims[bj]}"
            )
        for i, j, value in block.nonzero_entries():
            entries[(row_off[bi] + i, col_off[bj] + j)] = value
    return RationalMatrix(row_off[-1], col_off[-1], entries)


def negated(m: RationalMatrix) -> RationalMatrix:
    """-m, entry by entry through the constructor."""
    return RationalMatrix(m.rows, m.cols, {(i, j): -v for i, j, v in m.nonzero_entries()})


def hstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """[a | b], for two matrices with the same number of rows."""
    return block_matrix([a.rows], [a.cols, b.cols], {(0, 0): a, (0, 1): b})


def same_storage(a: RationalMatrix, b: RationalMatrix) -> bool:
    """``a`` and ``b`` hold the same shape, denominator and numerators by row, and neither holds an empty row."""
    rows_nonempty = all(a._num.values()) and all(b._num.values())
    return rows_nonempty and (a.rows, a.cols, a._den, a._num) == (b.rows, b.cols, b._den, b._num)


def oracle_restriction(v: Presheaf, sigma: Simplex, tau: Simplex) -> RationalMatrix:
    """The restriction sigma -> tau of ``v``; a face pair missing from ``v.restrictions`` is the zero map."""
    mat = v.restrictions.get((sigma, tau))
    return RationalMatrix.zeros(v.dim(tau), v.dim(sigma)) if mat is None else mat


@contextlib.contextmanager
def recorded_cech_work() -> Iterator[tuple[list[CochainComplex], list[CochainComplex]]]:
    """Every Cech complex ``presheaf.cech_complex`` assembles in the block, and every complex ranked.

    Yields two lists that fill as the block runs: the complexes assembled,
    and those whose ``CochainComplex.cohomology`` was called.
    """
    assembled: list[CochainComplex] = []
    ranked: list[CochainComplex] = []
    cech_complex, cohomology = presheaf.cech_complex, CochainComplex.cohomology

    def assemble(v):
        assembled.append(cech_complex(v))
        return assembled[-1]

    with mock.patch.object(presheaf, "cech_complex", assemble), mock.patch.object(
        CochainComplex, "cohomology", lambda c: ranked.append(c) or cohomology(c)
    ):
        yield assembled, ranked


def oracle_broken_pairs(v: Presheaf) -> list[tuple[Simplex, Simplex]]:
    """Every (sigma, rho) whose two restriction composites differ, in the order refusals name them.

    The walk takes each simplex rho with at least three vertices in
    lexicographic order, and each pair of its positions x < y in
    lexicographic order; sigma is rho without both vertices.  The
    composites from sigma to rho through rho minus one of them are dense
    ``oracle_matmul`` products of the restriction rows, a missing
    restriction read by ``oracle_restriction`` as the zero map.
    """
    broken = []
    for rho in sorted(v.base.simplices):
        if len(rho) < 3:
            continue
        for x, y in combinations(range(len(rho)), 2):
            sigma = tuple(w for k, w in enumerate(rho) if k not in (x, y))
            composites = []
            for skip in (x, y):
                tau = tuple(w for k, w in enumerate(rho) if k != skip)
                outer = oracle_restriction(v, tau, rho).to_rows()
                inner = oracle_restriction(v, sigma, tau).to_rows()
                composites.append(oracle_matmul(outer, inner, v.dim(sigma)))
            if composites[0] != composites[1]:
                broken.append((sigma, rho))
    return broken


def oracle_is_functorial(v: Presheaf) -> bool:
    """Whether every two-step restriction composite is path independent."""
    return not oracle_broken_pairs(v)


def oracle_minor_gcd(rows: list[list[int]], size: int) -> int:
    """gcd of all size x size minors (0 when there are none)."""
    import math

    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nr), size):
        for ci in combinations(range(nc), size):
            minor = oracle_det([[rows[i][j] for j in ci] for i in ri])
            g = math.gcd(g, abs(minor.numerator))  # integer rows: the minor is integral
    return g


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


def oracle_smith_normal_form(m: RationalMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of a matrix with integer entries.

    An entry with a denominator other than 1 raises ``TypeError``.
    Classical reduction over the integers: bring the smallest entry to the
    corner, clear its row and column with euclidean steps, and when the
    corner fails to divide some remaining entry fold that row in and start
    over.  The folding step is what guarantees the divisibility chain.
    This is the dense routine alone, with no unit pivots peeled first.
    """
    nr, nc = m.rows, m.cols
    a = [[0] * nc for _ in range(nr)]
    for i, j, value in m.nonzero_entries():
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


def oracle_betti(k: SimplicialComplex) -> list[int]:
    """Betti numbers through chain boundary matrices and Bareiss ranks."""
    d = k.dim
    if d < 0:
        return []
    levels = [k.p_simplices(p) for p in range(d + 1)]

    def boundary(p):  # rows: (p-1)-simplices, cols: p-simplices
        lower = {s: i for i, s in enumerate(levels[p - 1])}
        rows = [[0] * len(levels[p]) for _ in levels[p - 1]]
        for col, tau in enumerate(levels[p]):
            for pos in range(len(tau)):
                face = tau[:pos] + tau[pos + 1 :]
                rows[lower[face]][col] = -1 if pos % 2 else 1
        return rows

    ranks = [oracle_rank(boundary(p)) for p in range(1, d + 1)]
    out = []
    for p in range(d + 1):
        rank_in = ranks[p] if p < d else 0
        rank_out = ranks[p - 1] if p > 0 else 0
        out.append(len(levels[p]) - rank_in - rank_out)
    return out


def oracle_integral_cohomology(k: SimplicialComplex) -> list[tuple[int, list[int]]]:
    """Per-degree (free rank, torsion) from the dense Smith normal form of each ``coboundary_matrix``."""
    factors = [[], *(oracle_smith_normal_form(simplicial.coboundary_matrix(k, p)) for p in range(k.dim)), []]
    return [
        (count - len(factors[p]) - len(factors[p + 1]), [f for f in factors[p] if f != 1])
        for p, count in enumerate(k.counts())
    ]


def oracle_monomial_count(n: int, degree: int, constraints, mode: str) -> int:
    """Count degree-k monomials in n variables meeting upper-bound constraints.

    ``constraints`` is a list of (1-based variable index, bound); mode
    "all" requires every exponent below its bound, "any" at least one.
    Counted by inclusion-exclusion over the violated constraints.
    """

    def monomials(total):
        return comb(total + n - 1, n - 1) if total >= 0 else 0

    if mode == "any":
        shift = sum(bound for _, bound in constraints)
        return monomials(degree) - monomials(degree - shift)
    total = 0
    items = list(constraints)
    for size in range(len(items) + 1):
        for chosen in combinations(items, size):
            shift = sum(bound for _, bound in chosen)
            total += (-1) ** size * monomials(degree - shift)
    return total


ALL = "all"
ANY = "any"


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
    """Monomial basis of one graded piece, every monomial of the degree listed and tested.

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
        multiplicity = dict(zip(spec.components, spec.multiplicities))
        constraints = tuple((i, multiplicity[i]) for i in stratum)
    probe = MonomialQuotientBasis(spec.ambient, degree, mode, constraints, ())
    exponents = tuple(a for a in _monomials(spec.ambient, degree) if probe.contains(a))
    return MonomialQuotientBasis(spec.ambient, degree, mode, constraints, exponents)


def oracle_survivor_counts(spec: LocalModelSpec, degree: int) -> Counter[int]:
    """|S(a)| over the listed basis of the whole configuration, counted per value."""
    bounds = [(i - 1, r) for i, r in zip(spec.components, spec.multiplicities)]
    return Counter(
        sum(a[i] < r for i, r in bounds) for a in quotient_basis(spec, None, degree).exponents
    )


class OracleCochainComplex(CochainComplex):
    """A cochain complex whose d.d = 0 is checked and whose cohomology comes from Bareiss ranks.

    The library's ``CochainComplex`` checks shapes only and relies on its
    builders for d.d = 0; here every product of consecutive differentials
    is multiplied out by ``oracle_matmul``, not ``RationalMatrix.__matmul__``,
    and a nonzero one raises ``CompositionNonzero``.
    """

    def __post_init__(self):
        super().__post_init__()
        for p in range(len(self.differentials) - 1):
            inner, outer = self.differentials[p], self.differentials[p + 1]
            if any(any(row) for row in oracle_matmul(outer.to_rows(), inner.to_rows(), inner.cols)):
                raise CompositionNonzero(f"differentials {p} and {p + 1} do not compose to zero")

    def cohomology(self) -> list[int]:
        ranks = [oracle_rank(d.to_rows()) for d in self.differentials]
        n = len(self.space_dims)
        return [
            dim - (ranks[p] if p < n - 1 else 0) - (ranks[p - 1] if p > 0 else 0)
            for p, dim in enumerate(self.space_dims)
        ]


def oracle_checked(c: CochainComplex) -> OracleCochainComplex:
    """``c`` again as an ``OracleCochainComplex``, so its d.d is checked by ``oracle_matmul``."""
    return OracleCochainComplex(c.space_dims, c.differentials)


def oracle_layered_report(d: SncDivisor, r: int, flavor: str) -> snc.CohomologyReport:
    """The report of one (form degree, flavor) family, every layer ranked.

    Layers q = 0..top are built as the library builds them, and each one,
    identically zero or not, goes through ``cech_complex`` and then
    ``OracleCochainComplex``, which checks d.d by ``oracle_matmul`` and
    ranks by Bareiss.  The totals and summands follow the paper's sum over
    p + q = k, up to the last nonzero layer.
    """
    delta = snc.dual_complex(d)
    if delta.dim < 0:
        return snc.CohomologyReport((), ())
    bound = max(snc.stratum_dim_bound(d, t) for t in d.strata)
    top = 2 * bound if flavor == DERHAM else bound
    layers = []
    for q in range(top + 1):
        v = snc.layer(d, delta, r, q, flavor)
        h = oracle_checked(presheaf.cech_complex(v)).cohomology()
        label = f"derham q={q}" if flavor == DERHAM else f"sheaf r={r} q={q}"
        layers.append((q, v.is_zero(), h, label))
    q_eff = max((q for q, zero, _, _ in layers if not zero), default=0)
    summands = [
        snc.Summand(p, q, dim, label)
        for q, _, h, label in layers
        if q <= q_eff
        for p, dim in enumerate(h)
    ]
    totals = [0] * (delta.dim + q_eff + 1)
    for s in summands:
        totals[s.p + s.q] += s.dim
    return snc.CohomologyReport(tuple(totals), tuple(summands))


def oracle_sheaf_cech_complex(spec: LocalModelSpec, degree: int) -> OracleCochainComplex:
    """The augmented local-model complex in one degree, over all strata at once.

    Index 0 is the whole configuration.  Matrices send a basis monomial to
    its class in the target quotient, which is the monomial itself or zero,
    with the alternating sign of the omitted index; the augmentation
    carries no signs.  No multidegree splitting is used.
    """
    levels = [list(combinations(spec.components, p + 1)) for p in range(len(spec.components))]
    bases = {None: quotient_basis(spec, None, degree).exponents}
    for level in levels:
        for t in level:
            bases[t] = quotient_basis(spec, t, degree).exponents
    space_dims = [len(bases[None])] + [sum(len(bases[t]) for t in level) for level in levels]

    def positions(level):
        """Row or column of each (tuple, monomial) pair in the level's block vector."""
        out = {}
        for t in level:
            for a in bases[t]:
                out[(t, a)] = len(out)
        return out

    entries = {}
    target = positions(levels[0])
    for col, a in enumerate(bases[None]):
        for t in levels[0]:
            if (t, a) in target:
                entries[(target[(t, a)], col)] = 1
    differentials = [RationalMatrix(space_dims[1], space_dims[0], entries)]
    for p in range(len(levels) - 1):
        source, target = positions(levels[p]), positions(levels[p + 1])
        entries = {}
        for tau in levels[p + 1]:
            for pos in range(len(tau)):
                sigma = tau[:pos] + tau[pos + 1 :]
                for a in bases[sigma]:
                    if (tau, a) in target:
                        entries[(target[(tau, a)], source[(sigma, a)])] = -1 if pos % 2 else 1
        differentials.append(
            RationalMatrix(space_dims[p + 2], space_dims[p + 1], entries)
        )
    return OracleCochainComplex(tuple(space_dims), tuple(differentials))


# ------------------------------------------------- spectral page oracles
#
# The page computations the library used before the filtered pairing:
# E1 and E2 from kernel bases of the vertical maps, Einf from the nested
# images of the column filtration.  They use the library's rank and
# kernel_basis under the default pivot order, never the filtered order or
# the pairing they check.


def oracle_homology_dim(d_in: RationalMatrix, d_out: RationalMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for two composable maps with d_out . d_in = 0."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"joint dimension mismatch: d_in lands in dim {d_in.rows}, d_out leaves dim {d_out.cols}"
        )
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out . d_in is not the zero map")
    return (d_in.rows - exactla.rank(d_out)) - exactla.rank(d_in)


def bicomplex_map(b: Bicomplex, kind: str, p: int, q: int) -> RationalMatrix:
    """``b``'s horizontal or vertical map leaving (p, q); a map that was not given is zero.

    Read back from the block of the total differential between the two
    cells, each degree's cells laid out by p ascending.  The tests that
    compare ``make_bicomplex`` with ``oracle_total_differentials`` pin those
    blocks to the maps that were given.
    """
    target = (p + 1, q) if kind == "horizontal" else (p, q + 1)
    rows, cols = b.dim(*target), b.dim(p, q)
    if not rows or not cols:
        return RationalMatrix.zeros(rows, cols)
    m = p + q
    col0 = sum(b.dim(*cell) for cell in antidiagonal(b.width, b.height, m) if cell[0] < p)
    row0 = sum(b.dim(*cell) for cell in antidiagonal(b.width, b.height, m + 1) if cell[0] < target[0])
    block = {
        (i - row0, j - col0): v
        for i, j, v in b.total.differentials[m].nonzero_entries()
        if row0 <= i < row0 + rows and col0 <= j < col0 + cols
    }
    return RationalMatrix(rows, cols, block)


def given_maps(b: Bicomplex, kind: str) -> dict[tuple[int, int], RationalMatrix]:
    """``b``'s nonzero horizontal or vertical maps by source cell, read back with ``bicomplex_map``."""
    maps = {cell: bicomplex_map(b, kind, *cell) for cell in sorted(b.dims)}
    return {cell: m for cell, m in maps.items() if not m.is_zero()}


def _vertical_in(b: Bicomplex, p: int, q: int) -> RationalMatrix:
    if q > 0:
        return bicomplex_map(b, "vertical", p, q - 1)
    return RationalMatrix.zeros(b.dim(p, 0), 0)


def oracle_page(b: Bicomplex, r: int) -> SpectralPage:
    """Page E0 (raw dims), E1 (vertical cohomology) or E2 (horizontal cohomology of E1)."""
    if r not in (0, 1, 2):
        raise InvalidBicomplex(f"only pages 0, 1, 2 and infinity are computed, not {r}")
    grid = [(p, q) for p in range(b.width + 1) for q in range(b.height + 1)]
    if r == 0:
        return SpectralPage(0, {pos: b.dim(*pos) for pos in grid})
    if r == 1:
        dims = {}
        for p, q in grid:
            dims[(p, q)] = oracle_homology_dim(_vertical_in(b, p, q), bicomplex_map(b, "vertical", p, q))
        return SpectralPage(1, dims)
    # E2: the differential induced by the horizontal maps on vertical
    # cohomology, evaluated on kernel bases of the vertical maps.  The rank
    # of the induced map Z_p/B_p -> Z_{p+1}/B_{p+1} is
    # rank([delta K_p | V_{p+1}]) - rank(V_{p+1}).
    kernels = {(p, q): exactla.kernel_basis(bicomplex_map(b, "vertical", p, q)) for p, q in grid}
    e1 = {
        (p, q): kernels[(p, q)].cols - exactla.rank(_vertical_in(b, p, q))
        for p, q in grid
    }
    induced_rank = {}
    for p, q in grid:
        if p == b.width:
            induced_rank[(p, q)] = 0
            continue
        image = bicomplex_map(b, "horizontal", p, q) @ kernels[(p, q)]
        below = _vertical_in(b, p + 1, q)
        induced_rank[(p, q)] = exactla.rank(hstack(image, below)) - exactla.rank(below)
    dims = {}
    for p, q in grid:
        incoming = induced_rank[(p - 1, q)] if p > 0 else 0
        dims[(p, q)] = e1[(p, q)] - induced_rank[(p, q)] - incoming
    return SpectralPage(2, dims)


def oracle_page_infinity(b: Bicomplex) -> SpectralPage:
    """Graded pieces of the column filtration on total cohomology.

    For each total degree m the filtration by p' >= p gives nested images
    inside H^m(total); the (p, m - p) entry is the drop between steps p and
    p + 1.  The antidiagonal sums are checked against an independently
    computed total cohomology before returning.
    """
    tc = b.total
    totals = tc.cohomology()
    top = b.width + b.height
    dims = {(p, q): 0 for p in range(b.width + 1) for q in range(b.height + 1)}
    for m in range(top + 1):
        positions = antidiagonal(b.width, b.height, m)
        offsets = []
        start = 0
        for pos in positions:
            offsets.append((pos, start, start + b.dim(*pos)))
            start += b.dim(*pos)
        dim_m = start
        d_prev = tc.differentials[m - 1] if m > 0 else RationalMatrix.zeros(dim_m, 0)
        d_out = tc.differentials[m] if m < top else RationalMatrix.zeros(0, dim_m)
        rank_prev = exactla.rank(d_prev)
        graded = []
        for cut in range(b.width + 2):
            cols = [
                c
                for (pos, lo, hi) in offsets
                if pos[0] >= cut
                for c in range(lo, hi)
            ]
            if not cols:
                graded.append(0)
                continue
            restricted = [[row[c] for c in cols] for row in d_out.to_rows()]
            sub_kernel = exactla.kernel_basis(RationalMatrix.from_rows(restricted, cols=len(cols)))
            embedded = RationalMatrix(
                dim_m,
                sub_kernel.cols,
                {(cols[i], j): v for i, j, v in sub_kernel.nonzero_entries()},
            )
            graded.append(exactla.rank(hstack(embedded, d_prev)) - rank_prev)
        for p, q in positions:
            dims[(p, q)] = graded[p] - graded[p + 1]
        if sum(graded[p] - graded[p + 1] for p, _ in positions) != totals[m]:
            raise InvalidBicomplex(
                f"filtration pieces in total degree {m} do not sum to the total cohomology"
            )
    return SpectralPage(INFINITY, dims)


def oracle_total_differentials(dims, horizontal, vertical) -> tuple[list[RationalMatrix], bool]:
    """The total differentials D_m as ``make_bicomplex`` assembled them with ``block_matrix``, and whether D.D = 0.

    The path ``make_bicomplex`` took before it wrote numerators at block
    offsets: the maps, built by the constructor, go through ``block_matrix``
    degree by degree, and D_{m+1} D_m goes through ``@``.  The cells must
    lie in the first quadrant and the given maps must have the right shapes.
    """
    width = max(p for p, _ in dims)
    height = max(q for _, q in dims)
    full_dims = {(p, q): dims.get((p, q), 0) for p in range(width + 1) for q in range(height + 1)}
    diagonals = [antidiagonal(width, height, m) for m in range(width + height + 1)]
    differentials = []
    for source, target in zip(diagonals, diagonals[1:]):
        row = {cell: i for i, cell in enumerate(target)}
        blocks = {}
        for j, (p, q) in enumerate(source):
            for maps, cell in ((horizontal or {}, (p + 1, q)), (vertical or {}, (p, q + 1))):
                if (p, q) in maps and cell in row:
                    blocks[(row[cell], j)] = maps[(p, q)]
        differentials.append(
            block_matrix([full_dims[c] for c in target], [full_dims[c] for c in source], blocks)
        )
    squares_zero = all((after @ d).is_zero() for d, after in zip(differentials, differentials[1:]))
    return differentials, squares_zero


def oracle_cech_complex(v: Presheaf) -> CochainComplex:
    """``presheaf.cech_complex`` as it was before it wrote numerators at block offsets.

    Each restriction, negated on the faces of sign -1, is a block of
    ``block_matrix``, a missing one read by ``oracle_restriction`` as the
    zero map; a restriction of the wrong shape raises its ``ShapeMismatch``.
    """
    base = v.base
    if base.dim < 0:
        return CochainComplex((), ())
    levels = [base.p_simplices(p) for p in range(base.dim + 1)]
    level_dims = [[v.dim(s) for s in level] for level in levels]
    differentials = []
    for p in range(base.dim):
        index = {s: i for i, s in enumerate(levels[p])}
        blocks = {}
        for ti, tau in enumerate(levels[p + 1]):
            for sigma, sign in simplicial._faces(tau):
                mat = oracle_restriction(v, sigma, tau)
                blocks[(ti, index[sigma])] = mat if sign > 0 else negated(mat)
        differentials.append(block_matrix(level_dims[p + 1], level_dims[p], blocks))
    return CochainComplex(tuple(sum(d) for d in level_dims), tuple(differentials))


def oracle_bicomplex_law(dims, horizontal, vertical) -> str | None:
    """The message ``make_bicomplex`` raises for the first broken law, or None.

    The block laws one block at a time, as ``make_bicomplex`` checked them
    before it assembled the total differential: H.H = 0 by q then p, V.V = 0
    by p then q, then VH + HV = 0 by p then q.  A missing map or cell is
    zero; the products are ``oracle_matmul``'s.  The cells must lie in the
    first quadrant and the given maps must have the right shapes.
    """
    width = max(p for p, _ in dims)
    height = max(q for _, q in dims)

    def dim(cell):
        return dims.get(cell, 0)

    def block(maps, p, q, target):
        if (p, q) in maps:
            return maps[(p, q)].to_rows()
        return [[0] * dim((p, q)) for _ in range(dim(target))]

    def h(p, q):
        return block(horizontal, p, q, (p + 1, q))

    def v(p, q):
        return block(vertical, p, q, (p, q + 1))

    def is_zero(rows):
        return not any(any(row) for row in rows)

    for q in range(height + 1):
        for p in range(width - 1):
            if not is_zero(oracle_matmul(h(p + 1, q), h(p, q), dim((p, q)))):
                return f"horizontal differential does not square to zero at ({p},{q})"
    for p in range(width + 1):
        for q in range(height - 1):
            if not is_zero(oracle_matmul(v(p, q + 1), v(p, q), dim((p, q)))):
                return f"vertical differential does not square to zero at ({p},{q})"
    for p in range(width):
        for q in range(height):
            vh = oracle_matmul(v(p + 1, q), h(p, q), dim((p, q)))
            hv = oracle_matmul(h(p, q + 1), v(p, q), dim((p, q)))
            if not is_zero([[x + y for x, y in zip(a, b)] for a, b in zip(vh, hv)]):
                return f"differentials do not anticommute at ({p},{q})"
    return None


def oracle_rational(value, path) -> Fraction:
    """``formats._rational`` as it was before its fast path for ASCII "p/q" strings.

    Every string goes through ``Fraction``'s own parser; the accepted
    forms and the error messages are the reference the fast path must keep.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(path, "rational entries must be integers or 'p/q' strings")
    try:
        return exactla.as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational entry: {exc}") from None


def oracle_matrix(value, path, rows=None, cols=None) -> RationalMatrix:
    """``formats._matrix`` as it was before its fast path for plain integers.

    Every entry goes through ``oracle_rational`` and the matrix through
    ``RationalMatrix.from_rows``; the error paths and messages are the
    reference the fast paths must keep.
    """
    data = _list(value, path)
    parsed = []
    width = None
    for i, row in enumerate(data):
        row = _list(row, f"{path}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}/{i}", "ragged matrix rows")
        parsed.append([oracle_rational(x, f"{path}/{i}/{j}") for j, x in enumerate(row)])
    if cols is not None and width is not None and width != cols:
        raise SchemaError(path, f"expected {cols} columns, got {width}")
    if cols is None:
        cols = width if width is not None else 0
    matrix = RationalMatrix.from_rows(parsed, cols=cols)
    if rows is not None and matrix.rows != rows:
        raise SchemaError(path, f"expected {rows} rows, got {matrix.rows}")
    return matrix


# ------------------------------------------------------ divisor builders


def pn_hyperplanes_divisor(n: int) -> SncDivisor:
    """The n+1 coordinate hyperplanes in projective n-space."""
    components = [(f"H{i}", n - 1) for i in range(n + 1)]
    strata = [t for size in range(1, n + 1) for t in combinations(range(n + 1), size)]
    tables = {}
    for t in strata:
        bound = (n - 1) - (len(t) - 1)
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        for q in range(1, bound + 1):
            tables[(t, SHEAF, 0, q)] = TableEntry(0)
    return snc.make_snc_divisor(components, strata, tables)


def elliptic_triangle_divisor() -> SncDivisor:
    """Three elliptic curves meeting pairwise in single points."""
    strata = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        if len(t) == 1:
            tables[(t, SHEAF, 0, 1)] = TableEntry(1)
    return snc.make_snc_divisor([(f"E{i}", 1) for i in range(3)], strata, tables)


def three_lines_divisor(perturb: tuple | None = None) -> SncDivisor:
    """The three coordinate lines in the projective plane, full form and
    deRham tables.  ``perturb`` bumps one sheaf table entry by +1."""
    strata = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    tables = {}
    for t in strata:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        tables[(t, DERHAM, 0, 0)] = TableEntry(1, "constant")
        if len(t) == 1:
            tables[(t, SHEAF, 0, 1)] = TableEntry(0)
            tables[(t, SHEAF, 1, 0)] = TableEntry(0)
            tables[(t, SHEAF, 1, 1)] = TableEntry(1)
            tables[(t, DERHAM, 0, 1)] = TableEntry(0)
            tables[(t, DERHAM, 0, 2)] = TableEntry(1)
        else:
            tables[(t, SHEAF, 1, 0)] = TableEntry(0)
    if perturb is not None:
        t, r, q = perturb
        old = tables[(t, SHEAF, r, q)]
        tables[(t, SHEAF, r, q)] = TableEntry(old.dim + 1, old.restriction)
    return snc.make_snc_divisor([(f"L{i}", 1) for i in range(3)], strata, tables)


def nonfunctorial_q1_document() -> dict:
    """Three 3-folds meeting in a curve, with h^1 = 1 on every stratum.

    The q = 1 restrictions are explicit and not path independent: from (0,)
    or (1,) into (0, 1, 2) the route through (0, 1) gives 2, the other
    route 1.  Every other layer is constant or zero.  The document is
    written by ``scripts/make_inputs.py``.
    """
    with open(os.path.join(DATA, "nonfunctorial_q1.json"), encoding="utf-8") as handle:
        return json.load(handle)


def oracle_cone_closure(cones) -> frozenset[frozenset[int]]:
    """Every face of every given cone, the empty cone included.

    The face closure ``toric.make_fan`` once built from the listed cones.
    Pass a fan's ``maximal`` for the cones of the fan, or a document's
    listed cones to check ``maximal`` against them.
    """
    closed: set[frozenset[int]] = {frozenset()}
    for cone in cones:
        for k in range(len(cone) + 1):
            closed.update(frozenset(sub) for sub in combinations(sorted(cone), k))
    return frozenset(closed)


def oracle_boundary_complex(f: toric.Fan, selected_rays) -> SimplicialComplex:
    """The dual complex of the selected rays by filtering the face closure.

    Every cone of the fan that lies inside the selection, mapped to the
    positions of its rays among the selected ones in ascending order.  The
    refusals are those of ``toric.boundary_complex``, in its order.
    """
    if not f.smooth:
        raise NotSmooth("boundary components of a singular fan are not handled")
    selected = sorted(set(selected_rays))
    if not selected:
        raise InvalidInput("select at least one ray")
    if any(not (0 <= i < len(f.rays)) for i in selected):
        raise InvalidInput("selected ray index out of range")
    position = {ray: k for k, ray in enumerate(selected)}
    simplices = frozenset(
        tuple(position[i] for i in sorted(cone))
        for cone in oracle_cone_closure(f.maximal)
        if cone and cone.issubset(position)
    )
    return SimplicialComplex(len(selected), simplices)


def oracle_boundary_divisor(f: toric.Fan, selected_rays) -> SncDivisor:
    """The boundary of the selected rays as a divisor that tabulates its vanishing.

    Component k is the k-th selected ray in ascending order and a simplex
    of ``oracle_boundary_complex`` is a stratum.  Every stratum gets
    h^0 = 1 with constant restrictions and an explicit 0 for every
    0 < q <= n - |t| (Demazure vanishing written out), so
    ``snc.structure_sheaf_cohomology`` assembles it layer by layer, reading
    every zero row.
    """
    delta = oracle_boundary_complex(f, selected_rays)
    selected = sorted(set(selected_rays))
    components = [Component(name=f"D{ray}", dim=f.dim - 1) for ray in selected]
    tables = {}
    for t in delta.simplices:
        tables[(t, SHEAF, 0, 0)] = TableEntry(1, "constant")
        for q in range(1, f.dim - len(t) + 1):
            tables[(t, SHEAF, 0, q)] = TableEntry(0)
    return snc.make_snc_divisor(components, sorted(delta.simplices), tables)


def oracle_facet_certificate(f: toric.Fan) -> str:
    """The completeness test of a fan of dimension >= 3 by direct scans.

    Every codimension-1 cone of the face closure, smallest sorted ray list
    first, is compared with every full-dimensional cone, the adjacency
    graph is walked by comparing every pair of full cones, and every cone
    of the closure with fewer than n - 1 rays is compared with every other
    cone, to find the maximal ones.  Same verdicts and messages as
    ``toric.completeness_certificate``.
    """
    n = f.dim
    cones = oracle_cone_closure(f.maximal)
    top = [c for c in cones if len(c) == n]
    if not top:
        raise NecessaryConditionFailed("no full-dimensional cones")
    for facet in sorted((c for c in cones if len(c) == n - 1), key=sorted):
        owners = [c for c in top if facet < c]
        if len(owners) != 2:
            raise NecessaryConditionFailed(
                f"codimension-1 cone {sorted(facet)} lies in {len(owners)} full cones, expected 2"
            )
    seen = {0}
    queue = [0]
    while queue:
        current = top[queue.pop()]
        for k, other in enumerate(top):
            if k not in seen and len(current & other) == n - 1 and (current & other) in cones:
                seen.add(k)
                queue.append(k)
    if len(seen) != len(top):
        raise NecessaryConditionFailed("full-dimensional cones are not connected through facets")
    stray = [c for c in cones if 0 < len(c) < n - 1 and not any(c < other for other in cones)]
    if stray:
        raise NecessaryConditionFailed(f"cone {min(sorted(c) for c in stray)} lies in no full-dimensional cone")
    return toric.UNCERTIFIED


def disguised_rays(rng: random.Random, rays) -> list[list[int]]:
    """Rays moved by a random GL(n, Z) change of lattice basis.

    Primitivity, linear independence and every gcd of maximal minors of
    a ray subset are invariant under it.
    """
    n = len(rays[0])
    u = random_unimodular(rng, n).to_rows()
    return [[int(sum(u[i][k] * ray[k] for k in range(n))) for i in range(n)] for ray in rays]


# ------------------------------------------------------------- generators


def random_complex(rng: random.Random, max_vertices: int = 8) -> SimplicialComplex:
    n = rng.randint(0, max_vertices)
    if n == 0:
        return simplicial.from_facets(0, [])
    facet_count = rng.randint(0, 6)
    facets = []
    for _ in range(facet_count):
        size = rng.randint(1, min(n, 4))
        facets.append(tuple(sorted(rng.sample(range(n), size))))
    return simplicial.from_facets(n, facets)


def moore_space(m: int) -> tuple[int, list[tuple[int, ...]]]:
    """(vertex count, facets) of a Moore space with integral cohomology (Z, 0, Z/m).

    A disk whose boundary wraps m times around a circle: the circle is
    c_0, c_1, c_2 (vertices 0-2), the disk's boundary the 3m-gon
    a_0..a_{3m-1} (vertices 3..3m+2), and o (vertex 3m+3) the disk's cone
    point.  For each i there are the facets {c_i, c_{i+1}, a_i},
    {c_{i+1}, a_i, a_{i+1}} and {o, a_i, a_{i+1}}, with c indices mod 3
    and a indices mod 3m: the first two make a strip from the 3m-gon to the
    circle, going round it m times, the third the disk.
    """
    o = 3 * m + 3
    facets = []
    for i in range(3 * m):
        c, c_next, a, a_next = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % (3 * m)
        facets += [(c, c_next, a), (c_next, a, a_next), (o, a, a_next)]
    return o + 1, [tuple(sorted(f)) for f in facets]


def random_unimodular(rng: random.Random, n: int, shears: int = 4) -> RationalMatrix:
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if n and rng.random() < 0.5:
        i = rng.randrange(n)
        rows[i] = [-a for a in rows[i]]
    return RationalMatrix.from_rows(rows)


def conjugate_presheaf(rng: random.Random, v: Presheaf) -> tuple[Presheaf, dict]:
    """Change basis independently in every stalk; returns (presheaf, change maps)."""
    changes = {s: random_unimodular(rng, v.dim(s)) for s in v.base.simplices}
    restrictions = {}
    for (sigma, tau), mat in v.restrictions.items():
        restrictions[(sigma, tau)] = changes[tau] @ mat @ oracle_inverse(changes[sigma])
    return Presheaf(v.base, dict(v.dims), restrictions), changes


def star_presheaf(base: SimplicialComplex, core) -> Presheaf:
    """Dimension 1 on every simplex containing ``core``, identity maps inside."""
    core = tuple(core)
    dims = {s: (1 if set(core) <= set(s) else 0) for s in base.simplices}
    restrictions = {}
    for tau in sorted(base.simplices):
        if len(tau) < 2:
            continue
        for pos in range(len(tau)):
            sigma = tau[:pos] + tau[pos + 1 :]
            if dims[sigma] and dims[tau]:
                restrictions[(sigma, tau)] = RationalMatrix.identity(1)
    return presheaf.make_presheaf(base, dims, restrictions)


def random_presheaf(rng: random.Random, base: SimplicialComplex, summands: int = 3) -> Presheaf:
    """Random presheaf with consistent restrictions: sums of constants and
    stars, then a random change of basis in every stalk."""
    v = presheaf.constant_presheaf(base, 0)
    parts = rng.randint(0, summands)
    simplices = sorted(base.simplices)
    for _ in range(parts):
        if not simplices or rng.random() < 0.4:
            v = presheaf.direct_sum(v, presheaf.constant_presheaf(base, 1))
        else:
            v = presheaf.direct_sum(v, star_presheaf(base, rng.choice(simplices)))
    twisted, _ = conjugate_presheaf(rng, v)
    return twisted


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    entries = {}
    for i, j, av in a.nonzero_entries():
        for k, l, bv in b.nonzero_entries():
            entries[(i * b.rows + k, j * b.cols + l)] = av * bv
    return RationalMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def random_cochain_complex(rng: random.Random, max_length: int = 3, cap: int = 3):
    """Random cochain complex: sum of singletons and exact intervals at
    random positions, conjugated levelwise."""
    length = rng.randint(1, max_length)
    dims = [0] * length
    entries = [dict() for _ in range(max(length - 1, 0))]
    for _ in range(rng.randint(1, 5)):
        p = rng.randrange(length)
        if rng.random() < 0.5 and p + 1 < length and dims[p] < cap and dims[p + 1] < cap:
            entries[p][(dims[p + 1], dims[p])] = rng.choice([1, -1])
            dims[p] += 1
            dims[p + 1] += 1
        elif dims[p] < cap:
            dims[p] += 1
    diffs = [
        RationalMatrix(dims[p + 1], dims[p], entries[p])
        for p in range(length - 1)
    ]
    changes = [random_unimodular(rng, d, shears=2) for d in dims]
    diffs = [
        changes[p + 1] @ diffs[p] @ oracle_inverse(changes[p]) for p in range(length - 1)
    ]
    return presheaf.CochainComplex(tuple(dims), tuple(diffs))


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
            horizontal[(p, q)] = negated(mat) if q % 2 else mat
    return make_bicomplex(dims, horizontal, {})


def random_law_bicomplex(rng: random.Random, values: Sequence = (0, 0, 1, -1)):
    """Raw ``make_bicomplex`` arguments on a grid of up to 4x4 cells that may break the laws.

    Cells have dimension 0 to 2; about half of the maps are missing, and the
    others have the right shapes and entries drawn from ``values``, by
    default 0 and +-1.
    """
    width = rng.randint(0, 3)
    height = rng.randint(0, 3)
    dims = {(p, q): rng.randint(0, 2) for p in range(width + 1) for q in range(height + 1)}

    def maps(dp, dq):
        out = {}
        for (p, q), source in dims.items():
            target = (p + dp, q + dq)
            if target in dims and rng.random() < 0.5:
                out[(p, q)] = RationalMatrix.from_rows(
                    [[rng.choice(values) for _ in range(source)] for _ in range(dims[target])],
                    cols=source,
                )
        return out

    return dims, maps(1, 0), maps(0, 1)


def tensor_bicomplex(a, b) -> Bicomplex:
    """Bicomplex of the tensor product of two cochain complexes, with the
    sign twist on the verticals that makes the differentials anticommute."""
    dims = {}
    horizontal = {}
    vertical = {}
    for p, ap in enumerate(a.space_dims):
        for q, bq in enumerate(b.space_dims):
            dims[(p, q)] = ap * bq
            if p + 1 < len(a.space_dims):
                horizontal[(p, q)] = kron(a.differentials[p], RationalMatrix.identity(bq))
            if q + 1 < len(b.space_dims):
                mat = kron(RationalMatrix.identity(ap), b.differentials[q])
                vertical[(p, q)] = negated(mat) if p % 2 else mat
    return make_bicomplex(dims, horizontal, vertical)


class _BicomplexDraft:
    def __init__(self, width: int, height: int, cap: int):
        self.width = width
        self.height = height
        self.cap = cap
        self.dims = {(p, q): 0 for p in range(width + 1) for q in range(height + 1)}
        self.horizontal: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        self.vertical: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    def room(self, *cells) -> bool:
        return all(self.dims[c] < self.cap for c in cells)

    def alloc(self, p, q) -> int:
        slot = self.dims[(p, q)]
        self.dims[(p, q)] = slot + 1
        return slot

    def put(self, maps, p, q, row, col, value):
        maps.setdefault((p, q), {})[(row, col)] = value


def random_bicomplex(
    rng: random.Random, max_width: int = 3, max_height: int = 3, cap: int = 4
) -> Bicomplex:
    """Random valid bicomplex: block sums of cells, intervals, squares and
    zigzags (the shape that produces second-page differentials), then a
    change of basis in every cell."""
    width = rng.randint(0, max_width)
    height = rng.randint(0, max_height)
    draft = _BicomplexDraft(width, height, cap)
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(["cell", "cell", "h", "v", "square", "zigzag"])
        p = rng.randint(0, width)
        q = rng.randint(0, height)
        if kind == "cell" and draft.room((p, q)):
            draft.alloc(p, q)
        elif kind == "h" and p < width and draft.room((p, q), (p + 1, q)):
            a = draft.alloc(p, q)
            b = draft.alloc(p + 1, q)
            draft.put(draft.horizontal, p, q, b, a, rng.choice([1, -1]))
        elif kind == "v" and q < height and draft.room((p, q), (p, q + 1)):
            a = draft.alloc(p, q)
            b = draft.alloc(p, q + 1)
            draft.put(draft.vertical, p, q, b, a, rng.choice([1, -1]))
        elif kind == "square" and p < width and q < height and draft.room(
            (p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)
        ):
            a = draft.alloc(p, q)
            b = draft.alloc(p + 1, q)
            c = draft.alloc(p, q + 1)
            d = draft.alloc(p + 1, q + 1)
            draft.put(draft.horizontal, p, q, b, a, 1)
            draft.put(draft.horizontal, p, q + 1, d, c, -1)
            draft.put(draft.vertical, p, q, c, a, 1)
            draft.put(draft.vertical, p + 1, q, d, b, 1)
        elif kind == "zigzag" and p + 2 <= width and q + 1 <= height and draft.room(
            (p, q + 1), (p + 1, q + 1), (p + 1, q), (p + 2, q)
        ):
            a = draft.alloc(p, q + 1)
            b = draft.alloc(p + 1, q + 1)
            c = draft.alloc(p + 1, q)
            d = draft.alloc(p + 2, q)
            draft.put(draft.horizontal, p, q + 1, b, a, 1)
            draft.put(draft.vertical, p + 1, q, b, c, 1)
            draft.put(draft.horizontal, p + 1, q, d, c, 1)

    def build(maps, target_of):
        out = {}
        for (p, q), entries in maps.items():
            tp, tq = target_of(p, q)
            out[(p, q)] = RationalMatrix(
                draft.dims[(tp, tq)], draft.dims[(p, q)], entries
            )
        return out

    horizontal = build(draft.horizontal, lambda p, q: (p + 1, q))
    vertical = build(draft.vertical, lambda p, q: (p, q + 1))
    changes = {cell: random_unimodular(rng, d, shears=2) for cell, d in draft.dims.items()}
    inverses = {cell: oracle_inverse(mat) for cell, mat in changes.items()}
    horizontal = {
        (p, q): changes[(p + 1, q)] @ mat @ inverses[(p, q)]
        for (p, q), mat in horizontal.items()
    }
    vertical = {
        (p, q): changes[(p, q + 1)] @ mat @ inverses[(p, q)]
        for (p, q), mat in vertical.items()
    }
    return make_bicomplex(draft.dims, horizontal, vertical)


def simplex_boundary_cochains(a: int) -> CochainComplex:
    """Constant-coefficient Cech cochains of the boundary of the simplex on
    ``a`` vertices, a sphere of dimension a - 2."""
    boundary = simplicial.from_facets(a, list(combinations(range(a), a - 1)))
    return presheaf.cech_complex(presheaf.constant_presheaf(boundary, 1))


def direct_sum_bicomplex(a: Bicomplex, b: Bicomplex) -> Bicomplex:
    """Cellwise direct sum, ``a``'s basis first; the maps are block diagonal."""
    width, height = max(a.width, b.width), max(a.height, b.height)
    dims = {(p, q): a.dim(p, q) + b.dim(p, q) for p in range(width + 1) for q in range(height + 1)}

    def summed(kind, dp, dq):
        out = {}
        for p, q in dims:
            target = (p + dp, q + dq)
            if target in dims:
                blocks = {(k, k): bicomplex_map(x, kind, p, q) for k, x in enumerate((a, b))}
                out[(p, q)] = block_matrix(
                    [a.dim(*target), b.dim(*target)], [a.dim(p, q), b.dim(p, q)], blocks
                )
        return out

    return make_bicomplex(dims, summed("horizontal", 1, 0), summed("vertical", 0, 1))


def conjugate_bicomplex(rng: random.Random, b: Bicomplex) -> Bicomplex:
    """Change basis in every cell by elementary matrices I + c e_ij.

    The multipliers include halves, so the maps get "p/q" entries; the
    result is isomorphic to ``b`` and has the same pages.
    """
    changes, inverses = {}, {}
    for cell, n in b.dims.items():
        change = inverse = RationalMatrix.identity(n)
        for _ in range(max(1, n // 4) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]))
            unit = {(k, k): 1 for k in range(n)}
            change = RationalMatrix(n, n, {**unit, (i, j): c}) @ change
            inverse = inverse @ RationalMatrix(n, n, {**unit, (i, j): -c})
        changes[cell], inverses[cell] = change, inverse

    def moved(kind, dp, dq):
        return {
            (p, q): changes[(p + dp, q + dq)] @ m @ inverses[(p, q)]
            for (p, q), m in given_maps(b, kind).items()
        }

    return make_bicomplex(dict(b.dims), moved("horizontal", 1, 0), moved("vertical", 0, 1))


def zigzag_bicomplex() -> Bicomplex:
    """Cells (0,1) -> (1,1) <- (1,0) -> (2,0) joined by identities: a nonzero d_2."""
    one = RationalMatrix.identity(1)
    return make_bicomplex(
        {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
        horizontal={(0, 1): one, (1, 0): one},
        vertical={(1, 0): one},
    )


def bicomplex_document(b: Bicomplex) -> dict:
    """A ``bicomplex`` input document; integers stay integers, other entries become "p/q"."""

    def entry(x: Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def encoded(kind):
        return [
            {"p": p, "q": q, "matrix": [[entry(x) for x in row] for row in m.to_rows()]}
            for (p, q), m in given_maps(b, kind).items()
        ]

    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[b.dim(p, q) for p in range(b.width + 1)] for q in range(b.height + 1)],
        "horizontal": encoded("horizontal"),
        "vertical": encoded("vertical"),
    }


# ------------------------------------------------------- schema validation


def json_equal(a, b) -> bool:
    """Equality of JSON values: a boolean equals only the same boolean, and 1.0 equals 1.

    Python's ``==`` has ``True == 1`` and ``[True] == [1]``, which JSON
    Schema's ``enum`` and ``const`` do not.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(json_equal, a, b))
    return a == b


def schema_errors(instance, schema, path="") -> list[str]:
    """Minimal JSON Schema checker for the subset used by the shipped schemas."""
    errs: list[str] = []
    if "enum" in schema:
        if not any(json_equal(instance, allowed) for allowed in schema["enum"]):
            errs.append(f"{path or '/'}: {instance!r} not in enum {schema['enum']}")
            return errs
    expected = schema.get("type")
    if expected is not None:
        ok = {
            "object": lambda x: isinstance(x, dict),
            "array": lambda x: isinstance(x, list),
            "string": lambda x: isinstance(x, str),
            "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
            "boolean": lambda x: isinstance(x, bool),
            "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
        }[expected](instance)
        if not ok:
            errs.append(f"{path or '/'}: expected {expected}")
            return errs
    if "oneOf" in schema:
        matches = [
            branch for branch in schema["oneOf"] if not schema_errors(instance, branch, path)
        ]
        if len(matches) != 1:
            errs.append(f"{path or '/'}: matched {len(matches)} branches of oneOf, expected 1")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errs.append(f"{path}/{key}: missing required field")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                errs.extend(schema_errors(instance[key], sub, f"{path}/{key}"))
        if schema.get("additionalProperties") is False:
            for key in instance:
                if key not in props:
                    errs.append(f"{path}/{key}: additional property not allowed")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errs.extend(schema_errors(item, schema["items"], f"{path}/{i}"))
    return errs


# one document per kind; the divisor carries a rational_check section, so
# rational-check has a report to write too
DISPATCH_INPUTS = {
    "complex": "triangle_boundary.json",
    "presheaf": "vertex_presheaf_triangle.json",
    "divisor": "rational_triangle_check.json",
    "fan": "pn_fan_2.json",
    "localmodel": "lm_2_1_1.json",
    "bicomplex": "bicomplex_d2.json",
}


def dispatch_corpus(inputs: str) -> list[list[str]]:
    """Command lines over every way ``cli.main`` parses: reports, help, and usage errors.

    Every command with and without its document, with ``--json`` and with
    ``--help``; each command's extra option good, bad, in the ``=`` form,
    abbreviated, and with values ``int()`` reads but that are not plain
    digits; and, on ``verify-lemma31``, abbreviated flags, ``--field`` in
    every form, flags given twice, ``--`` on either side of the document,
    options before it, an empty document, an extra positional and an
    unknown flag.  Then the lines that start with no command.  ``inputs``
    is the directory of the committed documents.
    """
    corpus = []
    for name, command in cli.COMMANDS.items():
        doc = os.path.join(inputs, DISPATCH_INPUTS[command.kind])
        corpus += [[name], [name, doc], [name, doc, "--json"], [name, "--help"]]
        if command.option is not None:
            abbreviated = command.option[: command.option.index("-", 2)]
            corpus += [
                [name, doc, command.option, "1"],
                [name, doc, command.option, "one"],
                [name, doc, command.option, "-1"],
                [name, doc, f"{command.option}=2"],
                [name, doc, abbreviated, "2"],
                [name, doc, command.option],
                [name, doc, command.option, ""],
            ]
            corpus += [[name, doc, command.option, value] for value in (" 7", "+2", "1_0", "\u0663")]
    doc = os.path.join(inputs, DISPATCH_INPUTS["localmodel"])
    lemma = "verify-lemma31"
    corpus += [
        [lemma, "-h"],
        [lemma, doc, "--he"],
        [lemma, doc, "--js"],
        [lemma, doc, "--field", "rational"],
        [lemma, doc, "--field", "real"],
        [lemma, doc, "--field"],
        [lemma, doc, "--field=rational"],
        [lemma, doc, "--fi=real"],
        [lemma, "--", doc],
        [lemma, doc, "--"],
        [lemma, doc, "--", "--json"],
        [lemma, "--json", doc],
        [lemma, "--field", "rational", "--degree-bound", "2", doc],
        [lemma, "--degree-bound", "2", "--json", doc],
        [lemma, doc, "--json", "--json"],
        [lemma, doc, "--field", "rational", "--field", "rational"],
        [lemma, doc, "--degree-bound", "1", "--degree-bound", "2"],
        [lemma, ""],
        [lemma, "", "--json"],
        [lemma, doc, "extra.json"],
        [lemma, doc, "--no-such-flag"],
        [lemma, doc, "-x"],
        [],
        ["-h"],
        ["--help"],
        ["--he"],
        ["--json", lemma, doc],
        ["no-such-command", doc],
        ["verify", doc],
    ]
    return corpus


def cli_outcome(argv: Sequence[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def dispatch_mismatches(inputs: str) -> list[tuple]:
    """Each line of ``dispatch_corpus`` whose outcome differs with the table path off, with both outcomes.

    Off, ``cli._plain_args`` reads no line, so ``main`` parses every line
    with ``build_parser().parse_args``.  Runs under any Python with no test
    framework, so the corpus can be checked on every interpreter
    ``pyproject.toml`` allows.
    """
    mismatches = []
    for argv in dispatch_corpus(inputs):
        table = cli_outcome(argv)
        with mock.patch.object(cli, "_plain_args", lambda argv: None):
            full = cli_outcome(argv)
        if table != full:
            mismatches.append((argv, table, full))
    return mismatches


def plain_args_mismatch(argv: Sequence[str]) -> tuple | None:
    """``argv`` with both namespaces when ``cli._plain_args`` reads it to other values than argparse; else None.

    A line the table path leaves to argparse is no mismatch.  argparse's
    refusal of a line the table path read counts as one, with its exit
    code in place of its namespace.
    """
    plain = cli._plain_args(list(argv))
    if plain is None:
        return None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(cli.build_parser().parse_args(list(argv)))
    except SystemExit as exc:
        full = exc.code
    return None if vars(plain) == full else (list(argv), vars(plain), full)
