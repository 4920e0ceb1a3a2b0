"""Shared test utilities: independent oracles and random generators.

The oracles deliberately avoid the library's own elimination code.  Ranks
come from fraction-free Bareiss elimination over the integers, Betti
numbers from chain boundary matrices (the homology route, not the cochain
route the library uses), monomial counts from inclusion-exclusion,
local-model homology from the full Cech matrix over every stratum at once,
and presheaf functoriality from triple-loop products of the restrictions.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from dualcech import exactla, presheaf, simplicial, snc
from dualcech.bicomplex import _antidiagonal as antidiagonal
from dualcech.bicomplex import INFINITY, Bicomplex, SpectralPage, make_bicomplex, total_complex
from dualcech.errors import CompositionNonzero, InvalidBicomplex, SchemaError, ShapeMismatch
from dualcech.formats import _list, _rational
from dualcech.exactla import RationalMatrix
from dualcech.localmodel import LocalModelSpec, quotient_basis
from dualcech.presheaf import CochainComplex, Presheaf
from dualcech.simplicial import SimplicialComplex
from dualcech.snc import DERHAM, SHEAF, SncDivisor, TableEntry

DATA = os.path.join(os.path.dirname(__file__), "data")


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


def oracle_matmul(a: list[list], b: list[list], cols: int) -> list[list[Fraction]]:
    """Dense product of rational matrices given as rows, by a triple loop.

    ``b`` has one row per column of ``a`` and ``cols`` columns; ``cols``
    is passed because ``b`` may have no rows to read it from.
    """
    return [
        [sum((Fraction(row[k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def oracle_is_functorial(v: Presheaf) -> bool:
    """Whether every two-step restriction composite is path independent.

    For each simplex rho with at least three vertices and each pair of
    positions x < y, the composites from rho minus both vertices through rho
    minus one of them are dense ``oracle_matmul`` products of the
    restriction rows.
    """
    for rho in v.base.simplices:
        if len(rho) < 3:
            continue
        for x, y in combinations(range(len(rho)), 2):
            sigma = tuple(w for k, w in enumerate(rho) if k not in (x, y))
            composites = []
            for skip in (x, y):
                tau = tuple(w for k, w in enumerate(rho) if k != skip)
                outer = v.restrictions[(tau, rho)].to_rows()
                inner = v.restrictions[(sigma, tau)].to_rows()
                composites.append(oracle_matmul(outer, inner, v.dim(sigma)))
            if composites[0] != composites[1]:
                return False
    return True


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


class OracleCochainComplex(CochainComplex):
    """A cochain complex whose cohomology comes from Bareiss ranks."""

    def cohomology(self) -> list[int]:
        ranks = [oracle_rank(d.to_rows()) for d in self.differentials]
        n = len(self.space_dims)
        return [
            dim - (ranks[p] if p < n - 1 else 0) - (ranks[p - 1] if p > 0 else 0)
            for p, dim in enumerate(self.space_dims)
        ]


def oracle_layered_report(d: SncDivisor, r: int, flavor: str) -> snc.CohomologyReport:
    """The report of one (form degree, flavor) family, every layer ranked.

    Layers q = 0..top are built as the library builds them, and each one,
    identically zero or not, goes through ``cech_complex`` (d.d checked)
    and Bareiss ranks.  The totals and summands follow the
    paper's sum over p + q = k, up to the last nonzero layer.
    """
    delta = snc.dual_complex(d)
    if delta.dim < 0:
        return snc.CohomologyReport((), ())
    bound = max(snc.stratum_dim_bound(d, t) for t in d.strata)
    top = 2 * bound if flavor == DERHAM else bound
    layers = []
    for q in range(top + 1):
        v = snc.build_presheaf(d, r, q, flavor)
        c = presheaf.cech_complex(v)
        h = OracleCochainComplex(c.space_dims, c.differentials).cohomology()
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
    differentials = [RationalMatrix.from_entries(space_dims[1], space_dims[0], entries)]
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
            RationalMatrix.from_entries(space_dims[p + 2], space_dims[p + 1], entries)
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


def _vertical_in(b: Bicomplex, p: int, q: int) -> RationalMatrix:
    if q > 0:
        return b.vertical[(p, q - 1)]
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
            dims[(p, q)] = oracle_homology_dim(_vertical_in(b, p, q), b.vertical[(p, q)])
        return SpectralPage(1, dims)
    # E2: the differential induced by the horizontal maps on vertical
    # cohomology, evaluated on kernel bases of the vertical maps.  The rank
    # of the induced map Z_p/B_p -> Z_{p+1}/B_{p+1} is
    # rank([delta K_p | V_{p+1}]) - rank(V_{p+1}).
    kernels = {(p, q): exactla.kernel_basis(b.vertical[(p, q)]) for p, q in grid}
    e1 = {
        (p, q): kernels[(p, q)].cols - exactla.rank(_vertical_in(b, p, q))
        for p, q in grid
    }
    induced_rank = {}
    for p, q in grid:
        if p == b.width:
            induced_rank[(p, q)] = 0
            continue
        image = b.horizontal[(p, q)] @ kernels[(p, q)]
        below = _vertical_in(b, p + 1, q)
        induced_rank[(p, q)] = exactla.rank(image.hstack(below)) - exactla.rank(below)
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
    tc = total_complex(b)
    totals = tc.cohomology()
    top = b.width + b.height
    dims = {(p, q): 0 for p in range(b.width + 1) for q in range(b.height + 1)}
    for m in range(top + 1):
        positions = antidiagonal(b, m)
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
            sub_kernel = exactla.kernel_basis(d_out.take_columns(cols))
            embedded = RationalMatrix.from_entries(
                dim_m,
                sub_kernel.cols,
                {(cols[i], j): v for i, j, v in sub_kernel.nonzero_entries()},
            )
            graded.append(exactla.rank(embedded.hstack(d_prev)) - rank_prev)
        for p, q in positions:
            dims[(p, q)] = graded[p] - graded[p + 1]
        if sum(graded[p] - graded[p + 1] for p, _ in positions) != totals[m]:
            raise InvalidBicomplex(
                f"filtration pieces in total degree {m} do not sum to the total cohomology"
            )
    return SpectralPage(INFINITY, dims)


def oracle_matrix(value, path, rows=None, cols=None) -> RationalMatrix:
    """``formats._matrix`` as it was before its fast path for plain integers.

    Every entry goes through ``_rational`` and the matrix through
    ``RationalMatrix.from_rows``; the error paths and messages are the
    reference the fast path must keep.
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
        parsed.append([_rational(x, f"{path}/{i}/{j}") for j, x in enumerate(row)])
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
        restrictions[(sigma, tau)] = changes[tau] @ mat @ exactla.inverse(changes[sigma])
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
    return RationalMatrix.from_entries(a.rows * b.rows, a.cols * b.cols, entries)


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
        RationalMatrix.from_entries(dims[p + 1], dims[p], entries[p])
        for p in range(length - 1)
    ]
    changes = [random_unimodular(rng, d, shears=2) for d in dims]
    diffs = [
        changes[p + 1] @ diffs[p] @ exactla.inverse(changes[p]) for p in range(length - 1)
    ]
    return presheaf.CochainComplex(tuple(dims), tuple(diffs))


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
                vertical[(p, q)] = mat.scaled(-1) if p % 2 else mat
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
            out[(p, q)] = RationalMatrix.from_entries(
                draft.dims[(tp, tq)], draft.dims[(p, q)], entries
            )
        return out

    horizontal = build(draft.horizontal, lambda p, q: (p + 1, q))
    vertical = build(draft.vertical, lambda p, q: (p, q + 1))
    changes = {cell: random_unimodular(rng, d, shears=2) for cell, d in draft.dims.items()}
    inverses = {cell: exactla.inverse(mat) for cell, mat in changes.items()}
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
                blocks = {
                    (k, k): getattr(x, kind)[(p, q)]
                    for k, x in enumerate((a, b))
                    if (p, q) in getattr(x, kind)
                }
                out[(p, q)] = exactla.block_matrix(
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
            change = RationalMatrix.from_entries(n, n, {**unit, (i, j): c}) @ change
            inverse = inverse @ RationalMatrix.from_entries(n, n, {**unit, (i, j): -c})
        changes[cell], inverses[cell] = change, inverse

    def moved(maps, dp, dq):
        return {
            (p, q): changes[(p + dp, q + dq)] @ m @ inverses[(p, q)]
            for (p, q), m in maps.items()
            if not m.is_zero()
        }

    return make_bicomplex(dict(b.dims), moved(b.horizontal, 1, 0), moved(b.vertical, 0, 1))


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

    def encoded(maps):
        return [
            {"p": p, "q": q, "matrix": [[entry(x) for x in row] for row in m.to_rows()]}
            for (p, q), m in sorted(maps.items())
            if not m.is_zero()
        ]

    return {
        "kind": "bicomplex",
        "schema_version": 1,
        "dims": [[b.dim(p, q) for p in range(b.width + 1)] for q in range(b.height + 1)],
        "horizontal": encoded(b.horizontal),
        "vertical": encoded(b.vertical),
    }


# ------------------------------------------------------- schema validation


def schema_errors(instance, schema, path="") -> list[str]:
    """Minimal JSON Schema checker for the subset used by the shipped schemas."""
    errs: list[str] = []
    if "enum" in schema:
        if instance not in schema["enum"]:
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
