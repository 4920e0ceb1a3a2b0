"""Simple normal crossings configurations and their cohomology assemblers.

The data model is purely combinatorial: a list of components with their
dimensions, multiplicities, an incidence family saying which intersections
(strata) are nonempty, and per-stratum cohomology tables.  The tables are
inputs, not derived quantities; this module implements the assembly of
global cohomology from stratum data and incidence, not the algebraic
geometry of the strata themselves.

Cohomology tables come in two flavors.  ``sheaf`` rows tabulate the
dimension of H^q of the sheaf of r-forms on a stratum (r = 0 being the
structure sheaf), ``derham`` rows tabulate deRham cohomology.  Restriction
maps between stratum tables are genuine geometric data; they may be given
explicitly, as the shorthands "constant" or "zero", or omitted when one
side is zero-dimensional.  Anything else is refused rather than guessed.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from . import presheaf as presheaf_mod
from . import simplicial
from .errors import (
    BadTuple,
    BaseMismatch,
    HodgeMismatch,
    HypothesisViolated,
    InvalidInput,
    MissingTable,
    NotClosed,
    NotSimplicial,
    UnderdeterminedRestrictions,
)
from .exactla import RationalMatrix
from .presheaf import Presheaf, constant_presheaf, presheaf_cohomology, split_constant
# betti_numbers is unused here; perfbench/spans.py traces it as a name bound in this module
from .simplicial import Simplex, SimplicialComplex, betti_numbers  # noqa: F401

SHEAF = "sheaf"
DERHAM = "derham"

# restriction shorthand: None, "zero", "constant", or {face tuple: matrix}
RestrictionSpec = object


class Component(NamedTuple):
    name: str
    dim: int


class TableEntry(NamedTuple):
    dim: int
    restriction: RestrictionSpec = None


class SncDivisor(NamedTuple):
    components: tuple[Component, ...]
    multiplicities: tuple[int, ...]
    strata: frozenset[Simplex]
    tables: Mapping[tuple[Simplex, str, int, int], TableEntry]
    irreducible: bool = True


class Summand(NamedTuple):
    p: int
    q: int
    dim: int
    source: str


class CohomologyReport(NamedTuple):
    """Total dimensions and the summands E^{p,q} they sum, as ``_assemble`` builds them.

    ``totals[k]`` is the sum of ``dim`` over the summands with p + q = k.
    """

    totals: tuple[int, ...]
    summands: tuple[Summand, ...]

    def alternating_sum(self) -> int:
        return sum((-1) ** i * t for i, t in enumerate(self.totals))


def make_snc_divisor(
    components: Sequence[Component | tuple[str, int]],
    strata: Sequence[Sequence[int]],
    tables: Mapping[tuple[Simplex, str, int, int], TableEntry] | None = None,
    multiplicities: Sequence[int] | None = None,
    irreducible: bool = True,
) -> SncDivisor:
    comps = tuple(c if isinstance(c, Component) else Component(*c) for c in components)
    for c in comps:
        if c.dim < 0:
            raise InvalidInput(f"component {c.name} has negative dimension")
    if multiplicities is None:
        multiplicities = (1,) * len(comps)
    multiplicities = tuple(multiplicities)
    if len(multiplicities) != len(comps):
        raise InvalidInput("one multiplicity per component is required")
    if any(m < 1 for m in multiplicities):
        raise InvalidInput("multiplicities must be positive")
    present = frozenset(simplicial.check_vertex_tuple(t, len(comps)) for t in strata)
    for t in present:
        for face, _ in simplicial._faces(t):
            if face not in present:
                raise NotClosed(f"stratum {t} is present but its face {face} is not")
    for i in range(len(comps)):
        if comps and (i,) not in present:
            raise NotClosed(f"component {i} has no stratum entry")
    tables = dict(tables or {})
    for (t, flavor, r, q), entry in tables.items():
        if t not in present:
            raise BadTuple(f"table row for absent stratum {t}")
        if flavor not in (SHEAF, DERHAM):
            raise InvalidInput(f"unknown table flavor {flavor!r}")
        if r < 0 or q < 0 or entry.dim < 0:
            raise InvalidInput(f"negative index in table row for {t}")
        if flavor == DERHAM and r != 0:
            raise InvalidInput("derham table rows must have form degree 0")
    return SncDivisor(comps, multiplicities, present, tables, irreducible)


def dual_complex(d: SncDivisor) -> SimplicialComplex:
    """Vertices are the components; a tuple spans a simplex iff its stratum is nonempty."""
    if not d.irreducible:
        raise NotSimplicial(
            "reducible intersections give a dual structure that is not a simplicial complex"
        )
    return SimplicialComplex(len(d.components), d.strata)


def stratum_dim_bound(d: SncDivisor, t: Simplex) -> int:
    """Upper bound for the dimension of a stratum, from component dimensions alone."""
    least = min(d.components[i].dim for i in t)
    return max(0, least - (len(t) - 1))


def table_dim(d: SncDivisor, t: Simplex, flavor: str, r: int, q: int) -> int:
    entry = d.tables.get((t, flavor, r, q))
    if entry is not None:
        return entry.dim
    bound = stratum_dim_bound(d, t)
    if flavor == SHEAF and (r > bound or q > bound):
        return 0
    if flavor == DERHAM and q > 2 * bound:
        return 0
    raise MissingTable(f"no {flavor} table for stratum {t} at form degree {r}, cohomology degree {q}")


def _resolve_restriction(
    d: SncDivisor,
    flavor: str,
    r: int,
    q: int,
    sigma: Simplex,
    tau: Simplex,
    dim_sigma: int,
    dim_tau: int,
) -> RationalMatrix:
    spec = None
    entry = d.tables.get((tau, flavor, r, q))
    if entry is not None:
        spec = entry.restriction
    if spec is None:
        raise UnderdeterminedRestrictions(
            f"{flavor} tables at (r={r}, q={q}) give dimensions {dim_sigma} -> {dim_tau} "
            f"for {sigma} -> {tau} but no restriction data; refusing to guess"
        )
    if spec == "zero":
        return RationalMatrix.zeros(dim_tau, dim_sigma)
    if spec == "constant":
        if dim_sigma != dim_tau:
            raise UnderdeterminedRestrictions(
                f"'constant' shorthand needs equal dimensions, got {dim_sigma} -> {dim_tau} "
                f"for {sigma} -> {tau}"
            )
        return RationalMatrix.identity(dim_tau)
    if isinstance(spec, Mapping):
        mat = spec.get(sigma)
        if mat is None:
            raise UnderdeterminedRestrictions(
                f"explicit restrictions at {tau} are missing the face {sigma}"
            )
        return mat
    raise InvalidInput(f"unrecognized restriction shorthand {spec!r} at {tau}")


def build_presheaf(d: SncDivisor, r: int, q: int, flavor: str = SHEAF) -> Presheaf:
    """Presheaf on the dual complex carrying the tabulated (r, q) cohomology data."""
    if flavor not in (SHEAF, DERHAM):
        raise InvalidInput(f"unknown flavor {flavor!r}")
    if flavor == DERHAM and r != 0:
        raise InvalidInput("derham layers have no form degree; pass r=0")
    delta = dual_complex(d)
    layer = _layer(d, delta, r, q, flavor)
    return constant_presheaf(delta, 0) if layer is None else layer


def _layer(
    d: SncDivisor, delta: SimplicialComplex, r: int, q: int, flavor: str
) -> Presheaf | None:
    """The (r, q) presheaf on ``delta``, or None when every table dimension is zero."""
    if q == 0 and (flavor == DERHAM or r == 0):
        # degree-0 cohomology of a connected irreducible stratum is the
        # constants, so this layer is the constant presheaf by fiat
        for t in sorted(d.strata):
            if table_dim(d, t, flavor, r, 0) != 1:
                raise InvalidInput(
                    f"stratum {t} tabulates h^0 != 1 at (r={r}, {flavor}); "
                    "strata are assumed connected and irreducible"
                )
        return constant_presheaf(delta, 1)
    dims = {t: table_dim(d, t, flavor, r, q) for t in d.strata}
    if not any(dims.values()):
        return None
    # make_presheaf fills in the zero maps into or out of a zero space
    restrictions: dict[tuple[Simplex, Simplex], RationalMatrix] = {}
    for sigma, tau in delta.face_pairs:
        ds, dt = dims[sigma], dims[tau]
        if ds and dt:
            restrictions[(sigma, tau)] = _resolve_restriction(d, flavor, r, q, sigma, tau, ds, dt)
    return presheaf_mod.make_presheaf(delta, dims, restrictions)


def _max_stratum_bound(d: SncDivisor) -> int:
    return max((stratum_dim_bound(d, t) for t in d.strata), default=0)


def _assemble(d: SncDivisor, r: int, flavor: str, q_top: int) -> CohomologyReport:
    """Totals and summands of the layers q = 0..q_top of one (r, flavor) family.

    An all-zero layer is never built: it has 0 groups in every degree, so
    no check on it can fail.  A nonzero layer is the constant q = 0
    presheaf, functorial by construction, or came through make_presheaf,
    which checked its shapes and functoriality; either way its Cech
    differential squares to zero, and presheaf_cohomology ranks it
    without checking that again.
    """
    delta = dual_complex(d)
    layers = [_layer(d, delta, r, q, flavor) for q in range(q_top + 1)]
    if delta.dim < 0:
        return CohomologyReport((), ())
    q_eff = max((q for q, v in enumerate(layers) if v is not None), default=0)
    zero = [0] * (delta.dim + 1)
    summands = []
    for q, v in enumerate(layers[: q_eff + 1]):
        h = zero if v is None else presheaf_cohomology(v)
        label = f"derham q={q}" if flavor == DERHAM else f"sheaf r={r} q={q}"
        summands.extend(Summand(p, q, dim, label) for p, dim in enumerate(h))
    totals = [0] * (delta.dim + q_eff + 1)
    for s in summands:
        totals[s.p + s.q] += s.dim
    return CohomologyReport(tuple(totals), tuple(summands))


def structure_sheaf_cohomology(d: SncDivisor) -> CohomologyReport:
    """Global structure-sheaf cohomology assembled from stratum tables and incidence."""
    return _assemble(d, 0, SHEAF, _max_stratum_bound(d))


def reduced_forms_cohomology(d: SncDivisor, r: int) -> CohomologyReport:
    """Cohomology of reduced r-forms; r = 0 coincides with the structure sheaf."""
    if r < 0:
        raise InvalidInput("form degree must be nonnegative")
    return _assemble(d, r, SHEAF, _max_stratum_bound(d))


def derham_cohomology(d: SncDivisor) -> CohomologyReport:
    return _assemble(d, 0, DERHAM, 2 * _max_stratum_bound(d))


class HodgeTable(NamedTuple):
    """Matrix of reduced-form cohomology dimensions h^q(form degree r)."""

    entries: tuple[tuple[int, ...], ...]  # entries[r][q]
    antidiagonal_sums: tuple[int, ...]
    derham_totals: tuple[int, ...]
    row_sums: tuple[int, ...]
    column_sums: tuple[int, ...]


def _pad(values: Sequence[int], length: int) -> tuple[int, ...]:
    return tuple(values) + (0,) * (length - len(values))


def stratum_tables_hodge_symmetric(d: SncDivisor) -> bool:
    """Whether every stratum's sheaf table satisfies h^q(r-forms) == h^r(q-forms)."""
    for t in sorted(d.strata):
        bound = stratum_dim_bound(d, t)
        for r in range(bound + 1):
            for q in range(r + 1, bound + 1):
                if table_dim(d, t, SHEAF, r, q) != table_dim(d, t, SHEAF, q, r):
                    return False
    return True


def _stratum_derham_consistent(d: SncDivisor) -> bool:
    for t in sorted(d.strata):
        bound = stratum_dim_bound(d, t)
        for k in range(2 * bound + 1):
            expected = sum(
                table_dim(d, t, SHEAF, r, k - r)
                for r in range(max(0, k - bound), min(k, bound) + 1)
            )
            if table_dim(d, t, DERHAM, 0, k) != expected:
                return False
    return True


def hodge_decomposition(d: SncDivisor) -> HodgeTable:
    """Table of reduced-form cohomology, checked against the deRham totals.

    The antidiagonal sums of the table must reproduce the deRham totals
    whenever the stratum tables are internally consistent; a failure is
    raised as HodgeMismatch instead of being silently reported as a table.
    """
    if not d.strata:
        return HodgeTable((), (), (), (), ())
    r_top = _max_stratum_bound(d)
    rows = [reduced_forms_cohomology(d, r).totals for r in range(r_top + 1)]
    width = max((len(row) for row in rows), default=0)
    padded = tuple(_pad(row, width) for row in rows)
    anti = [0] * (r_top + width)
    for r, row in enumerate(padded):
        for q, value in enumerate(row):
            anti[r + q] += value
    derham = derham_cohomology(d).totals
    length = max(len(anti), len(derham))
    anti_padded = _pad(anti, length)
    derham_padded = _pad(derham, length)
    table = HodgeTable(
        entries=padded,
        antidiagonal_sums=anti_padded,
        derham_totals=derham_padded,
        row_sums=tuple(sum(row) for row in padded),
        column_sums=tuple(sum(row[q] for row in padded) for q in range(width)),
    )
    if anti_padded != derham_padded:
        bad = [i for i in range(length) if anti_padded[i] != derham_padded[i]]
        raise HodgeMismatch(
            f"antidiagonal sums {tuple(anti_padded)} disagree with deRham totals "
            f"{tuple(derham_padded)} in degrees {bad}",
            table=table,
            diagnostics={
                "mismatch_degrees": bad,
                "stratum_tables_hodge_symmetric": stratum_tables_hodge_symmetric(d),
                "stratum_derham_consistent": _stratum_derham_consistent(d),
            },
        )
    return table


def sheaf_euler_characteristic(d: SncDivisor) -> int:
    """Alternating sum over strata of their structure-sheaf Euler characteristics."""
    total = 0
    for t in d.strata:
        bound = stratum_dim_bound(d, t)
        chi = sum((-1) ** q * table_dim(d, t, SHEAF, 0, q) for q in range(bound + 1))
        total += (-1) ** (len(t) - 1) * chi
    return total


class CurveEulerResult(NamedTuple):
    value: int
    dual_complex_euler: int
    genus_sum: int


def snc_curve_euler(genera: Sequence[int], edges: int) -> CurveEulerResult:
    """Euler characteristic of a curve configuration: N - e - sum of genera.

    Assumes any two components meet in at most one point (the caller's
    responsibility).  ``dual_complex_euler`` is N - e, the Euler
    characteristic of the dual graph with N vertices and e edges, taken as
    given rather than computed from a complex; the value is one formula.
    """
    if any(g < 0 for g in genera) or edges < 0:
        raise InvalidInput("genera and edge count must be nonnegative")
    n = len(genera)
    genus_sum = sum(genera)
    return CurveEulerResult(n - edges - genus_sum, n - edges, genus_sum)


def combinatorial_cohomology_check(d: SncDivisor) -> CohomologyReport:
    """When every stratum has vanishing higher cohomology, structure-sheaf
    cohomology is the Betti table of the dual complex; verify and return it.

    This is for divisors whose tables tabulate that vanishing, row by row.
    Toric boundaries never come through here: ``toric.checked_boundary``
    holds the vanishing by construction, and its dual complex is ranked
    by ``simplicial.betti_numbers`` directly.

    Only the hypothesis is verified here: every table row above q = 0
    that ``structure_sheaf_cohomology`` would read, up to the largest
    stratum bound, is 0, explicit rows above a stratum's own bound
    included.  Under it every layer above q = 0 is identically zero, so
    only the q = 0 layer is assembled, and it is
    ``constant_presheaf(delta, 1)`` on the dual complex delta, whose Cech
    complex is ``coboundary_matrix(delta, p)`` entry for entry: identity
    restrictions under the same signs from ``simplicial._faces``.  The assembled totals are
    therefore ``betti_numbers(delta)`` by construction, ranked once; a
    second ranking of the same coboundaries could never disagree.
    """
    top = _max_stratum_bound(d)
    for t in sorted(d.strata):
        for q in range(1, top + 1):
            if table_dim(d, t, SHEAF, 0, q) != 0:
                raise HypothesisViolated(
                    f"stratum {t} has h^{q} = {table_dim(d, t, SHEAF, 0, q)} != 0"
                )
    return _assemble(d, 0, SHEAF, 0)


class RationalityReport(NamedTuple):
    betti: tuple[int, ...]
    scheme_cohomology: tuple[int, ...]
    complement_cohomology: tuple[int, ...]
    inclusion_holds: bool
    claimed_rational: bool
    obstruction_degrees: tuple[int, ...]
    conditional_on: str


DEGENERATION_ASSUMPTION = (
    "second-page degeneration of the column-filtration spectral sequence for "
    "divisors with multiplicities, which is unproven in general"
)


def rational_singularity_check(
    d: SncDivisor,
    claimed_higher_direct_images_zero: bool,
    scheme_h0_presheaf: Presheaf,
    unit: Mapping[Simplex, Sequence],
) -> RationalityReport:
    """Test the combinatorial consequences of rationality on the dual complex.

    Splits the constant subpresheaf out of the degree-0 sections presheaf,
    verifies the dimension inequality b_i <= h^i of the inclusion chain,
    and, when rationality is claimed, flags every positive Betti number in
    positive degree as an obstruction.  The obstruction reading is
    conditional on an unproven degeneration statement and the report says
    so explicitly.  The Betti numbers, the sections' cohomology and the
    complement's are the three lists ``split_constant`` ranks: its
    constant part is ``betti_numbers(delta)``, the cohomology of
    ``constant_presheaf(delta, 1)``, so no complex is ranked twice.
    """
    delta = dual_complex(d)
    if scheme_h0_presheaf.base != delta:
        raise BaseMismatch("the sections presheaf must live on the dual complex of the divisor")
    (scheme, betti, comp), _ = split_constant(scheme_h0_presheaf, unit)
    inclusion = all(b <= s for b, s in zip(betti, scheme))
    obstructions: tuple[int, ...] = ()
    if claimed_higher_direct_images_zero:
        obstructions = tuple(i for i in range(1, len(betti)) if betti[i] > 0)
    return RationalityReport(
        betti=tuple(betti),
        scheme_cohomology=tuple(scheme),
        complement_cohomology=tuple(comp),
        inclusion_holds=inclusion,
        claimed_rational=claimed_higher_direct_images_zero,
        obstruction_degrees=obstructions,
        conditional_on=DEGENERATION_ASSUMPTION,
    )
