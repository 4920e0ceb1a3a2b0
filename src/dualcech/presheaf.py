"""Covariant presheaves of finite-dimensional vector spaces on a simplicial complex.

A presheaf assigns a dimension to every simplex and a restriction matrix
to every codimension-1 face inclusion; restrictions point from smaller
simplices to larger ones.  Deeper restrictions are composites, and their
path independence (functoriality) is exactly what makes the Cech
differential square to zero: the block of d.d from a face sigma to a
simplex rho two dimensions up is +-(via_x - via_y), the difference of the
two composites through the faces between them.

Each check runs once, where the data enters.  ``make_presheaf`` is the one
door for caller-supplied restrictions (presheaf documents, rational-check
sections, divisor tables, explicit or ``"constant"``); it checks shapes and
then functoriality, as d.d = 0 on the Cech complex
(``check_functoriality``), by the ``CochainComplex.square_defects`` that
``bicomplex.make_bicomplex`` also uses.  ``constant_presheaf``, the zero
presheaf, ``direct_sum`` and the quotient of ``split_constant`` are
functorial by construction, as their docstrings say, and are not checked
again.  ``cech_complex`` only assembles matrices, and d.d = 0 is not
checked a second time.  It and ``direct_sum`` hand their blocks to the block
writer of ``exactla``, ``RationalMatrix._placed``, and read no matrix's
numerators themselves.  A ``Presheaf`` built directly, around
``make_presheaf``, is the caller's to vouch for.  ``CochainComplex``, defined in
``simplicial`` and re-exported here, ranks the differentials in the one
cleared reduction of ``exactla``.

The cells and faces come from ``simplicial``: the summands of each
cochain group follow the level of the base complex, the lexicographic
order of its simplices, each block of a differential carries the sign of
its face from ``simplicial._faces``, and every builder visits the
restrictions in the order of ``SimplicialComplex.face_pairs``.  So all
matrices here, and the first refused restriction, are reproducible.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from . import exactla, simplicial
from .errors import (
    BaseMismatch,
    FunctorialityViolation,
    IncompatibleSection,
    NonSplitExtension,
    ShapeMismatch,
    UnderdeterminedRestrictions,
    ZeroSection,
)
from .exactla import RationalMatrix
from .simplicial import CochainComplex, Simplex, SimplicialComplex, _faces  # CochainComplex re-exported


class Presheaf(NamedTuple):
    base: SimplicialComplex
    dims: Mapping[Simplex, int]
    restrictions: Mapping[tuple[Simplex, Simplex], RationalMatrix]

    def dim(self, s: Simplex) -> int:
        return self.dims.get(s, 0)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())


def make_presheaf(
    base: SimplicialComplex,
    dims: Mapping[Simplex, int],
    restrictions: Mapping[tuple[Simplex, Simplex], RationalMatrix] | None = None,
) -> Presheaf:
    """Validate and normalize presheaf data.

    Simplices missing from ``dims`` get dimension 0.  Restrictions into or
    out of a zero space are filled in as zero matrices; every other
    codimension-1 restriction must be supplied.  The result is checked for
    functoriality before it is returned.
    """
    full_dims: dict[Simplex, int] = {}
    for s in base.simplices:
        d = dims.get(s, 0)
        if d < 0:
            raise ShapeMismatch(f"negative dimension {d} at simplex {s}")
        full_dims[s] = d
    for s in dims:
        if s not in base.simplices:
            raise ShapeMismatch(f"dimension given for {s}, which is not in the base complex")
    restrictions = dict(restrictions or {})
    full_restrictions: dict[tuple[Simplex, Simplex], RationalMatrix] = {}
    for sigma, tau in base.face_pairs:
        ds, dt = full_dims[sigma], full_dims[tau]
        given = restrictions.pop((sigma, tau), None)
        if given is None:
            if ds == 0 or dt == 0:
                full_restrictions[(sigma, tau)] = RationalMatrix.zeros(dt, ds)
            else:
                raise UnderdeterminedRestrictions(
                    f"no restriction matrix for {sigma} -> {tau} (dims {ds} -> {dt})"
                )
        else:
            if given.rows != dt or given.cols != ds:
                raise ShapeMismatch(
                    f"restriction {sigma} -> {tau} is {given.rows}x{given.cols}, "
                    f"expected {dt}x{ds}"
                )
            full_restrictions[(sigma, tau)] = given
    if restrictions:
        key = next(iter(restrictions))
        raise ShapeMismatch(f"restriction given for {key}, which is not a codimension-1 inclusion")
    v = Presheaf(base, full_dims, full_restrictions)
    check_functoriality(v)
    return v


def check_functoriality(v: Presheaf) -> None:
    """Raise unless all two-step restriction composites are path independent.

    Checked as d.d = 0 on the Cech complex, by ``square_defects``, one
    product per degree.  A simplex rho and a face sigma of codimension 2,
    rho without its vertices at positions x < y, have exactly two faces
    between them: tau_x, rho without position x, and tau_y.  sigma is
    face y - 1 of tau_x and tau_x face x of rho; sigma is face x of tau_y
    and tau_y face y of rho.  So the block of d.d from sigma to rho is
    (-1)^(x+y) (via_y - via_x), with via_x = R(tau_x, rho) R(sigma, tau_x),
    and it is zero exactly when the two composites agree.  Each pair has
    its own rows and columns, so the nonzero entries of d.d lie in the
    blocks of the broken pairs.  The one refused is the first by rho in
    lexicographic order, then by (x, y).
    """
    if broken := cech_complex(v).square_defects():
        # cells[p][k]: the simplex of the k-th basis vector of degree p
        cells = [[s for s in v.base.p_simplices(p) for _ in range(v.dim(s))] for p in range(v.base.dim + 1)]
        pairs = {(cells[m + 2][i], cells[m][j]) for m, i, j in broken}
        # by rho, then the positions (x, y) of rho that sigma omits
        rho, _, sigma = min((rho, [k for k, w in enumerate(rho) if w not in sigma], sigma) for rho, sigma in pairs)
        raise FunctorialityViolation(f"restriction composites {sigma} -> {rho} disagree")


def constant_presheaf(base: SimplicialComplex, d: int) -> Presheaf:
    """Every simplex gets dimension d with identity restrictions.

    Functorial by construction: every composite is the identity.  With
    d = 0 this is the zero presheaf, whose composites are 0x0.
    """
    ident = RationalMatrix.identity(d)
    dims = {s: d for s in base.simplices}
    restrictions = {pair: ident for pair in base.face_pairs}
    return Presheaf(base, dims, restrictions)


def cech_complex(v: Presheaf) -> CochainComplex:
    """Block cochain complex of a presheaf with the alternating-sign differential.

    Only assembles matrices.  The differential squares to zero because v
    is functorial: checked by ``make_presheaf`` where the restrictions
    entered, or true by construction.  Each restriction, signed by its
    face, is a block of ``RationalMatrix._placed`` at the offsets of its
    two simplices.  A restriction of the wrong shape raises
    ``ShapeMismatch``, so the blocks fit; two blocks of one degree never
    meet, since each pair of simplices has its own rows and columns.
    """
    base = v.base
    top = base.dim
    if top < 0:
        return CochainComplex((), ())
    levels = [base.p_simplices(p) for p in range(top + 1)]
    level_dims = [[v.dim(s) for s in level] for level in levels]
    # offsets[p][k]: the index of the first basis vector of the k-th p-simplex
    offsets = [list(accumulate(dims, initial=0)) for dims in level_dims]
    differentials = []
    for p in range(top):
        index = {s: i for i, s in enumerate(levels[p])}
        blocks = []
        for ti, tau in enumerate(levels[p + 1]):
            for sigma, sign in _faces(tau):
                si, mat = index[sigma], v.restrictions[(sigma, tau)]
                rows, cols = level_dims[p + 1][ti], level_dims[p][si]
                if mat.rows != rows or mat.cols != cols:
                    raise ShapeMismatch(f"block ({ti},{si}) is {mat.rows}x{mat.cols}, expected {rows}x{cols}")
                blocks.append((offsets[p + 1][ti], offsets[p][si], sign, mat))
        differentials.append(RationalMatrix._placed(offsets[p + 1][-1], offsets[p][-1], blocks))
    return CochainComplex(tuple(o[-1] for o in offsets), tuple(differentials))


def presheaf_cohomology(v: Presheaf) -> list[int]:
    return cech_complex(v).cohomology()


def direct_sum(v: Presheaf, w: Presheaf) -> Presheaf:
    """Stalkwise direct sum with block-diagonal restrictions.

    Functorial when v and w are: a composite of block-diagonal maps is the
    block-diagonal map of the two summands' composites.  Each restriction
    is v's block with w's block below and right of it, written by
    ``RationalMatrix._placed``.
    """
    if v.base != w.base:
        raise BaseMismatch("direct sum requires a common base complex")
    dims = {s: v.dim(s) + w.dim(s) for s in v.base.simplices}
    restrictions = {}
    for pair in v.base.face_pairs:
        a, b = v.restrictions[pair], w.restrictions[pair]
        restrictions[pair] = RationalMatrix._placed(a.rows + b.rows, a.cols + b.cols, [(0, 0, 1, a), (a.rows, a.cols, 1, b)])
    return Presheaf(v.base, dims, restrictions)


def _unit_column(v: Presheaf, unit: Mapping[Simplex, Sequence], s: Simplex) -> RationalMatrix:
    if s not in unit:
        raise IncompatibleSection(f"no unit vector for simplex {s}")
    vec = [exactla.as_fraction(x) for x in unit[s]]
    if len(vec) != v.dim(s):
        raise ShapeMismatch(
            f"unit vector at {s} has length {len(vec)}, expected {v.dim(s)}"
        )
    if all(x == 0 for x in vec):
        raise ZeroSection(f"unit vector at {s} is zero")
    return RationalMatrix(len(vec), 1, {(i, 0): x for i, x in enumerate(vec)})


def split_constant(v: Presheaf, unit: Mapping[Simplex, Sequence]) -> tuple[tuple[list[int], ...], Presheaf]:
    """Split off the rank-1 constant subpresheaf spanned by a compatible section.

    Returns ((total, constant, complement), quotient): the quotient
    presheaf has every dimension reduced by one, and the three lists are
    the cohomology of v, the Betti numbers of the base and the cohomology
    of the quotient.  The Betti numbers are the cohomology of
    ``constant_presheaf(v.base, 1)``, and are read as
    ``simplicial.betti_numbers(v.base)``.  The split is only legitimate
    when cohomology is additive across it, and that identity is verified
    here by direct computation; inputs whose extension does not split are
    rejected rather than silently mis-reported.

    The quotient is functorial by construction whenever v is.  Its
    restriction sigma -> tau is P_tau R_{sigma,tau} E_sigma, where E embeds
    a complement of the unit vector u and P projects along u, so
    E_tau P_tau = I - u_tau pi_tau and P_rho u_rho = 0.  The section is
    checked compatible (R_{tau,rho} u_tau = u_rho) before anything else, so
    the composite sigma -> tau -> rho is
    P_rho R_{tau,rho} (I - u_tau pi_tau) R_{sigma,tau} E_sigma
    = P_rho R_{tau,rho} R_{sigma,tau} E_sigma.  v itself is not checked
    again: it came through ``make_presheaf`` or is one of this module's
    constructions, functorial by construction.

    With ``lead`` the first nonzero coordinate of u, E embeds the other
    coordinates and P x = (x_j - (x_lead / u_lead) u_j) for j != lead,
    the coordinates off ``lead`` of x - (x_lead / u_lead) u; so P u = 0
    and P E = I.
    """
    base = v.base
    units = {s: _unit_column(v, unit, s) for s in sorted(base.simplices)}
    for (sigma, tau), mat in v.restrictions.items():
        if mat @ units[sigma] != units[tau]:
            raise IncompatibleSection(
                f"restriction {sigma} -> {tau} does not carry the unit section to itself"
            )
    embeddings: dict[Simplex, RationalMatrix] = {}
    projections: dict[Simplex, RationalMatrix] = {}
    for s, u in units.items():
        d = v.dim(s)
        lead = min(i for i in range(d) if u.entry(i, 0) != 0)
        others = [j for j in range(d) if j != lead]
        embeddings[s] = RationalMatrix(d, d - 1, {(j, k): 1 for k, j in enumerate(others)})
        projections[s] = RationalMatrix(d - 1, d, {
            **{(k, j): 1 for k, j in enumerate(others)},
            **{(k, lead): -u.entry(j, 0) / u.entry(lead, 0) for k, j in enumerate(others)},
        })
    q_dims = {s: v.dim(s) - 1 for s in base.simplices}
    q_restrictions = {
        pair: projections[pair[1]] @ v.restrictions[pair] @ embeddings[pair[0]]
        for pair in base.face_pairs
    }
    quotient = Presheaf(base, q_dims, q_restrictions)
    total = presheaf_cohomology(v)
    constant_part = simplicial.betti_numbers(base)
    complement = presheaf_cohomology(quotient)
    expected = [a + b for a, b in zip(constant_part, complement)]
    if total != expected:
        raise NonSplitExtension(
            "cohomology is not additive across the unit section: "
            f"total {total}, constant {constant_part}, complement {complement}"
        )
    return (total, constant_part, complement), quotient
