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
sections, explicit divisor tables); it checks shapes and then
functoriality.  ``constant_presheaf``, the zero presheaf, ``direct_sum`` and
the quotient of ``split_constant`` are functorial by construction, as their
docstrings say, and are not checked again.  ``cech_complex`` only assembles
matrices, and d.d = 0 is not checked a second time: it follows from
functoriality.  A ``Presheaf`` built directly, around ``make_presheaf``,
is the caller's to vouch for.  ``CochainComplex``, defined in
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

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import exactla
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


@dataclass(frozen=True)
class Presheaf:
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
    """Raise unless all two-step restriction composites are path independent."""
    for rho in sorted(v.base.simplices):
        if len(rho) < 3:
            continue
        faces = [tau for tau, _ in _faces(rho)]
        for x, tau_x in enumerate(faces):
            for tau_y in faces[x + 1 :]:
                # tau_y omits a vertex after x, so its face x omits x as well
                sigma = _faces(tau_y)[x][0]
                via_x = v.restrictions[(tau_x, rho)] @ v.restrictions[(sigma, tau_x)]
                via_y = v.restrictions[(tau_y, rho)] @ v.restrictions[(sigma, tau_y)]
                if via_x != via_y:
                    raise FunctorialityViolation(
                        f"restriction composites {sigma} -> {rho} disagree"
                    )


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
    entered, or true by construction.
    """
    base = v.base
    top = base.dim
    if top < 0:
        return CochainComplex((), ())
    levels = [base.p_simplices(p) for p in range(top + 1)]
    level_dims = [[v.dim(s) for s in level] for level in levels]
    differentials = []
    for p in range(top):
        index = {s: i for i, s in enumerate(levels[p])}
        blocks: dict[tuple[int, int], RationalMatrix] = {}
        for ti, tau in enumerate(levels[p + 1]):
            for sigma, sign in _faces(tau):
                mat = v.restrictions[(sigma, tau)]
                blocks[(ti, index[sigma])] = mat if sign > 0 else mat.scaled(-1)
        differentials.append(exactla.block_matrix(level_dims[p + 1], level_dims[p], blocks))
    return CochainComplex(tuple(sum(d) for d in level_dims), tuple(differentials))


def presheaf_cohomology(v: Presheaf) -> list[int]:
    return cech_complex(v).cohomology()


def direct_sum(v: Presheaf, w: Presheaf) -> Presheaf:
    """Stalkwise direct sum with block-diagonal restrictions.

    Functorial when v and w are: a composite of block-diagonal maps is the
    block-diagonal map of the two summands' composites.
    """
    if v.base != w.base:
        raise BaseMismatch("direct sum requires a common base complex")
    dims = {s: v.dim(s) + w.dim(s) for s in v.base.simplices}
    restrictions = {}
    for pair in v.base.face_pairs:
        sigma, tau = pair
        restrictions[pair] = exactla.block_matrix(
            [v.dim(tau), w.dim(tau)],
            [v.dim(sigma), w.dim(sigma)],
            {(0, 0): v.restrictions[pair], (1, 1): w.restrictions[pair]},
        )
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
    return RationalMatrix.column(vec)


def split_constant(v: Presheaf, unit: Mapping[Simplex, Sequence]) -> tuple[tuple[list[int], ...], Presheaf]:
    """Split off the rank-1 constant subpresheaf spanned by a compatible section.

    Returns ((total, constant, complement), quotient): the quotient
    presheaf has every dimension reduced by one, and the three lists are
    the cohomology of v, of ``constant_presheaf(v.base, 1)`` (the Betti
    numbers of the base) and of the quotient.  The split is only
    legitimate when cohomology is additive across it, and that identity
    is verified here by direct computation; inputs whose extension does
    not split are rejected rather than silently mis-reported.

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
        embeddings[s] = RationalMatrix.from_entries(d, d - 1, {(j, k): 1 for k, j in enumerate(others)})
        projections[s] = RationalMatrix.from_entries(d - 1, d, {
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
    constant_part = presheaf_cohomology(constant_presheaf(base, 1))
    complement = presheaf_cohomology(quotient)
    expected = [a + b for a, b in zip(constant_part, complement)]
    if total != expected:
        raise NonSplitExtension(
            "cohomology is not additive across the unit section: "
            f"total {total}, constant {constant_part}, complement {complement}"
        )
    return (total, constant_part, complement), quotient
