"""Minimal smooth-fan calculus.

Just enough convex geometry to read off the dual complex of the
torus-invariant boundary of a smooth fan: rays become vertices, and a set
of rays cuts out a nonempty stratum exactly when it spans a cone.  Every
stratum is a smooth toric variety without higher structure-sheaf
cohomology, so the boundary's cohomology is the Betti numbers of that
complex; no stratum tables are written.  A fan is kept as its maximal
cones, and no face closure is built: the dual complex is enumerated once,
from the selected part of each maximal cone.  Each maximal cone is
decided once from its rays as sparse integer rows, a full-dimensional one
by their determinant and a smaller one by their Smith normal form, with
no matrix built.  ``checked_boundary`` is the one path from a fan and a
selection to the dual complex: it runs the completeness test and refuses
a selected ray whose stratum is visibly not complete, through a maximal
cone that is not full-dimensional or a facet of one full-dimensional
cone (``check_complete_strata``).  No polytopes, no ampleness;
projectivity is asserted by the caller.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations, groupby
from math import gcd
from typing import NamedTuple

from . import exactla
from .errors import InvalidInput, NecessaryConditionFailed, NotSmooth
from .simplicial import SimplicialComplex, from_facets
# combinatorial_cohomology_check is unused here; perfbench/spans.py traces it as a name bound in this module
from .snc import combinatorial_cohomology_check  # noqa: F401

CERTIFIED = "certified"
UNCERTIFIED = "uncertified (necessary conditions passed)"


class Fan(NamedTuple):
    """A simplicial fan, given by its maximal cones.

    The cones of the fan are the faces of the cones in ``maximal``: the
    nonempty cones that are faces of no other cone, sorted by their
    ascending ray lists.  ``smooth`` records whether the rays of each of
    them extend to a basis of the lattice: a determinant of +-1 for a cone
    with as many rays as the dimension, maximal minors of gcd 1 for a
    smaller one.  A face of a unimodular cone is unimodular, so that is
    smoothness of the whole fan.  ``make_fan`` fills both in.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    maximal: tuple[frozenset[int], ...]
    smooth: bool


def _is_primitive(vector: tuple[int, ...]) -> bool:
    g = 0
    for x in vector:
        g = gcd(g, abs(x))
    return g == 1


def _maximal(cones: list[frozenset[int]]) -> list[frozenset[int]]:
    """The nonempty listed cones that lie strictly inside no other listed cone, sorted.

    Taken largest first, a cone inside another lies inside a maximal one
    already kept.  Only a cone with more rays can hold it strictly, and
    those are the cones kept before its size came up, so a cone is
    compared with them alone: a fan whose maximal cones all have one size
    costs no subset test.
    """
    kept: list[frozenset[int]] = []
    for _, same_size in groupby(sorted(set(cones), key=len, reverse=True), key=len):
        larger = tuple(kept)
        kept += [cone for cone in same_size if cone and not any(cone < other for other in larger)]
    return sorted(kept, key=sorted)


def make_fan(dim: int, rays, cones) -> Fan:
    """Validate rays and cones, keep the maximal cones and decide smoothness.

    The fan is the listed cones and their faces.  Every ray must occur in
    some cone, and every cone must be simplicial (linearly independent
    rays).  The maximal cones are read off the listed ones, and each is
    decided once; faces inherit both verdicts.  Each ray is held once as a
    sparse row, its nonzero coordinates, and a cone hands copies of its
    rays' rows to one elimination.  A cone with ``dim`` rays takes one
    determinant, ``exactla._determinant``: 0 means not simplicial and +-1
    unimodular.  A smaller cone takes one Smith normal form,
    ``exactla._smith_factors``, since its unimodularity is a gcd of
    minors: as many invariant factors as rays means simplicial, all of
    them 1 unimodular.  No face of a cone is ever enumerated here.
    """
    if dim < 0:
        raise InvalidInput("fan dimension must be nonnegative")
    ray_tuples = []
    for i, ray in enumerate(rays):
        ray = tuple(int(x) for x in ray)
        if len(ray) != dim:
            raise InvalidInput(f"ray {i} has {len(ray)} coordinates, expected {dim}")
        if all(x == 0 for x in ray):
            raise InvalidInput(f"ray {i} is zero")
        if not _is_primitive(ray):
            raise InvalidInput(f"ray {i} = {ray} is not primitive")
        ray_tuples.append(ray)
    if len(set(ray_tuples)) != len(ray_tuples):
        raise InvalidInput("duplicate rays")
    listed = [frozenset(cone) for cone in cones]
    for cone in listed:
        if any(not (0 <= i < len(ray_tuples)) for i in cone):
            raise InvalidInput(f"cone {sorted(cone)} references an unknown ray")
    used = set().union(*listed)
    for i in range(len(ray_tuples)):
        if i not in used:
            raise InvalidInput(f"ray {i} does not occur in any cone")
    maximal = _maximal(listed)
    sparse = [{j: x for j, x in enumerate(ray) if x} for ray in ray_tuples]
    smooth = True
    for cone in maximal:
        if len(cone) > dim:
            raise InvalidInput(f"cone {sorted(cone)} has more rays than the ambient dimension")
        if len(cone) == dim:
            det = exactla._determinant([sparse[i].copy() for i in cone])
            simplicial, unimodular = det != 0, abs(det) == 1
        else:
            factors = exactla._smith_factors({i: sparse[i].copy() for i in cone})
            simplicial, unimodular = len(factors) == len(cone), all(d == 1 for d in factors)
        if not simplicial:
            raise InvalidInput(f"cone {sorted(cone)} is not simplicial")
        smooth = smooth and unimodular
    return Fan(dim, tuple(ray_tuples), tuple(maximal), smooth)


def _cross(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _angular_compare(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    def half(w):
        x, y = w
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return hu - hv
    return -_cross(u, v)


def _facet_owners(top: list[frozenset[int]]) -> dict[frozenset[int], list[int]]:
    """Each facet of the given full-dimensional cones, with the positions in ``top`` of the cones it lies in."""
    owners: dict[frozenset[int], list[int]] = {}
    for k, c in enumerate(top):
        for i in c:
            owners.setdefault(c - {i}, []).append(k)
    return owners


def completeness_certificate(f: Fan) -> str:
    """Exact completeness check in dimension <= 2, necessary conditions above.

    In dimension at least 3 only a partial test runs: every codimension-1
    cone must lie in exactly two full-dimensional cones, those must form
    a connected adjacency graph, and no maximal cone may have fewer than
    n - 1 rays, since every cone of a complete fan lies in a
    full-dimensional one.  Passing yields "uncertified", not a
    certificate; a failure names the offending cone that is smallest by
    its sorted ray list, a codimension-1 one before a maximal one with
    fewer rays.  The codimension-1 cones are the facets of the full-dimensional
    cones and the maximal cones with n - 1 rays, since a cone with n - 1
    rays is either maximal or a facet of a cone with n.
    """
    n = f.dim
    if n == 0:
        return CERTIFIED
    if n == 1:
        directions = {r[0] > 0 for r in f.rays}
        if directions == {True, False}:
            return CERTIFIED
        raise NecessaryConditionFailed("rays do not cover both directions of the line")
    if n == 2:
        order = sorted(range(len(f.rays)), key=cmp_to_key(lambda a, b: _angular_compare(f.rays[a], f.rays[b])))
        # a cone has at most 2 rays here, so every 2-ray cone is maximal
        two_cones = {c for c in f.maximal if len(c) == 2}
        consecutive = set()
        for k, i in enumerate(order):
            j = order[(k + 1) % len(order)]
            pair = frozenset({i, j})
            if _cross(f.rays[i], f.rays[j]) <= 0:
                raise NecessaryConditionFailed(
                    f"rays {i} and {j} leave an angular gap of at least a half plane"
                )
            if pair not in two_cones:
                raise NecessaryConditionFailed(
                    f"consecutive rays {i} and {j} span no cone of the fan"
                )
            consecutive.add(pair)
        extra = two_cones - consecutive
        if extra:
            bad = sorted(sorted(c) for c in extra)[0]
            raise NecessaryConditionFailed(f"cone {bad} overlaps its neighbors")
        return CERTIFIED
    # a cone has at most n rays, so the full-dimensional ones are maximal
    top = [c for c in f.maximal if len(c) == n]
    if not top:
        raise NecessaryConditionFailed("no full-dimensional cones")
    owners = _facet_owners(top)
    counts = {facet: len(k) for facet, k in owners.items()}
    counts.update((c, 0) for c in f.maximal if len(c) == n - 1)
    bad = min(((sorted(c), count) for c, count in counts.items() if count != 2), default=None)
    if bad is not None:
        raise NecessaryConditionFailed(f"codimension-1 cone {bad[0]} lies in {bad[1]} full cones, expected 2")
    # two full cones are adjacent exactly when they share a facet
    seen = {0}
    queue = [0]
    while queue:
        c = top[queue.pop()]
        for i in c:
            for k in owners[c - {i}]:
                if k not in seen:
                    seen.add(k)
                    queue.append(k)
    if len(seen) != len(top):
        raise NecessaryConditionFailed("full-dimensional cones are not connected through facets")
    # a maximal cone with n - 1 rays has failed the count above
    stray = min((sorted(c) for c in f.maximal if len(c) < n - 1), default=None)
    if stray is not None:
        raise NecessaryConditionFailed(f"cone {stray} lies in no full-dimensional cone")
    return UNCERTIFIED


def check_complete_strata(f: Fan, selected_rays) -> None:
    """Refuse a selected ray whose stratum V(rho) is not complete.

    V(rho) contains V(sigma) as a closed subvariety for every cone sigma
    that contains rho, and a closed subvariety of a complete variety is
    complete.  V(sigma) is a torus of positive dimension when sigma is a
    maximal cone with fewer than n rays, and an affine line when sigma is
    a facet of exactly one full-dimensional cone; either way V(rho) is not
    complete, and the constant h^0 = 1 that reading the boundary's
    cohomology off the Betti numbers assumes for it is wrong.  The refusal
    names the smallest such ray and, for it, the smallest such cone by its
    sorted ray list.  A fan that passes ``completeness_certificate`` has
    neither kind of cone, so ``checked_boundary`` runs this only when the
    certificate fails.
    """
    n = f.dim
    selected = set(selected_rays)
    owners = _facet_owners([c for c in f.maximal if len(c) == n])
    bad = [(c, f"is maximal with fewer than {n} rays") for c in f.maximal if len(c) < n]
    bad += [(c, "is a facet of only one full-dimensional cone") for c, k in owners.items() if len(k) == 1]
    found = min(((ray, sorted(c), why) for c, why in bad for ray in c & selected), default=None)
    if found is not None:
        ray, cone, why = found
        raise InvalidInput(f"the stratum of ray {ray} is not complete: cone {cone} {why}")


def projective_space_fan(n: int) -> Fan:
    """Standard basis rays plus their negative sum; cones are all proper subsets."""
    if n < 1:
        raise InvalidInput("projective space fan needs n >= 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [c for k in range(n + 1) for c in combinations(range(n + 1), k)]
    return make_fan(n, rays, cones)


def boundary_complex(f: Fan, selected_rays) -> SimplicialComplex:
    """Dual complex of the boundary components of the selected rays.

    Vertex k is the k-th selected ray in ascending order, and a vertex set
    is a simplex exactly when its rays span a cone.  Those are the faces of
    the sets M & selected over the maximal cones M, which ``from_facets``
    enumerates once: a cone inside the selection is a face of some maximal
    M, so it is a face of M & selected; and every subset of M & selected is
    a face of M, so it is a cone.
    """
    if not f.smooth:
        raise NotSmooth("boundary components of a singular fan are not handled")
    selected = sorted(set(selected_rays))
    if not selected:
        raise InvalidInput("select at least one ray")
    if any(not (0 <= i < len(f.rays)) for i in selected):
        raise InvalidInput("selected ray index out of range")
    position = {ray: k for k, ray in enumerate(selected)}
    facets = {tuple(position[i] for i in sorted(cone) if i in position) for cone in f.maximal}
    facets.discard(())
    return from_facets(len(selected), facets)


def checked_boundary(f: Fan, selected_rays) -> tuple[str, SimplicialComplex]:
    """The completeness verdict and the dual complex of the selected rays' boundary.

    Every stratum V(sigma) is a toric variety with H^q(O) = 0 for q > 0
    (Demazure vanishing), so only the row q = 0 survives, and it is the
    cohomology of the constant presheaf on the dual complex: the boundary's
    structure-sheaf cohomology is ``betti_numbers`` of the complex returned.
    The constant h^0 = 1 needs every selected stratum complete.  The
    verdict is ``completeness_certificate``'s, or "failed: <reason>"; then,
    after ``boundary_complex`` has validated the selection,
    ``check_complete_strata`` refuses a selected ray whose stratum is not
    complete.  A passing certificate rules out both kinds of cone it looks
    for, so a complete fan pays nothing more.
    """
    try:
        certificate = completeness_certificate(f)
    except NecessaryConditionFailed as exc:
        certificate = f"failed: {exc}"
    delta = boundary_complex(f, selected_rays)
    if certificate not in (CERTIFIED, UNCERTIFIED):
        check_complete_strata(f, selected_rays)
    return certificate, delta
