import json
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from dualcech import cli, simplicial, snc, toric
from dualcech.errors import InvalidInput, NecessaryConditionFailed, NotSmooth
from dualcech.toric import CERTIFIED, UNCERTIFIED

from helpers import (
    disguised_rays,
    oracle_betti,
    oracle_boundary_complex,
    oracle_boundary_divisor,
    oracle_cone_closure,
    oracle_facet_certificate,
    oracle_minor_gcd,
)


def p1xp1_fan():
    return toric.make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_projective_fan_shapes():
    f1 = toric.projective_space_fan(1)
    assert len(f1.rays) == 2
    assert len([c for c in oracle_cone_closure(f1.maximal) if len(c) == 1]) == 2
    f2 = toric.projective_space_fan(2)
    assert len(f2.rays) == 3
    assert len([c for c in oracle_cone_closure(f2.maximal) if len(c) == 2]) == 3
    f3 = toric.projective_space_fan(3)
    assert len(f3.rays) == 4
    assert len([c for c in oracle_cone_closure(f3.maximal) if len(c) == 3]) == 4


def test_smoothness():
    assert toric.projective_space_fan(2).smooth
    singular = toric.make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
    assert not singular.smooth
    single_ray = toric.make_fan(2, [(1, 0)], [(0,)])
    assert single_ray.smooth
    # determinant 1 with no +-1 entry: no unit pivot, the residual decides
    assert toric.make_fan(2, [(2, 3), (3, 5)], [(0, 1)]).smooth
    trivial = toric.make_fan(2, [], [])
    assert trivial.smooth


def test_make_fan_rejects_bad_rays():
    with pytest.raises(InvalidInput):
        toric.make_fan(2, [(2, 4)], [(0,)])  # not primitive
    with pytest.raises(InvalidInput):
        toric.make_fan(2, [(0, 0)], [(0,)])
    with pytest.raises(InvalidInput):
        toric.make_fan(2, [(1, 0), (0, 1)], [(0,)])  # ray 1 in no cone
    with pytest.raises(InvalidInput):
        toric.make_fan(2, [(1, 0), (-1, 0)], [(0, 1)])  # dependent rays


def test_completeness_certificates():
    assert toric.completeness_certificate(toric.projective_space_fan(1)) == CERTIFIED
    assert toric.completeness_certificate(toric.projective_space_fan(2)) == CERTIFIED
    assert toric.completeness_certificate(p1xp1_fan()) == CERTIFIED
    assert toric.completeness_certificate(toric.projective_space_fan(3)) == UNCERTIFIED


def test_completeness_failures():
    half = toric.make_fan(1, [(1,)], [(0,)])
    with pytest.raises(NecessaryConditionFailed):
        toric.completeness_certificate(half)
    wedge = toric.make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NecessaryConditionFailed):
        toric.completeness_certificate(wedge)
    affine3 = toric.make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    with pytest.raises(NecessaryConditionFailed):
        toric.completeness_certificate(affine3)


def test_boundary_complex_p2():
    f = toric.projective_space_fan(2)
    delta = toric.boundary_complex(f, [0, 1, 2])
    assert delta.simplices == frozenset({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)})
    assert simplicial.betti_numbers(delta) == [1, 1]


def test_boundary_complex_p1xp1_is_four_cycle():
    delta = toric.boundary_complex(p1xp1_fan(), [0, 1, 2, 3])
    edges = {s for s in delta.simplices if len(s) == 2}
    assert edges == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_boundary_complex_single_ray():
    delta = toric.boundary_complex(toric.projective_space_fan(2), [1])
    assert delta.simplices == frozenset({(0,)})
    assert simplicial.betti_numbers(delta) == [1]


def test_boundary_complex_rejects_singular_fan():
    singular = toric.make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
    with pytest.raises(NotSmooth):
        toric.boundary_complex(singular, [0, 1])


def test_boundary_complex_rejects_empty_selection():
    with pytest.raises(InvalidInput):
        toric.boundary_complex(toric.projective_space_fan(2), [])


def boundary_betti(f, selected):
    """The Betti numbers of the dual complex ``checked_boundary`` returns: the boundary's cohomology."""
    return simplicial.betti_numbers(toric.checked_boundary(f, selected)[1])


def test_toric_cohomology_spheres():
    for n in range(2, 7):
        f = toric.projective_space_fan(n)
        assert boundary_betti(f, range(len(f.rays))) == [1] + [0] * (n - 2) + [1]
        # the dual complex is the boundary of the n-simplex
        full = tuple(range(n + 1))
        expected = simplicial.from_facets(n + 1, [full[:k] + full[k + 1 :] for k in range(n + 1)])
        assert toric.boundary_complex(f, range(len(f.rays))) == expected


def test_toric_cohomology_p1xp1():
    assert boundary_betti(p1xp1_fan(), [0, 1, 2, 3]) == [1, 1]


def test_toric_cohomology_two_disjoint_rays():
    assert boundary_betti(p1xp1_fan(), [0, 2]) == [2]


def test_boundary_euler_identity():
    for fan, selected in [
        (toric.projective_space_fan(2), [0, 1, 2]),
        (toric.projective_space_fan(3), [0, 1, 2, 3]),
        (toric.projective_space_fan(4), [0, 2, 4]),
        (p1xp1_fan(), [0, 1, 2, 3]),
        (p1xp1_fan(), [0, 1]),
    ]:
        delta = toric.boundary_complex(fan, selected)
        totals = boundary_betti(fan, selected)
        assert sum((-1) ** k * b for k, b in enumerate(totals)) == simplicial.euler_characteristic(delta)


def test_boundary_strata_downward_closed():
    # faces of cones are cones, so every face of a simplex is a simplex
    for n in (2, 3, 4):
        f = toric.projective_space_fan(n)
        delta = toric.boundary_complex(f, range(len(f.rays)))
        assert delta.vertex_count == n + 1
        for s in delta.simplices:
            assert all(face in delta.simplices for face, _ in simplicial._faces(s))


def oracle_fan_verdict(dim, rays, cones) -> tuple[bool, bool]:
    """(make_fan accepts, fan is smooth), from the k x k minor gcds of every face.

    A face with k rays is simplicial iff the gcd is nonzero (none exist
    when k > dim) and unimodular iff it is 1.  No Smith normal form.
    """
    faces = {f for c in cones for k in range(1, len(c) + 1) for f in combinations(sorted(c), k)}
    gcds = [oracle_minor_gcd([rays[i] for i in f], len(f)) for f in faces]
    accepted = all(g != 0 for g in gcds)
    return accepted, accepted and all(g == 1 for g in gcds)


def _projective_space(n):
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    return n, rays, [list(c) for c in combinations(range(n + 1), n)]


def _p1_power(k):
    rays = []
    for i in range(k):
        rays += [[1 if j == i else 0 for j in range(k)], [-1 if j == i else 0 for j in range(k)]]
    return k, rays, [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=k)]


ORACLE_FANS = [
    *(_projective_space(n) for n in range(1, 5)),
    *(_p1_power(k) for k in range(1, 4)),
    # the only singular cone is a lower-dimensional maximal one (minor gcd 2)
    # beside a smooth full-dimensional cone
    (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [-1, 1, 0]], [[0, 1, 2], [3, 4]]),
    # a non-simplicial maximal cone: three rays in a plane, full or lower dimensional
    (3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2]]),
    (
        4,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0], [-1, -1, 0, 0]],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
    # more rays than the ambient dimension
    (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1, 2]]),
    # full-dimensional simplicial cones that are not unimodular: the fan of
    # P(1,1,2), whose cone [0, 2] has determinant 2, and one 3-cone of determinant 3
    (2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]]),
    (3, [[1, 0, 0], [0, 1, 0], [1, 1, 3]], [[0, 1, 2]]),
]


@pytest.mark.parametrize("seed", range(3))
def test_maximal_cone_checks_match_minor_gcd_oracle(seed):
    rng = random.Random(seed)
    for dim, rays, cones in ORACLE_FANS:
        rays = disguised_rays(rng, rays)
        accepted, smooth = oracle_fan_verdict(dim, rays, cones)
        if not accepted:
            with pytest.raises(InvalidInput):
                toric.make_fan(dim, rays, cones)
            continue
        assert toric.make_fan(dim, rays, cones).smooth == smooth, (dim, rays, cones)


def test_make_fan_records_the_maximal_cones_of_the_closure():
    # a listed face closure, and cones listed twice or unsorted
    shapes = [(f.dim, f.rays, oracle_cone_closure(f.maximal)) for f in (toric.projective_space_fan(3), p1xp1_fan())]
    shapes += [(dim, rays, [*cones, cones[0][::-1]]) for dim, rays, cones in ORACLE_FANS]
    for dim, rays, cones in shapes:
        if not oracle_fan_verdict(dim, rays, cones)[0]:
            continue
        f = toric.make_fan(dim, rays, cones)
        closure = oracle_cone_closure(cones)
        brute = [c for c in closure if c and not any(c < d for d in closure)]
        assert f.maximal == tuple(sorted(brute, key=sorted)), (dim, rays, cones)


def test_make_fan_on_every_listed_cone_of_p14_stays_in_budget():
    # the 32 767 proper subsets of 15 rays; closing them under faces would make about 3^15 sets
    n = 14
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)] + [(-1,) * n]
    cones = [c for k in range(n + 1) for c in combinations(range(n + 1), k)]
    assert len(cones) == 32767
    start = time.perf_counter()
    f = toric.make_fan(n, rays, cones)
    assert time.perf_counter() - start < 5.0
    assert f.maximal == tuple(frozenset(c) for c in combinations(range(n + 1), n))
    assert f.smooth


def test_make_fan_on_the_maximal_cones_of_p1_power_14_stays_in_budget():
    # 16 384 maximal cones of one size, none strictly inside another; comparing
    # each with every kept cone would make about 1.3e8 subset tests
    dim, rays, cones = _p1_power(14)
    start = time.perf_counter()
    f = toric.make_fan(dim, rays, cones)
    assert time.perf_counter() - start < 5.0
    assert f.maximal == tuple(sorted(map(frozenset, cones), key=sorted))
    assert f.smooth


def _certificate_or_message(check, f) -> str:
    try:
        return check(f)
    except NecessaryConditionFailed as error:
        return f"failed: {error}"


# every facet of the one full cone lies in it alone, and the smallest, [0, 1], is named
ONE_CONE_FAN = (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
# one facet, [0, 1], lies in three full cones and the others in one; it is the smallest
THREE_OWNER_FAN = (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, -1]], [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
# a maximal 2-ray cone, [0, 1], lies in no full cone and comes before the facets of the octant
STRAY_FACET_FAN = (3, [[-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1], [2, 3, 4]])
# the fan of P^3 and a ray (1, 1, 0) listed as a cone of its own: every facet lies in two full cones
STRAY_RAY_FAN = (
    3,
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0]],
    [list(c) for c in combinations(range(4), 3)] + [[4]],
)

COMPLETENESS_FANS = [
    *ORACLE_FANS,
    ONE_CONE_FAN,
    THREE_OWNER_FAN,
    STRAY_FACET_FAN,
    STRAY_RAY_FAN,
    # two closed shells of full cones, every facet in two cones, no facet shared between them
    (
        3,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
        [list(c) for c in combinations(range(4), 3)] + [list(c) for c in combinations(range(4, 8), 3)],
    ),
]


@pytest.mark.parametrize("seed", range(3))
def test_completeness_certificate_matches_direct_scans(seed):
    rng = random.Random(seed)
    outcomes = set()
    for dim, rays, cones in COMPLETENESS_FANS:
        if dim < 3 or not oracle_fan_verdict(dim, rays, cones)[0]:
            continue
        f = toric.make_fan(dim, disguised_rays(rng, rays), cones)
        outcome = _certificate_or_message(toric.completeness_certificate, f)
        assert outcome == _certificate_or_message(oracle_facet_certificate, f), (dim, rays, cones)
        outcomes.add(outcome.split(" lies in ")[-1])
    # certified shapes, facets with no owner, one or three, a disconnected fan
    # and a stray cone all occur
    assert outcomes == {
        UNCERTIFIED,
        "0 full cones, expected 2",
        "1 full cones, expected 2",
        "3 full cones, expected 2",
        "failed: full-dimensional cones are not connected through facets",
        "no full-dimensional cone",
    }


@pytest.mark.parametrize(
    "shape, message",
    [
        (ONE_CONE_FAN, "codimension-1 cone [0, 1] lies in 1 full cones, expected 2"),
        (THREE_OWNER_FAN, "codimension-1 cone [0, 1] lies in 3 full cones, expected 2"),
        (STRAY_FACET_FAN, "codimension-1 cone [0, 1] lies in 0 full cones, expected 2"),
        (STRAY_RAY_FAN, "cone [4] lies in no full-dimensional cone"),
    ],
)
def test_completeness_failure_names_the_smallest_facet(shape, message):
    dim, rays, cones = shape
    f = toric.make_fan(dim, disguised_rays(random.Random(0), rays), cones)
    with pytest.raises(NecessaryConditionFailed) as caught:
        toric.completeness_certificate(f)
    assert str(caught.value) == message


@pytest.mark.parametrize("seed", range(3))
def test_toric_cohomology_matches_tabulated_vanishing_oracle(seed):
    """Betti numbers of the boundary complex against the divisor that tabulates every zero row."""
    rng = random.Random(seed)
    shapes = [*(_projective_space(n) for n in range(1, 6)), *(_p1_power(k) for k in range(1, 4))]
    for dim, rays, cones in shapes:
        f = toric.make_fan(dim, disguised_rays(rng, rays), cones)
        subset = rng.sample(range(len(rays)), rng.randint(1, len(rays)))
        # a repeated, unordered selection means the same set of rays
        for selected in (range(len(rays)), subset + subset[:1]):
            divisor = oracle_boundary_divisor(f, selected)
            certificate, delta = toric.checked_boundary(f, selected)
            betti = simplicial.betti_numbers(delta)
            # the one row q = 0, summand for summand, as the tabulated divisor assembles it
            report = snc.CohomologyReport(
                tuple(betti), tuple(snc.Summand(p, 0, b, "sheaf r=0 q=0") for p, b in enumerate(betti))
            )
            assert report == snc.structure_sheaf_cohomology(divisor), (dim, rays, selected)
            assert delta == snc.dual_complex(divisor)
            assert betti == oracle_betti(delta)
            assert certificate in (CERTIFIED, UNCERTIFIED)


def _outcome(build, f, selected):
    try:
        return build(f, selected)
    except (InvalidInput, NotSmooth) as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("seed", range(3))
def test_boundary_complex_matches_closure_filter_oracle(seed):
    """The selected parts of the maximal cones against the cones of the face closure inside the selection."""
    rng = random.Random(seed)
    shapes = [*(_projective_space(n) for n in range(1, 6)), *(_p1_power(k) for k in range(1, 4)), *ORACLE_FANS]
    for dim, rays, cones in shapes:
        if not oracle_fan_verdict(dim, rays, cones)[0]:
            continue
        f = toric.make_fan(dim, disguised_rays(rng, rays), cones)
        selections = [range(len(rays)), [], [len(rays)]]
        for _ in range(4):
            subset = rng.sample(range(len(rays)), rng.randint(1, len(rays)))
            # repeated and unordered rays mean the same selection
            selections.append(subset + rng.choices(subset, k=rng.randint(0, 2)))
        for selected in selections:
            got = _outcome(toric.boundary_complex, f, selected)
            assert got == _outcome(oracle_boundary_complex, f, selected), (dim, rays, selected)


# the resolution of an A_2 point, whose boundary rays 0 and 3 each lie in one full cone
A2_RESOLUTION_FAN = (2, [[1, 0], [1, 1], [1, 2], [1, 3]], [[0, 1], [1, 2], [2, 3]])
WEDGE_FAN = (2, [[1, 0], [0, 1]], [[0, 1]])


def _stratum_refusal(f, selected):
    try:
        toric.check_complete_strata(f, selected)
    except InvalidInput as error:
        return str(error)
    return None


@pytest.mark.parametrize("seed", range(2))
def test_complete_strata_check_matches_direct_scan(seed):
    # a ray's stratum is refused exactly when a cone of the face closure through
    # it is maximal and not full-dimensional, or a facet of one full cone
    rng = random.Random(seed)
    refused_any = False
    for dim, rays, cones in [*COMPLETENESS_FANS, A2_RESOLUTION_FAN, WEDGE_FAN]:
        if not oracle_fan_verdict(dim, rays, cones)[0]:
            continue
        f = toric.make_fan(dim, disguised_rays(rng, rays), cones)
        closure = oracle_cone_closure(f.maximal)
        top = [c for c in closure if len(c) == dim]
        stray = [c for c in closure if 0 < len(c) < dim and not any(c < d for d in closure)]
        bad = stray + [c for c in closure if len(c) == dim - 1 and sum(c < t for t in top) == 1]
        for ray in range(len(rays)):
            refusal = _stratum_refusal(f, [ray])
            assert (refusal is not None) == any(ray in c for c in bad), (dim, rays, cones, ray)
            refused_any = refused_any or refusal is not None
        # a fan that passes the certificate has no incomplete stratum
        if _certificate_or_message(toric.completeness_certificate, f) in (CERTIFIED, UNCERTIFIED):
            assert _stratum_refusal(f, range(len(rays))) is None
    assert refused_any


def test_checked_boundary_on_the_a2_resolution():
    # a boundary ray cuts out an affine line; the interior rays cut out the
    # exceptional curves, which are complete
    dim, rays, cones = A2_RESOLUTION_FAN
    f = toric.make_fan(dim, rays, cones)
    with pytest.raises(InvalidInput) as caught:
        toric.checked_boundary(f, range(len(rays)))
    assert str(caught.value) == (
        "the stratum of ray 0 is not complete: cone [0] is a facet of only one full-dimensional cone"
    )
    certificate, delta = toric.checked_boundary(f, [1, 2])
    assert certificate == "failed: rays 3 and 0 leave an angular gap of at least a half plane"
    assert simplicial.betti_numbers(delta) == [1, 0]


@pytest.mark.parametrize("seed", range(2))
def test_checked_boundary_answers_what_the_cli_answers(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "fan.json"
    outcomes = set()
    for dim, rays, cones in [*COMPLETENESS_FANS, A2_RESOLUTION_FAN, WEDGE_FAN]:
        if not oracle_fan_verdict(dim, rays, cones)[0]:
            continue
        rays = disguised_rays(rng, rays)
        f = toric.make_fan(dim, rays, cones)
        subset = rng.sample(range(len(rays)), rng.randint(1, len(rays)))
        # every ray alone, so a failed certificate with a complete stratum occurs
        for selected in (list(range(len(rays))), subset, [len(rays)], *([ray] for ray in range(len(rays)))):
            doc = {"kind": "fan", "n": dim, "rays": rays, "cones": cones, "selected_rays": selected}
            path.write_text(json.dumps(doc))
            code = cli.main(["toric", str(path), "--json"])
            out, err = capsys.readouterr()
            try:
                certificate, delta = toric.checked_boundary(f, selected)
            except (InvalidInput, NotSmooth) as error:
                assert (code, out, err) == (1, "", f"error: {error}\n"), (dim, rays, selected)
                outcomes.add("refused")
                continue
            result = json.loads(out)["result"]
            assert (code, err) == (0, ""), (dim, rays, selected)
            assert result["completeness"] == certificate
            assert result["totals"] == simplicial.betti_numbers(delta)
            outcomes.add("failed" if certificate.startswith("failed: ") else certificate)
    assert outcomes == {"refused", "failed", CERTIFIED, UNCERTIFIED}
