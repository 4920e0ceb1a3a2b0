import json
import os
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from dualcech import exactla, simplicial
from dualcech.errors import BadTuple

from helpers import (
    OracleCochainComplex,
    moore_space,
    oracle_betti,
    oracle_integral_cohomology,
    oracle_smith_normal_form,
    random_complex,
    same_storage,
)

RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def simplex_boundary(n: int) -> simplicial.SimplicialComplex:
    full = tuple(range(n + 1))
    facets = [full[:k] + full[k + 1 :] for k in range(n + 1)]
    return simplicial.from_facets(n + 1, facets)


def test_from_facets_full_triangle():
    k = simplicial.from_facets(3, [(0, 1, 2)])
    assert len(k.simplices) == 7


def test_from_facets_tetrahedron_boundary():
    k = simplicial.from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert len(k.simplices) == 14
    assert k.counts() == [4, 6, 4]


def test_from_facets_empty():
    k = simplicial.from_facets(0, [])
    assert k.simplices == frozenset()
    assert k.dim == -1


def test_from_facets_rejects_unsorted():
    with pytest.raises(BadTuple):
        simplicial.from_facets(3, [(1, 0)])


def test_from_facets_rejects_out_of_range():
    with pytest.raises(BadTuple):
        simplicial.from_facets(2, [(0, 2)])


def test_euler_characteristic_examples():
    assert simplicial.euler_characteristic(simplicial.from_facets(1, [(0,)])) == 1
    hollow = simplicial.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    assert simplicial.euler_characteristic(hollow) == 0
    tetra = simplicial.from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert simplicial.euler_characteristic(tetra) == 2
    assert simplicial.euler_characteristic(simplicial.from_facets(0, [])) == 0


def test_betti_examples():
    assert simplicial.betti_numbers(simplex_boundary(3)) == [1, 0, 1]
    assert simplicial.betti_numbers(simplicial.from_facets(1, [(0,)])) == [1]
    assert simplicial.betti_numbers(simplicial.from_facets(2, [(0,), (1,)])) == [2]
    assert simplicial.betti_numbers(simplicial.from_facets(0, [])) == []


def test_betti_boundary_of_simplex_is_sphere():
    for n in range(2, 7):
        expected = [1] + [0] * (n - 2) + [1]
        assert simplicial.betti_numbers(simplex_boundary(n)) == expected


def test_integral_cohomology_circle():
    hollow = simplicial.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    assert simplicial.integral_cohomology(hollow) == [(1, []), (1, [])]


def test_integral_cohomology_point():
    assert simplicial.integral_cohomology(simplicial.from_facets(1, [(0,)])) == [(1, [])]


def test_integral_cohomology_projective_plane():
    rp2 = simplicial.from_facets(6, RP2_FACETS)
    result = simplicial.integral_cohomology(rp2)
    assert result[0] == (1, [])
    assert result[1] == (0, [])
    assert result[2] == (0, [2])
    # the residual after the unit pivots of d_1 carries the torsion
    d1 = simplicial.coboundary_matrix(rp2, 1)
    factors = exactla.smith_normal_form(d1)
    assert factors[-1] == 2 and set(factors[:-1]) == {1}
    assert factors == oracle_smith_normal_form(d1)


def join(a: tuple[int, list], b: tuple[int, list]) -> tuple[int, list]:
    """(vertex count, facets) of the join of two complexes given the same way."""
    (n, first), (m, second) = a, b
    return n + m, [list(f) + [n + v for v in g] for f in first for g in second]


def test_integral_cohomology_of_joins_and_suspensions_of_the_projective_plane():
    with open(os.path.join(os.path.dirname(__file__), "..", "inputs", "projective_plane.json")) as f:
        doc = json.load(f)
    rp2 = (doc["vertex_count"], doc["facets"])
    # the join formula gives reduced homology Z/2 (x) Z/2 in degree 3 and
    # Tor(Z/2, Z/2) in degree 4, so Z/2 in cohomological degrees 4 and 5
    expected = [(1, [])] + [(0, [])] * 3 + [(0, [2])] * 2
    assert simplicial.integral_cohomology(simplicial.from_facets(*join(rp2, rp2))) == expected
    # a suspension is the join with two points, and moves the Z/2 up by one
    suspension = rp2
    for k in range(1, 4):
        suspension = join(suspension, (2, [[0], [1]]))
        expected = [(1, [])] + [(0, [])] * (k + 1) + [(0, [2])]
        assert simplicial.integral_cohomology(simplicial.from_facets(*suspension)) == expected, k


def test_integral_cohomology_of_moore_spaces_has_odd_torsion():
    assert simplicial.integral_cohomology(simplicial.from_facets(*moore_space(3))) == [(1, []), (0, []), (0, [3])]
    assert simplicial.integral_cohomology(simplicial.from_facets(*moore_space(5))) == [(1, []), (0, []), (0, [5])]


def test_integral_cohomology_of_joins_of_moore_spaces():
    # by the join formula, as for the projective plane: Z/3 (x) Z/3 in
    # reduced homology degree 3 and Tor(Z/3, Z/3) in degree 4, so Z/3 in
    # cohomological degrees 4 and 5; Z/3 (x) Z/5 and Tor(Z/3, Z/5) vanish
    m3, m5 = moore_space(3), moore_space(5)
    expected = [(1, [])] + [(0, [])] * 3 + [(0, [3])] * 2
    assert simplicial.integral_cohomology(simplicial.from_facets(*join(m3, m3))) == expected
    assert simplicial.integral_cohomology(simplicial.from_facets(*join(m3, m5))) == [(1, [])] + [(0, [])] * 5


def test_integral_cohomology_of_a_large_simplex_within_budget():
    # the dense Smith normal form alone took about 44 s here
    start = time.perf_counter()
    result = simplicial.integral_cohomology(simplicial.from_facets(12, [tuple(range(12))]))
    assert time.perf_counter() - start < 10
    assert result == [(1, [])] + [(0, [])] * 11


@given(st.integers(0, 2**31 - 1))
def test_betti_against_boundary_matrix_oracle(seed):
    k = random_complex(random.Random(seed), max_vertices=6)
    assert simplicial.betti_numbers(k) == oracle_betti(k)
    # the coboundaries square to zero by construction; the oracle checks it
    coboundaries = tuple(simplicial.coboundary_matrix(k, p) for p in range(k.dim))
    OracleCochainComplex(tuple(k.counts()), coboundaries)


def sparse_label_complex(rng: random.Random) -> simplicial.SimplicialComplex:
    """A handful of vertices labelled from a range up to 2**40, facets up to dimension 5."""
    vertex_count = rng.randint(1, 2**rng.randint(1, 40))
    used = rng.sample(range(vertex_count), min(vertex_count, rng.randint(1, 9)))
    facets = [
        tuple(sorted(rng.sample(used, rng.randint(1, min(len(used), 6)))))
        for _ in range(rng.randint(1, 6))
    ]
    return simplicial.from_facets(vertex_count, facets)


@given(st.integers(0, 2**31 - 1))
def test_betti_on_sparse_vertex_labels_against_oracle(seed):
    k = sparse_label_complex(random.Random(seed))
    assert simplicial.betti_numbers(k) == oracle_betti(k)


@given(st.integers(0, 2**31 - 1))
def test_integral_cohomology_against_coboundary_matrix_oracle(seed):
    rng = random.Random(seed)
    for k in (random_complex(rng), sparse_label_complex(rng)):
        assert simplicial.integral_cohomology(k) == oracle_integral_cohomology(k), sorted(k.simplices)


@given(st.integers(0, 2**31 - 1))
def test_alternating_betti_sum_is_euler(seed):
    k = random_complex(random.Random(seed), max_vertices=7)
    betti = simplicial.betti_numbers(k)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == simplicial.euler_characteristic(k)


@given(st.integers(0, 2**31 - 1))
def test_integral_free_ranks_match_betti(seed):
    k = random_complex(random.Random(seed), max_vertices=6)
    free = [f for f, _ in simplicial.integral_cohomology(k)]
    assert free == simplicial.betti_numbers(k)


@given(st.integers(0, 2**31 - 1))
def test_from_facets_idempotent(seed):
    k = random_complex(random.Random(seed), max_vertices=6)
    again = simplicial.from_facets(k.vertex_count, sorted(k.simplices))
    assert again == k


@given(st.integers(0, 2**31 - 1))
def test_cells_and_faces_match_brute_force(seed):
    k = random_complex(random.Random(seed))
    top = max((len(s) for s in k.simplices), default=0) - 1
    by_level = [sorted(s for s in k.simplices if len(s) == p + 1) for p in range(top + 1)]
    assert k.dim == top
    assert k.counts() == [len(level) for level in by_level]
    for p in range(-1, top + 2):
        assert k.p_simplices(p) == (by_level[p] if 0 <= p <= top else [])
    for tau in k.simplices:
        # combinations drop the last position first
        faces = list(combinations(tau, len(tau) - 1))[::-1] if len(tau) > 1 else []
        assert simplicial._faces(tau) == [(f, (-1) ** pos) for pos, f in enumerate(faces)]
    pairs = []
    for tau in sorted(k.simplices):
        for drop in range(len(tau) if len(tau) > 1 else 0):
            pairs.append((tuple(v for pos, v in enumerate(tau) if pos != drop), tau))
    assert list(k.face_pairs) == pairs
    # the lists handed out are the caller's to edit
    for p in range(top + 1):
        handed_out = k.p_simplices(p)
        handed_out.clear()
        handed_out.append((-1,))
    assert [k.p_simplices(p) for p in range(top + 1)] == by_level
    assert k.counts() == [len(level) for level in by_level]


def _signed_entries(k: simplicial.SimplicialComplex, p: int) -> dict:
    """Row tau, column tau minus its vertex at position j, sign (-1)^j."""
    lower = sorted(s for s in k.simplices if len(s) == p + 1)
    upper = sorted(s for s in k.simplices if len(s) == p + 2)
    index = {s: i for i, s in enumerate(lower)}
    return {(r, index[tau[:j] + tau[j + 1 :]]): (-1) ** j for r, tau in enumerate(upper) for j in range(len(tau))}


@given(st.integers(0, 2**31 - 1))
def test_coboundary_matrix_matches_validating_constructor(seed):
    rng = random.Random(seed)
    for k in (random_complex(rng), simplicial.from_facets(6, [tuple(range(6))])):
        for p in range(k.dim + 1):
            got = simplicial.coboundary_matrix(k, p)
            rows, cols = len(k.p_simplices(p + 1)), len(k.p_simplices(p))
            want = exactla.RationalMatrix(rows, cols, _signed_entries(k, p))
            assert same_storage(got, want)
            assert all(type(v) is int for row in got._num.values() for v in row.values())
