"""Double description against a brute-force extreme-ray oracle.

A ray of the pointed cone {x : A x >= 0} in R^k is extreme exactly when its
active rows have rank k - 1, so every extreme ray is the null direction of
some rank-(k-1) set of k - 1 rows.  The oracle tries all of them; it is
exponential and only used for kernel dimension <= 6.
"""

import itertools
import random

from logcone import dd
from logcone import intlinalg as il
from logcone.lattice import lattice_summary

from helpers import random_layered_graph


def oracle_rays(A):
    k = len(A[0])
    rows = sorted({tuple(il.primitive(list(a))) for a in A if any(a)})
    found = set()
    for subset in itertools.combinations(rows, k - 1):
        null = il.kernel_basis([list(a) for a in subset] or [[0] * k])
        if len(null) != 1:
            continue
        for d in (null[0], [-x for x in null[0]]):
            if all(v >= 0 for v in il.mat_vec(A, d)):
                found.add(tuple(il.primitive(d)))
    return sorted(list(r) for r in found)


def assert_extreme(A, rays):
    k = len(A[0])
    for r in rays:
        slack = il.mat_vec(A, r)
        assert all(v >= 0 for v in slack)
        assert il.primitive(r) == r
        active = [a for a, v in zip(A, slack) if v == 0]
        assert il.rank(active or [[0] * k]) == k - 1


def halfspaces(graph):
    kernel = lattice_summary(graph).kernel_basis
    return [list(col) for col in zip(*kernel)]


def test_extreme_rays_match_oracle_on_layered_graphs():
    rng = random.Random(83)
    checked = non_simplicial = 0
    while checked < 200:
        A = halfspaces(random_layered_graph(rng))
        if not A or len(A[0]) > 6:
            continue
        rays = dd.extreme_rays(A)
        assert rays == oracle_rays(A)
        assert_extreme(A, rays)
        checked += 1
        non_simplicial += len(rays) > len(A[0])
    # the family exists to exercise the combination step
    assert non_simplicial >= 50


def random_system(rng):
    k = rng.randint(1, 5)
    m = k + rng.randint(0, 7)
    if rng.random() < 0.5:
        return [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    # the cone over a polytope: many rays, and rows through several of them
    return [[rng.choice((-1, 0, 0, 1)) for _ in range(k - 1)] + [rng.randint(1, 2)] for _ in range(m)]


def test_extreme_rays_match_oracle_on_random_systems():
    rng = random.Random(89)
    checked = 0
    while checked < 200:
        A = random_system(rng)
        if il.rank(A) != len(A[0]):
            continue
        rays = dd.extreme_rays(A)
        assert rays == oracle_rays(A)
        assert_extreme(A, rays)
        checked += 1


def test_returned_rays_are_extreme_beyond_oracle_size():
    rng = random.Random(97)
    seen = 0
    while seen < 20:
        A = halfspaces(random_layered_graph(rng, max_layers=4, max_width=4))
        if not A or len(A[0]) <= 6:
            continue
        assert_extreme(A, dd.extreme_rays(A))
        seen += 1


def test_rows_not_yet_inserted_do_not_count_for_adjacency():
    # the cone over a 4-polytope with 14 vertices; counting the zeros of
    # rows inserted later in the common zero set of a pair loses the ray
    # (1, 0, 0, 2, 1)
    A = [
        [-1, 0, 1, 1, 1],
        [-1, 0, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [-1, 1, -1, 0, 1],
        [0, 0, 0, 1, 1],
        [-1, 1, 1, 0, 2],
        [1, 0, 0, -1, 1],
        [0, 0, 1, -1, 2],
        [0, 0, -1, 0, 1],
    ]
    rays = dd.extreme_rays(A)
    assert len(rays) == 14 and [1, 0, 0, 2, 1] in rays
    assert rays == oracle_rays(A)
    assert_extreme(A, rays)
