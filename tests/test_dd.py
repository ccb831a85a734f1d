"""Double description against a brute-force extreme-ray oracle.

A ray of the pointed cone {x : A x >= 0} in R^k is extreme exactly when its
active rows have rank k - 1, so every extreme ray is the null direction of
some rank-(k-1) set of k - 1 rows.  The oracle tries all of them on the
original A; it is exponential and only used for kernel dimension <= 6.
``extreme_rays`` takes the transpose of an echelon basis and returns the
rays' images A x, so it is given the Hermite-form transpose of A, which
spans the same column space, and compared with the oracle's images.
"""

import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

from logcone import dd
from logcone import intlinalg as il
from logcone.cone import sigma_cone
from logcone.lattice import lattice_summary
from logcone.serialize import graph_from_dict

from helpers import no_double_description, random_layered_graph, replace_extreme_rays
from reference_intlinalg import mat_vec, primitive


def oracle_rays(A):
    k = len(A[0])
    rows = sorted({tuple(primitive(list(a))) for a in A if any(a)})
    found = set()
    for subset in itertools.combinations(rows, k - 1):
        null = il.kernel_basis([list(a) for a in subset] or [[0] * k])
        if len(null) != 1:
            continue
        for d in (null[0], [-x for x in null[0]]):
            if all(v >= 0 for v in mat_vec(A, d)):
                found.add(tuple(primitive(d)))
    return sorted(list(r) for r in found)


def oracle_images(A):
    return sorted(tuple(primitive(mat_vec(A, x))) for x in oracle_rays(A))


def hermite_transpose(A):
    return il.transpose(il.hermite_row_basis(il.transpose(A)))


def assert_extreme(A, rays):
    """Each ray is a primitive vector of col(A) ∩ R^m_{>=0} whose zero rows
    of A have rank k - 1."""
    k = len(A[0])
    columns = il.transpose(A)
    for s in rays:
        assert all(v >= 0 for v in s)
        assert tuple(primitive(s)) == s
        assert il.rank(columns + [s]) == k
        active = [a for a, v in zip(A, s) if v == 0]
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
        # the kernel basis is already in Hermite form
        assert hermite_transpose(A) == A
        rays = dd.extreme_rays(A)
        assert rays == oracle_images(A)
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
        rays = dd.extreme_rays(hermite_transpose(A))
        assert rays == oracle_images(A)
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
    # with image A (1, 0, 0, 2, 1)
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
    rays = dd.extreme_rays(hermite_transpose(A))
    assert len(rays) == 14 and tuple(mat_vec(A, [1, 0, 0, 2, 1])) in rays
    assert rays == oracle_images(A)
    assert_extreme(A, rays)


def with_repeated_rows(A, rng):
    """A with copies of its rows and zero rows inserted, each copy after its
    original (so A stays an echelon transpose), and the source of each row:
    a row index of A, or None for a zero row."""
    layout = list(range(len(A)))
    for _ in range(rng.randint(1, 6)):
        src = rng.choice([None, *range(len(A))])
        first = 0 if src is None else layout.index(src) + 1
        layout.insert(rng.randint(first, len(layout)), src)
    return [[0] * len(A[0]) if i is None else A[i] for i in layout], layout


def test_equal_and_zero_halfspaces_are_solved_once():
    rng = random.Random(101)
    checked = 0
    while checked < 150:
        if checked % 2:
            A = halfspaces(random_layered_graph(rng))
        else:
            A = random_system(rng)
            A = hermite_transpose(A) if A and il.rank(A) == len(A[0]) else []
        if not A or len(A[0]) > 6:
            continue
        B, layout = with_repeated_rows(A, rng)
        rays = dd.extreme_rays(B)
        # each ray is the ray of A with the repeated entries copied in
        assert rays == [tuple(0 if i is None else r[i] for i in layout) for r in dd.extreme_rays(A)]
        assert rays == oracle_images(B)
        assert_extreme(B, rays)
        checked += 1


def diamond(seed, widths):
    """The benchmark's layered diamond over one divisor."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import gen
    finally:
        sys.path.remove(perfbench)
    return graph_from_dict(gen.diamond_graph(random.Random(seed), widths))


def test_large_diamond_cone_is_pinned():
    # the diamond at 6 layers of width 8: 2,640 rays over a 48-dimensional
    # kernel, far past the oracle's reach, the same from sigma_cone's
    # one-divisor route and from the double description
    g = diamond(0, [8] * 6)
    cone = sigma_cone(g)
    assert cone.kernel_dim == 48
    assert len(cone.extreme_rays) == 2640
    want = "17da0d33249047c3bcc1df35486054c1197016dbd9252956cc3e10b0b472bb78"
    for rays in (cone.extreme_rays, dd.extreme_rays(halfspaces(g))):
        assert hashlib.sha256(json.dumps(sorted(rays)).encode()).hexdigest() == want


@pytest.mark.parametrize("widths, count", [([6] * 8, 5926), ([8] * 6, 11368)])
def test_diamonds_past_the_double_description_have_their_counted_rays(monkeypatch, widths, count):
    # 5,926 is the double description's own count, after 16.5 s; 11,368,
    # where it does not finish in 120 s, is a separate backtracking count
    # of the connected up-sets
    replace_extreme_rays(monkeypatch, no_double_description)
    g = diamond(1, widths)
    rays = sigma_cone(g).extreme_rays
    assert len(set(rays)) == len(rays) == count
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in lattice_summary(g).rho]
    for ray in rays:
        assert min(ray) >= 0 and math.gcd(*ray) == 1
        assert all(sum(x * ray[j] for j, x in row) == 0 for row in rows)
