import cmath
import math
import random

import pytest

from logcone import dd
from logcone import intlinalg as il
from logcone.cone import (
    ObstructionInput,
    eliminate_unit_entries,
    gluing_equations,
    obstruction_test,
    sigma_cone,
    toric_ideal_generators,
)
from logcone.corpus import corpus_load
from logcone.lattice import build_rho, component_count, lattice_summary
from logcone.serialize import graph_from_dict
from logcone.tropical import tropical_feasibility

from helpers import random_free_graph, random_layered_graph, random_reorientation, random_witness_graph


def test_sigma_toricex_single_ray():
    cone = sigma_cone(corpus_load("toricex").graph)
    assert cone.extreme_rays == ((1, 1, 2, 2),)
    assert cone.is_strictly_convex
    assert cone.is_top_dimensional_in_kernel


def test_sigma_d1rd22pt_four_rays_with_relation():
    cone = sigma_cone(corpus_load("d1rd22pt").graph)
    rays = sorted(cone.extreme_rays)
    assert len(rays) == 4
    expected = sorted(
        [
            (0, 0, 1, 1, 0, 0, 1),  # lengths on e3,e4 and position on v3
            (1, 0, 0, 1, 1, 0, 1),
            (0, 1, 1, 0, 0, 1, 1),
            (1, 1, 0, 0, 1, 1, 1),
        ]
    )
    assert rays == expected
    # the single relation: the two diagonal pairs sum to the same vector
    short = (0, 0, 1, 1, 0, 0, 1)
    long = (1, 1, 0, 0, 1, 1, 1)
    mid1 = (1, 0, 0, 1, 1, 0, 1)
    mid2 = (0, 1, 1, 0, 0, 1, 1)
    assert [a + b for a, b in zip(short, long)] == [a + b for a, b in zip(mid1, mid2)]


def test_sigma_trivial_graph():
    from logcone.graph import DecoratedDualGraph, VertexData

    g = DecoratedDualGraph((), (VertexData("v", 0, "t", frozenset()),), (), ())
    cone = sigma_cone(g)
    assert cone.kernel_dim == 0
    assert cone.extreme_rays == ()
    assert cone.is_strictly_convex
    assert cone.is_top_dimensional_in_kernel


def test_rays_lie_in_kernel_and_orthant():
    rng = random.Random(41)
    for _ in range(30):
        g = random_witness_graph(rng, legs=False)
        cone = sigma_cone(g)
        _, _, rho = build_rho(g)
        for ray in cone.extreme_rays:
            assert all(x >= 0 for x in ray)
            assert all(v == 0 for v in il.mat_vec(rho, list(ray)))
            assert il.primitive(list(ray)) == list(ray)


def test_convexity_on_feasible_graphs():
    rng = random.Random(42)
    for _ in range(40):
        g = random_witness_graph(rng, legs=False)
        assert tropical_feasibility(g) is not None
        cone = sigma_cone(g)
        assert cone.is_strictly_convex
        assert cone.is_top_dimensional_in_kernel


def test_top_dimensional_flag_matches_ray_rank():
    rng = random.Random(47)
    graphs = [random_witness_graph(rng, legs=False) for _ in range(40)]
    graphs += [random_free_graph(rng, n_divisors=rng.randint(1, 2)) for _ in range(80)]
    graphs += [random_layered_graph(rng) for _ in range(40)]
    seen = set()
    for g in graphs:
        cone = sigma_cone(g)
        rays = [list(r) for r in cone.extreme_rays]
        want = il.rank(rays) == cone.kernel_dim if rays else cone.kernel_dim == 0
        assert cone.is_top_dimensional_in_kernel == want
        seen.add(want)
    assert seen == {True, False}


def test_ray_canonical_order_invariant_under_reorientation():
    rng = random.Random(43)
    for _ in range(25):
        g = random_witness_graph(rng, legs=False)
        assert sigma_cone(g).extreme_rays == sigma_cone(random_reorientation(g, rng)).extreme_rays


def test_gluing_toricex():
    system = gluing_equations(corpus_load("toricex").graph)
    assert sorted(system.rendered()) == [
        "eps_e1^2 = t_v1_1",
        "eps_e1^2 = t_v2_2",
        "eps_e2^2 = t_v1_1",
        "eps_e2^2 = t_v2_2",
    ]


def test_gluing_d1rd22pt_unit_relations():
    g = corpus_load("d1rd22pt").graph
    system = gluing_equations(g)
    assert sorted(system.rendered()) == [
        "eps_e1 = t_v1_1",
        "eps_e2 = t_v2_1",
        "eps_e3 * t_v1_1 = t_v3_1",
        "eps_e4 * t_v2_1 = t_v3_1",
    ]


def test_gluing_empty_for_classical_graph():
    from logcone.graph import DecoratedDualGraph, EdgeData, VertexData

    g = DecoratedDualGraph(
        ("1",),
        (VertexData("a", 0, "t", frozenset()), VertexData("b", 0, "t", frozenset())),
        (EdgeData("e", "a", "b", frozenset(), (0,)),),
        (),
    )
    assert gluing_equations(g).exponents == ()


def test_gluing_exponents_span_image_dual_with_index_component_count():
    rng = random.Random(44)
    for _ in range(30):
        g = random_witness_graph(rng, legs=False)
        glue = [list(m) for m in gluing_equations(g).exponents]
        ideal = [list(m) for m in toric_ideal_generators(g).exponents]
        image_dual = il.hermite_row_basis([row[:] for row in lattice_summary(g).rho])
        if glue:
            assert il.hermite_row_basis(glue) == image_dual
        else:
            assert image_dual == []
        if ideal and image_dual:
            assert il.lattice_index(image_dual, il.hermite_row_basis(ideal)) == component_count(g)


def test_ideal_orthogonal_to_rays():
    rng = random.Random(45)
    for _ in range(25):
        g = random_witness_graph(rng, legs=False)
        system = toric_ideal_generators(g)
        cone = sigma_cone(g)
        for m in system.exponents:
            for r in cone.extreme_rays:
                assert sum(a * b for a, b in zip(m, r)) == 0


def test_ideal_vanishes_on_parametrization():
    rng = random.Random(46)
    for _ in range(10):
        g = random_witness_graph(rng, max_vertices=4, max_edges=4, legs=False)
        summary = lattice_summary(g)
        kernel = [list(r) for r in summary.kernel_basis]
        system = toric_ideal_generators(g)
        for _ in range(50):
            coeffs = [rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in kernel]
            point = [
                cmath.exp(sum(c * k[j] for c, k in zip(coeffs, kernel)))
                for j in range(len(summary.domain))
            ]
            for m in system.exponents:
                plus = 1 + 0j
                minus = 1 + 0j
                for x, e in zip(point, m):
                    if e > 0:
                        plus *= x**e
                    elif e < 0:
                        minus *= x ** (-e)
                assert abs(plus - minus) < 1e-8 * max(1.0, abs(plus))


def test_eliminate_unit_entries_d1rd22pt():
    system = toric_ideal_generators(corpus_load("d1rd22pt").graph)
    reduced, labels = eliminate_unit_entries(system)
    assert len(reduced) == 1
    assert sorted(abs(x) for x in reduced[0]) == [1, 1, 1, 1]
    # the surviving relation pairs the four gluing parameters two against two
    vec = reduced[0]
    assert sum(vec) == 0
    assert all(lab[0] == "edge" for lab in labels)


def test_obstruction_all_ones_identity():
    g = corpus_load("toricex").graph
    eta = ObstructionInput({(e.id, lab): 1.0 for e in g.edges for lab in e.depth})
    verdict = obstruction_test(g, eta)
    assert verdict.is_identity


def test_obstruction_exponential_image_is_identity():
    rng = random.Random(47)
    for _ in range(20):
        g = random_witness_graph(rng, legs=False)
        _, tgt, rho = build_rho(g)
        xi = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(rho[0]) if rho else 0)]
        values = {}
        for i, lab in enumerate(tgt.labels):
            acc = sum(rho[i][j] * xi[j] for j in range(len(xi)))
            values[(lab[1], lab[2])] = cmath.exp(acc)
        verdict = obstruction_test(g, ObstructionInput(values))
        assert verdict.is_identity, verdict.violations


def test_obstruction_detects_perturbation():
    g = corpus_load("toricex").graph
    _, tgt, rho = build_rho(g)
    characters = il.left_kernel_basis(rho)
    assert characters
    target_idx = next(
        i for m in characters for i, x in enumerate(m) if x != 0
    )
    eta = {(lab[1], lab[2]): 1.0 for lab in tgt.labels}
    key = (tgt.labels[target_idx][1], tgt.labels[target_idx][2])
    eta[key] = 1.01
    verdict = obstruction_test(g, ObstructionInput(eta))
    assert not verdict.is_identity
    assert verdict.violations


def test_obstruction_invariant_under_image_torus_action():
    rng = random.Random(48)
    g = corpus_load("toricex").graph
    _, tgt, rho = build_rho(g)
    base = {(lab[1], lab[2]): 1.01 if i == 0 else 1.0 for i, lab in enumerate(tgt.labels)}
    before = obstruction_test(g, ObstructionInput(base)).is_identity
    xi = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(rho[0]))]
    shifted = {}
    for i, lab in enumerate(tgt.labels):
        acc = sum(rho[i][j] * xi[j] for j in range(len(xi)))
        shifted[(lab[1], lab[2])] = base[(lab[1], lab[2])] * cmath.exp(acc)
    after = obstruction_test(g, ObstructionInput(shifted)).is_identity
    assert before == after


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
def test_obstruction_rejects_tolerance_outside_zero_to_inf(tol):
    g = corpus_load("toricex").graph
    eta = {(e.id, lab): 1.0 for e in g.edges for lab in e.depth}
    eta[("e1", "1")] = 1.01
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        obstruction_test(g, ObstructionInput(eta), tol=tol)


def test_obstruction_rejects_bad_input():
    g = corpus_load("toricex").graph
    eta = {(e.id, lab): 1.0 for e in g.edges for lab in e.depth}
    zeroed = dict(eta)
    zeroed[("e1", "1")] = 0.0
    with pytest.raises(ValueError):
        obstruction_test(g, ObstructionInput(zeroed))
    missing = dict(eta)
    del missing[("e1", "1")]
    with pytest.raises(ValueError):
        obstruction_test(g, ObstructionInput(missing))


def cramer_rays(A, idx):
    """Extreme rays of {x : A[idx] x >= 0}, one exact solve per ray."""
    M = [A[i] for i in idx]
    d = abs(il.det(M))
    rays = []
    for j in range(len(idx)):
        sol = il.solve_rational(M, [d if i == j else 0 for i in range(len(idx))])
        assert all(x.denominator == 1 for x in sol)
        rays.append(il.primitive([int(x) for x in sol]))
    return rays


def test_initial_rays_match_one_solve_per_ray():
    rng = random.Random(49)
    systems = []
    # a size ladder of kernel halfspace systems, as sigma_cone builds them
    for size in (4, 6, 10, 16):
        for _ in range(6):
            for g in (
                random_witness_graph(rng, max_vertices=size, max_edges=size + 2),
                random_free_graph(rng, max_vertices=size, max_edges=size + 2, n_divisors=2),
            ):
                kernel = lattice_summary(g).kernel_basis
                if kernel:
                    systems.append([list(col) for col in zip(*kernel)])
    for _ in range(40):
        k = rng.randint(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k + rng.randint(0, 3))]
        if il.rank(A) == k:
            systems.append(A)
    assert len(systems) > 60
    for A in systems:
        idx = dd._independent_rows(A, len(A[0]))
        assert dd._initial_rays(A, idx) == cramer_rays(A, idx)


# Graph g50 of the lattice-multidiv benchmark workload, and log-coordinates
# xi of an eta = exp(rho xi) planted in its image torus.  Its raw character
# basis (the left kernel of rho from the Smith form) has entries near 5e66,
# so evaluating eta^m on it overflowed; its Hermite basis has entries of at
# most 24.
G50_VERTICES = [
    ("v0", 1, "12345"), ("v1", 0, "14"), ("v2", 0, "1345"), ("v3", 2, "34"),
    ("v4", 2, "13"), ("v5", 2, "234"), ("v6", 2, "235"), ("v7", 1, "23"),
    ("v8", 0, "125"), ("v9", 1, "3"), ("v10", 2, "45"), ("v11", 1, "1"),
]
G50_EDGES = [
    ("e0", "v1", "v0", "12345", {"2": 4, "3": 4, "4": 1, "5": 3}),
    ("e1", "v2", "v0", "12345", {"2": 4, "3": 2, "4": 1}),
    ("e2", "v3", "v1", "134", {"1": 1, "3": -4, "4": -3}),
    ("e3", "v4", "v0", "12345", {"1": -3, "2": 4, "3": 1, "4": 2, "5": 3}),
    ("e4", "v5", "v2", "12345", {"1": 1, "2": -3, "3": -1, "4": -1, "5": 3}),
    ("e5", "v6", "v5", "2345", {"2": -1, "3": 1, "4": 2, "5": -2}),
    ("e6", "v7", "v4", "123", {"1": 4, "2": -4, "3": -1}),
    ("e7", "v8", "v7", "1235", {"1": -3, "2": 1, "3": 4, "5": -3}),
    ("e8", "v9", "v6", "235", {"2": 4, "3": -1, "5": 2}),
    ("e9", "v10", "v6", "2345", {"2": 4, "3": 2, "4": -4}),
    ("e10", "v11", "v8", "125", {"1": 2, "2": 3, "5": 3}),
]
G50_XI = {
    "e0": (-0.0094, -0.1442), "e1": (0.4411, -0.0682), "e10": (0.1797, 0.1607),
    "e2": (-0.4143, 0.1186), "e3": (0.2981, 0.2131), "e4": (-0.4180, -0.3458),
    "e5": (0.2117, 0.1339), "e6": (0.2397, -0.1833), "e7": (-0.3934, -0.4948),
    "e8": (-0.1917, -0.1401), "e9": (-0.2302, -0.3675), "v0:1": (-0.3126, -0.0512),
    "v0:2": (0.0547, -0.0920), "v0:3": (-0.4737, -0.1461), "v0:4": (-0.4069, 0.0980),
    "v0:5": (-0.1756, -0.1148), "v1:1": (-0.2082, -0.1122), "v1:4": (-0.4153, 0.4011),
    "v10:4": (0.4052, 0.4782), "v10:5": (0.0720, -0.3304), "v11:1": (-0.1193, -0.3612),
    "v2:1": (-0.1989, -0.0069), "v2:3": (-0.4367, -0.0653), "v2:4": (-0.0789, -0.0158),
    "v2:5": (-0.4231, -0.2483), "v3:3": (-0.2534, 0.1250), "v3:4": (0.0938, -0.3045),
    "v4:1": (-0.3930, -0.1953), "v4:3": (0.4488, -0.1678), "v5:2": (0.1202, 0.3041),
    "v5:3": (-0.1705, -0.1653), "v5:4": (0.3155, 0.3595), "v6:2": (0.4742, -0.3639),
    "v6:3": (-0.1793, 0.4473), "v6:5": (-0.2991, -0.1858), "v7:2": (0.4646, 0.4687),
    "v7:3": (-0.2086, 0.1950), "v8:1": (-0.0090, 0.0759), "v8:2": (-0.2576, -0.1239),
    "v8:5": (0.3165, -0.1071), "v9:3": (-0.3861, 0.0639),
}


def g50_graph():
    return graph_from_dict(
        {
            "schema": "logcone/1",
            "divisors": list("12345"),
            "vertices": [
                {"id": v, "genus": genus, "degree": f"deg{v}", "depth": list(depth)}
                for v, genus, depth in G50_VERTICES
            ],
            "edges": [
                {"id": e, "from": a, "to": b, "depth": list(depth), "contact": contact}
                for e, a, b, depth, contact in G50_EDGES
            ],
            "legs": [],
        }
    )


def test_obstruction_accepts_planted_eta_despite_huge_raw_characters():
    g = g50_graph()
    dom, tgt, rho = build_rho(g)
    raw = il.left_kernel_basis(rho)
    assert max(abs(x) for m in raw for x in m) > 10**60
    characters = il.hermite_row_basis(raw)
    assert max(abs(x) for m in characters for x in m) <= 24
    xi = [complex(*G50_XI[lab[1] if lab[0] == "edge" else f"{lab[1]}:{lab[2]}"]) for lab in dom.labels]
    eta = {
        (lab[1], lab[2]): cmath.exp(sum(c * x for c, x in zip(row, xi)))
        for lab, row in zip(tgt.labels, rho)
    }
    verdict = obstruction_test(g, ObstructionInput(eta))
    assert verdict.is_identity, verdict.violations
    # off the image torus: violations are reported on the Hermite basis
    key = next(k for k in eta if any(m[tgt.labels.index(("node", *k))] for m in characters))
    eta[key] *= 1.01
    verdict = obstruction_test(g, ObstructionInput(eta))
    assert not verdict.is_identity
    assert all(list(m) in characters for m, _ in verdict.violations)
