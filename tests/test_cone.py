import cmath
import math
import random
import sys

import pytest

from logcone import dd
from logcone import intlinalg as il
from logcone.cone import (
    DEFAULT_TOL,
    BinomialSystem,
    ObstructionInput,
    ObstructionVerdict,
    _canonical_sign,
    eliminate_unit_entries,
    gluing_equations,
    obstruction_test,
    sigma_cone,
    toric_ideal_generators,
)
from logcone.corpus import corpus_list, corpus_load
from logcone.graph import DecoratedDualGraph, EdgeData, VertexData
from logcone.lattice import IndexedBasis, build_rho, component_count, domain_basis, lattice_summary
from logcone.serialize import graph_from_dict
from logcone.tropical import tropical_feasibility

from helpers import (
    no_double_description,
    random_free_graph,
    random_layered_graph,
    random_reorientation,
    random_witness_graph,
    replace_extreme_rays,
    workload_graphs,
    workload_items,
)
from reference_intlinalg import det, lattice_index, mat_vec, primitive, solve_rational


def test_sigma_toricex_single_ray():
    cone = sigma_cone(corpus_load("toricex").graph)
    assert cone.extreme_rays == ((1, 1, 2, 2),)
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
    assert cone.is_top_dimensional_in_kernel


def test_rays_lie_in_kernel_and_orthant():
    rng = random.Random(41)
    for _ in range(30):
        g = random_witness_graph(rng, legs=False)
        cone = sigma_cone(g)
        _, _, rho = build_rho(g)
        for ray in cone.extreme_rays:
            assert all(x >= 0 for x in ray)
            assert all(v == 0 for v in mat_vec(rho, list(ray)))
            assert primitive(list(ray)) == list(ray)


def test_convexity_on_feasible_graphs():
    rng = random.Random(42)
    for _ in range(40):
        g = random_witness_graph(rng, legs=False)
        assert tropical_feasibility(g) is not None
        cone = sigma_cone(g)
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


def random_unchecked_graph(rng):
    """One-divisor graph that ignores the axioms: loops, zero and negative
    contacts, edges and vertices of depth {} anywhere, cycles of contacts,
    and possibly disconnected."""
    n = rng.randint(1, 7)
    depth = [frozenset("1") if rng.random() < 0.7 else frozenset() for _ in range(n)]
    edges = [
        EdgeData(
            f"e{k}",
            f"v{rng.randrange(n)}",
            f"v{rng.randrange(n)}",
            frozenset("1") if rng.random() < 0.8 else frozenset(),
            (rng.randint(-3, 3),),
        )
        for k in range(rng.randint(0, 10))
    ]
    vertices = tuple(VertexData(f"v{i}", 0, "t", d) for i, d in enumerate(depth))
    return DecoratedDualGraph(("1",), vertices, tuple(edges), ())


def test_one_divisor_rays_match_the_double_description(monkeypatch):
    rng = random.Random(103)
    graphs = []
    for _ in range(120):
        for g in (
            random_witness_graph(rng, max_divisors=1),
            random_free_graph(rng),
            random_layered_graph(rng, max_divisors=1),
            random_unchecked_graph(rng),
            random_unchecked_graph(rng),
        ):
            graphs += [g, random_reorientation(g, rng)]
    extreme_rays = dd.extreme_rays
    replace_extreme_rays(monkeypatch, no_double_description)
    kinds = set()
    for g in graphs:
        assert g.divisors == ("1",)
        halfspaces = list(zip(*lattice_summary(g).kernel_basis))
        cone = sigma_cone(g)
        assert cone.extreme_rays == tuple(extreme_rays(halfspaces))
        kinds |= {"loop" for e in g.edges if e.v1 == e.v2}
        kinds |= {"zero" for e in g.edges if e.depth and e.contact == (0,)}
        kinds |= {"negative" for e in g.edges if e.depth and e.contact[0] < 0}
        kinds |= {"bare edge" for e in g.edges if not e.depth}
        kinds |= {"bare vertex" for v in g.vertices if not v.depth}
        kinds.add("feasible" if tropical_feasibility(g) else "infeasible")
        kinds.add("non-simplicial" if len(cone.extreme_rays) > cone.kernel_dim else "simplicial")
    assert kinds == {
        "loop", "zero", "negative", "bare edge", "bare vertex", "feasible", "infeasible", "non-simplicial", "simplicial"
    }


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
            assert lattice_index(image_dual, il.hermite_row_basis(ideal)) == component_count(g)


def reference_gluing_equations(graph):
    """The edge-by-edge construction that gluing_equations replaced."""
    dom = domain_basis(graph)
    col = {lab: i for i, lab in enumerate(dom.labels)}
    exponents = []
    seen = set()
    for e in sorted(graph.edges, key=lambda e: e.id):
        for label in sorted(e.depth, key=graph.divisors.index):
            s = e.contact[graph.divisors.index(label)]
            tail, head = (e.v1, e.v2) if s >= 0 else (e.v2, e.v1)
            m = [0] * len(dom)
            m[col[("edge", e.id)]] = abs(s)
            if e.v1 != e.v2:
                if label in graph.vertex(tail).depth:
                    m[col[("vertex", tail, label)]] += 1
                if label in graph.vertex(head).depth:
                    m[col[("vertex", head, label)]] -= 1
            lead = next((x for x in m if x != 0), 0)
            key = tuple(m) if lead >= 0 else tuple(-x for x in m)
            if key not in seen and any(key):
                seen.add(key)
                exponents.append(tuple(m))
    return BinomialSystem(dom, tuple(exponents))


def test_gluing_equations_match_the_edge_by_edge_reference():
    # a loop with contact +2 and -2: its two rows are one exponent up to sign
    loop = graph_from_dict(
        {
            "schema": "logcone/1",
            "divisors": ["1", "2"],
            "vertices": [
                {"id": "v1", "genus": 0, "degree": "a", "depth": ["1", "2"]},
                {"id": "v2", "genus": 0, "degree": "b", "depth": ["1"]},
            ],
            "edges": [
                {"id": "e1", "from": "v1", "to": "v2", "depth": ["1"], "contact": {"1": 1}},
                {"id": "e2", "from": "v1", "to": "v1", "depth": ["1", "2"], "contact": {"1": 2, "2": -2}},
            ],
            "legs": [],
        }
    )
    system = gluing_equations(loop)
    assert system.basis.labels[1] == ("edge", "e2")
    assert [m for m in system.exponents if m[1]] == [(0, 2, 0, 0, 0)]
    graphs = cone_graphs(61) + workload_graphs() + [loop]
    assert len(graphs) > 700
    for g in graphs:
        assert gluing_equations(g) == reference_gluing_equations(g)


def zero_contact_rows(graph):
    summary = lattice_summary(graph)
    col = {lab[1]: j for j, lab in enumerate(summary.domain.labels) if lab[0] == "edge"}
    return [row for row, lab in zip(summary.rho, summary.target.labels) if row[col[lab[1]]] == 0]


def test_gluing_equations_rescan_the_sign_of_zero_contact_rows_only(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return _canonical_sign(m)

    monkeypatch.setattr("logcone.cone._canonical_sign", counted)
    rng = random.Random(71)
    expected = []
    for _ in range(60):
        g = random_free_graph(rng, n_divisors=rng.randint(1, 3))
        assert gluing_equations(g) == reference_gluing_equations(g)
        expected += zero_contact_rows(g)
    # a zero contact entry leaves the lead to a vertex entry of either sign
    assert any(_canonical_sign(m) != m for m in expected)
    assert calls == expected


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


def reference_eliminate_unit_entries(system):
    """The elimination loop that rescans every vector from the first one
    after each pivot: the quadratic version ``eliminate_unit_entries``
    replaced, kept as its reference."""
    vectors = [list(m) for m in system.exponents]
    labels = list(system.basis.labels)
    changed = True
    while changed:
        changed = False
        for vi, vec in enumerate(vectors):
            unit = next(
                (j for j, x in enumerate(vec) if abs(x) == 1 and labels[j][0] == "vertex"),
                None,
            )
            if unit is None:
                continue
            sign = vec[unit]
            for wi, w in enumerate(vectors):
                if wi != vi and w[unit] != 0:
                    f = w[unit] * sign
                    vectors[wi] = [a - f * b for a, b in zip(w, vec)]
            del vectors[vi]
            for w in vectors:
                del w[unit]
            del labels[unit]
            changed = True
            break
    return [tuple(v) for v in vectors], labels


def test_eliminate_unit_entries_matches_rescanning_loop():
    rng = random.Random(50)
    systems = []
    for _ in range(40):
        for g in (random_witness_graph(rng), random_free_graph(rng, n_divisors=2), random_layered_graph(rng)):
            systems.append(toric_ideal_generators(g))
            systems.append(gluing_equations(g))
    for g in workload_graphs():
        systems.append(toric_ideal_generators(g))
        systems.append(gluing_equations(g))
    for _ in range(200):
        n = rng.randint(1, 9)
        labels = tuple((rng.choice(("edge", "vertex")), f"x{j}", "1") for j in range(n))
        exponents = tuple(
            tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)) for _ in range(rng.randint(0, 8))
        )
        systems.append(BinomialSystem(IndexedBasis(labels), exponents))
    eliminated = 0
    for system in systems:
        got = eliminate_unit_entries(system)
        assert got == reference_eliminate_unit_entries(system)
        eliminated += len(system.exponents) - len(got[0])
    assert eliminated > 1000


def test_eliminate_unit_entries_down_to_one_or_no_column():
    def system(labels, exponents):
        return BinomialSystem(IndexedBasis(tuple(labels)), tuple(exponents))

    e, a, b = ("edge", "e"), ("vertex", "a", "1"), ("vertex", "b", "1")
    # t_a and then t_b are substituted away, leaving eps_e^2 = 1
    one = system((e, a, b), [(2, 1, 0), (3, 0, -1), (1, 1, 1)])
    assert eliminate_unit_entries(one) == ([(2,)], [e])
    # every column is a pivot; the leftover relation is the empty vector
    none = system((a, b), [(1, 2), (0, 1), (3, 5)])
    assert eliminate_unit_entries(none) == ([()], [])
    assert eliminate_unit_entries(system((a,), [(-1,)])) == ([], [])
    assert eliminate_unit_entries(system((a,), [])) == ([], [a])
    assert eliminate_unit_entries(system((), [()])) == ([()], [])
    for s in (one, none):
        assert eliminate_unit_entries(s) == reference_eliminate_unit_entries(s)


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


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 5e-324])
def test_obstruction_is_exact_for_extreme_eta_on_the_image(scale):
    # the character of toricex is [1, 1, -1, -1], so equal entries give 1
    g = corpus_load("toricex").graph
    eta = {(e.id, lab): complex(scale, scale) for e in g.edges for lab in e.depth}
    verdict = obstruction_test(g, ObstructionInput(eta))
    assert verdict.is_identity, verdict.violations


def test_obstruction_overflow_is_a_finite_violation():
    g = corpus_load("toricex").graph
    eta = {("e1", "1"): 1e200, ("e1", "2"): 1e200, ("e2", "1"): 1e-200, ("e2", "2"): 1e-200}
    verdict = obstruction_test(g, ObstructionInput(eta))
    assert verdict.violations == (((1, 1, -1, -1), sys.float_info.max),)
    # a value that is tiny but not zero is far from the identity, not an error
    eta = {("e1", "1"): 1e-200, ("e1", "2"): 1e-200, ("e2", "1"): 1e200, ("e2", "2"): 1e200}
    assert obstruction_test(g, ObstructionInput(eta)).violations == (((1, 1, -1, -1), 1.0),)


def cramer_rays(A, idx):
    """Extreme rays of {x : A[idx] x >= 0}, one exact solve per ray."""
    M = [A[i] for i in idx]
    d = abs(det(M))
    rays = []
    for j in range(len(idx)):
        sol = solve_rational(M, [d if i == j else 0 for i in range(len(idx))])
        assert all(x.denominator == 1 for x in sol)
        rays.append(primitive([int(x) for x in sol]))
    return rays


def cramer_images(A, idx):
    """The rays of :func:`cramer_rays` as primitive images A x."""
    return [primitive(mat_vec(A, x)) for x in cramer_rays(A, idx)]


def assert_rank_increments(A, idx):
    """idx are, in order, exactly the rows of A that raise the rank of the
    rows before them, until the rank is full."""
    ranks = [il.rank(A[: i + 1]) for i in range(idx[-1] + 1)]
    assert [i for i, r in enumerate(ranks) if r > (ranks[i - 1] if i else 0)] == idx
    assert ranks[-1] == len(A[0])


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
    kernels = len(systems)
    for _ in range(40):
        k = rng.randint(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k + rng.randint(0, 3))]
        if il.rank(A) == k:
            # a general system enters through its Hermite form
            systems.append(il.transpose(il.hermite_row_basis(il.transpose(A))))
    assert kernels > 40 and len(systems) > 60
    for A in systems:
        # the pivot block of an echelon basis is its first independent rows
        idx, rays = dd._start(A, len(A[0]))
        assert_rank_increments(A, idx)
        assert rays == cramer_images(A, idx)


def random_triangular_system(rng):
    """Lower-triangular rows with negative and non-unit diagonals, spread
    among dependent rows and followed by arbitrary ones."""
    k = rng.randint(1, 7)
    A = []
    for t in range(k):
        for _ in range(rng.randint(0, 2)):
            # ends before column t: dependent on the rows chosen so far
            A.append([rng.randint(-4, 4) if j < t else 0 for j in range(k)])
        diagonal = rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 5, 7))
        A.append([rng.randint(-6, 6) if j < t else diagonal if j == t else 0 for j in range(k)])
    A += [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(0, 4))]
    return A


def test_triangular_start_matches_one_solve_per_ray():
    rng = random.Random(53)
    for _ in range(200):
        A = random_triangular_system(rng)
        idx, rays = dd._start(A, len(A[0]))
        assert_rank_increments(A, idx)
        assert rays == cramer_images(A, idx)
    assert dd._start([[1, 0], [0, 1]], 2)[0] == [0, 1]
    assert dd._start([[0, 0], [2, 0], [1, 3]], 2)[0] == [1, 2]
    # two basis rows with the same pivot: not the transpose of an echelon basis
    with pytest.raises(ValueError, match="echelon"):
        dd._start([[1, 1], [1, 0], [0, 1]], 2)
    with pytest.raises(ValueError, match="echelon"):
        dd.extreme_rays([[1, 1], [1, 0], [0, 1]])
    with pytest.raises(ValueError, match="full column rank"):
        dd.extreme_rays([[1, 0], [2, 0]])


def cone_graphs(seed):
    """The helper families, their reorientations and the corpus."""
    rng = random.Random(seed)
    graphs = [corpus_load(name).graph for name in corpus_list()]
    for _ in range(40):
        for g in (
            random_witness_graph(rng),
            random_free_graph(rng, n_divisors=rng.randint(1, 3)),
            random_layered_graph(rng, max_layers=4),
        ):
            graphs += [g, random_reorientation(g, rng)]
    return graphs


def test_sigma_cone_halfspaces_are_an_echelon_transpose():
    # extreme_rays raises on any other system, so every graph's kernel
    # halfspaces reach it in the form it requires
    rays = 0
    for g in cone_graphs(59):
        for r in sigma_cone(g).extreme_rays:
            assert math.gcd(*r) == 1
            rays += 1
    assert rays > 500


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


def reference_top_dimensional(graph):
    """The nested-generator flag that sigma_cone's column sums replaced."""
    kernel = lattice_summary(graph).kernel_basis
    if not kernel:
        return True
    halfspaces = [list(col) for col in zip(*kernel)]
    rays = sigma_cone(graph).extreme_rays
    return all(any(r[j] for r in rays) for j, h in enumerate(halfspaces) if any(h))


def test_top_dimensional_flag_matches_the_nested_generator():
    seen = set()
    for g in cone_graphs(67) + workload_graphs():
        cone = sigma_cone(g)
        assert cone.is_top_dimensional_in_kernel == reference_top_dimensional(g)
        # with a kernel but no ray, the flag reads only the halfspaces
        seen.add((bool(cone.kernel_dim), bool(cone.extreme_rays), cone.is_top_dimensional_in_kernel))
    assert seen >= {(True, True, True), (True, True, False), (True, False, False), (False, False, True)}


def reference_obstruction_test(graph, eta, tol=DEFAULT_TOL):
    """obstruction_test summing each character with a generator: the
    version the C-level sum replaced, kept as its reference (inputs are
    assumed valid)."""
    summary = lattice_summary(graph)
    logs = [cmath.log(complex(eta.eta[(lab[1], lab[2])])) for lab in summary.target.labels]
    violations = []
    for m in summary.characters:
        acc = sum(mi * lz for mi, lz in zip(m, logs) if mi != 0)
        try:
            dist = abs(cmath.exp(acc) - 1)
        except OverflowError:
            dist = sys.float_info.max
        if not dist <= tol:
            violations.append((m, dist))
    return ObstructionVerdict(not violations, tuple(violations))


def planted_eta(graph, rng):
    """eta = exp(rho xi) for a random complex xi: a point of the image torus."""
    summary = lattice_summary(graph)
    xi = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in summary.domain.labels]
    return {
        (lab[1], lab[2]): cmath.exp(sum(c * x for c, x in zip(row, xi)))
        for lab, row in zip(summary.target.labels, summary.rho)
    }


def test_obstruction_test_matches_the_generator_sum_exactly():
    rng = random.Random(73)
    cases = [(g, planted_eta(g, rng)) for g in cone_graphs(71)]
    cases += [(item.graph, item.eta.eta if item.eta else planted_eta(item.graph, rng)) for item in workload_items()]
    identity = violated = overflowed = 0
    for g, planted in cases:
        keys = sorted(planted)
        perturbed = {k: z * complex(1 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for k, z in planted.items()}
        # huge and tiny entries side by side make some characters overflow
        mixed = {k: rng.choice((1e200, 1e-200)) for k in keys}
        for eta in (planted, perturbed, dict.fromkeys(keys, 1e200), dict.fromkeys(keys, 1e-200), mixed):
            got = obstruction_test(g, ObstructionInput(eta))
            assert got == reference_obstruction_test(g, ObstructionInput(eta))
            identity += got.is_identity
            violated += not got.is_identity
            overflowed += any(dist == sys.float_info.max for _, dist in got.violations)
    assert len(cases) > 700
    assert identity and violated and overflowed
