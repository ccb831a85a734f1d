"""End-to-end acceptance checks.

Each test pins one externally verifiable contract of the library: frozen
regression values on the embedded corpus, and structural identities that
must hold on large seeded random families.
"""

import cmath
import dataclasses
import random
from importlib import resources

import pytest

from logcone import intlinalg as il
from logcone.cone import (
    ObstructionInput,
    eliminate_unit_entries,
    gluing_equations,
    obstruction_test,
    sigma_cone,
    toric_ideal_generators,
)
from logcone.corpus import corpus_list, corpus_load
from logcone.dims import expected_dim_main, expected_dim_smooth_depth, expected_dim_stratum
from logcone.graph import (
    arithmetic_genus,
    enumerate_edge_decorations,
    smooth_divisor_partial_order,
    validate_graph,
)
from logcone.lattice import build_rho, component_count, lattice_summary
from logcone.report import build_report
from logcone.tropical import tropical_feasibility, verify_witness

from helpers import (
    matching_context,
    random_free_graph,
    random_reorientation,
    random_witness_graph,
)
from reference_intlinalg import lattice_index

OBSTRUCTION_TOL = 1e-9


def _feasibility_word(feasible):
    return "feasible" if feasible else "infeasible"


def _single_or_all(basis):
    return list(basis[0]) if len(basis) == 1 else [list(r) for r in basis]


def _smooth_depth_dims(e, rep):
    tags = [v.degree for v in e.graph.vertices]
    genus = arithmetic_genus(e.graph)
    dims = {lab: expected_dim_smooth_depth(e.context, genus, len(e.graph.legs), tags, [lab]) for lab in e.graph.divisors}
    return (dims, {lab: rep["dims"]["main_dim"] - 1 for lab in e.graph.divisors})


# Flags annotate an entry for readers; each names a frozen key that shows it.
CORPUS_FLAGS = {"genus-label-discrepancy": "genus"}

# For each key of a corpus entry's frozen ``expected`` block: the values
# the report and the library give for it; each must equal the frozen value.
CORPUS_EXPECTED = {
    "valid": lambda e, rep: (rep["validation"]["valid"], validate_graph(e.graph, e.context).valid),
    "structurally_valid": lambda e, rep: (
        not rep["validation"]["violations"],
        not validate_graph(e.graph, e.context).violations,
    ),
    "tropical": lambda e, rep: (
        _feasibility_word(rep["tropical"]["feasible"]),
        _feasibility_word(tropical_feasibility(e.graph) is not None),
    ),
    "genus": lambda e, rep: (rep["genus"], arithmetic_genus(e.graph)),
    "kernel_dim": lambda e, rep: (rep["lattice"]["kernel_dim"], len(lattice_summary(e.graph).kernel_basis)),
    "kernel_generator": lambda e, rep: (
        _single_or_all(rep["lattice"]["kernel_basis"]),
        _single_or_all(lattice_summary(e.graph).kernel_basis),
    ),
    "cokernel_torsion": lambda e, rep: (
        rep["lattice"]["cokernel_torsion"],
        list(lattice_summary(e.graph).cokernel_torsion),
    ),
    "obstruction_dim": lambda e, rep: (rep["lattice"]["obstruction_dim"], lattice_summary(e.graph).obstruction_dim),
    "component_count": lambda e, rep: (rep["component_count"], component_count(e.graph)),
    "extreme_rays": lambda e, rep: (
        rep["cone"]["extreme_rays"],
        [list(r) for r in sigma_cone(e.graph).extreme_rays],
    ),
    "extreme_ray_count": lambda e, rep: (len(rep["cone"]["extreme_rays"]), len(sigma_cone(e.graph).extreme_rays)),
    "gluing_equation_count": lambda e, rep: (
        len(rep["gluing"]["equations"]),
        len(gluing_equations(e.graph).exponents),
    ),
    "main_dim": lambda e, rep: (rep["dims"]["main_dim"], expected_dim_stratum(e.graph, e.context).main_dim),
    "stratum_dim": lambda e, rep: (rep["dims"]["stratum_dim"], expected_dim_stratum(e.graph, e.context).stratum_dim),
    "prelog_dim": lambda e, rep: (rep["dims"]["prelog_dim"], expected_dim_stratum(e.graph, e.context).prelog_dim),
    "smooth_depth_dims": _smooth_depth_dims,
    "partial_order_levels": lambda e, rep: (smooth_divisor_partial_order(e.graph).levels,),
    "witness_file": lambda e, rep: (
        e.expected["witness_file"] if verify_witness(e.graph, e.witness)[0] else "shipped witness fails",
    ),
    "flagged": lambda e, rep: (
        e.expected["flagged"] if CORPUS_FLAGS.get(e.expected["flagged"]) in e.expected else "unknown flag",
    ),
}


@pytest.mark.parametrize("name", corpus_list())
def test_corpus_expected_block(name):
    entry = corpus_load(name)
    raw = resources.files("logcone.data").joinpath(f"{name}.json").read_bytes()
    rep = build_report(entry.graph, raw, entry.context)
    assert entry.expected
    for key, want in sorted(entry.expected.items()):
        assert key in CORPUS_EXPECTED, f"unknown expected key {key!r}"
        for got in CORPUS_EXPECTED[key](entry, rep):
            assert got == want, key


def test_criterion_1_two_component_regression():
    g = corpus_load("toricex").graph
    summary = lattice_summary(g)
    kernel = [list(r) for r in summary.kernel_basis]
    assert il.hermite_row_basis(kernel) == il.hermite_row_basis([[1, 1, 2, 2]])
    assert component_count(g) == 2
    assert summary.cokernel_torsion == (2,)
    assert sorted(gluing_equations(g).rendered()) == [
        "eps_e1^2 = t_v1_1",
        "eps_e1^2 = t_v2_2",
        "eps_e2^2 = t_v1_1",
        "eps_e2^2 = t_v2_2",
    ]


def test_criterion_2_four_ray_cone_and_quadric():
    entry = corpus_load("d1rd22pt")
    g = entry.graph

    cone = sigma_cone(g)
    expected = sorted(
        [
            (0, 0, 1, 1, 0, 0, 1),
            (1, 0, 0, 1, 1, 0, 1),
            (0, 1, 1, 0, 0, 1, 1),
            (1, 1, 0, 0, 1, 1, 1),
        ]
    )
    # rays are primitive and canonically sorted, so set equality up to
    # permutation and positive scaling is plain equality
    assert sorted(cone.extreme_rays) == expected
    a1, a2, a3, a4 = expected
    assert [p + q for p, q in zip(a1, a4)] == [p + q for p, q in zip(a2, a3)]

    reduced, labels = eliminate_unit_entries(toric_ideal_generators(g))
    assert len(reduced) == 1
    assert all(lab[0] == "edge" for lab in labels)
    vec = reduced[0]
    assert sorted(vec) == [-1, -1, 1, 1]  # x_i x_j - x_k x_l after relabeling

    report = expected_dim_stratum(g, entry.context)
    assert report.main_dim == 7
    assert report.stratum_dim == 4
    assert report.obstruction_dim == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_criterion_3_degeneration_family(d):
    entry = corpus_load(f"ddecomp-d{d}")
    summary = lattice_summary(entry.graph)
    assert len(summary.kernel_basis) == 1
    assert summary.obstruction_dim == d - 1
    report = expected_dim_stratum(entry.graph, entry.context)
    assert report.main_dim == 8 * d
    assert report.stratum_dim == 8 * d - 1


def test_criterion_4_tropical_verdicts():
    assert tropical_feasibility(corpus_load("ex32").graph) is None
    for name in ("ex32-corrected", "2lines-case1", "2lines-case2", "2lines-case3"):
        entry = corpus_load(name)
        assert tropical_feasibility(entry.graph) is not None
        ok, violations = verify_witness(entry.graph, entry.witness)
        assert ok, violations
    for d in (2, 3, 4):
        assert tropical_feasibility(corpus_load(f"ddecomp-d{d}").graph) is not None


def test_criterion_5_orientation_invariance():
    rng = random.Random(101)
    for _ in range(100):
        g = random_witness_graph(rng)
        h = random_reorientation(g, rng)
        s1, s2 = lattice_summary(g), lattice_summary(h)
        assert il.hermite_row_basis([list(r) for r in s1.kernel_basis]) == il.hermite_row_basis(
            [list(r) for r in s2.kernel_basis]
        )
        assert s1.image_rank == s2.image_rank
        assert s1.cokernel_torsion == s2.cokernel_torsion
        assert s1.obstruction_dim == s2.obstruction_dim
        assert (tropical_feasibility(g) is None) == (tropical_feasibility(h) is None)
        assert sigma_cone(g).extreme_rays == sigma_cone(h).extreme_rays


def test_criterion_6_component_count_oracle():
    rng = random.Random(102)
    for _ in range(100):
        g = random_witness_graph(rng)
        s = lattice_summary(g)
        image_dual = il.hermite_row_basis([row[:] for row in s.rho])
        if s.kernel_basis:
            kperp = il.kernel_basis([list(r) for r in s.kernel_basis])
        else:
            kperp = il.identity(len(s.domain))
        assert component_count(g) == lattice_index(image_dual, il.hermite_row_basis(kperp))


def test_criterion_7_obstruction_soundness_and_completeness():
    rng = random.Random(103)
    # soundness: anything in the image of the exponentiated map passes
    for _ in range(30):
        g = random_witness_graph(rng, legs=False)
        _, tgt, rho = build_rho(g)
        n_cols = len(rho[0]) if rho else 0
        xi = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n_cols)]
        eta = {}
        for i, lab in enumerate(tgt.labels):
            eta[(lab[1], lab[2])] = cmath.exp(sum(rho[i][j] * xi[j] for j in range(n_cols)))
        verdict = obstruction_test(g, ObstructionInput(eta), tol=OBSTRUCTION_TOL)
        assert verdict.is_identity, verdict.violations

    # completeness: a 1% push along a detected character flips the verdict
    g = corpus_load("toricex").graph
    assert lattice_summary(g).obstruction_dim >= 1
    _, tgt, rho = build_rho(g)
    characters = il.left_kernel_basis(rho)
    assert characters
    idx = next(i for i, x in enumerate(characters[0]) if x != 0)
    eta = {(lab[1], lab[2]): 1.0 for lab in tgt.labels}
    assert obstruction_test(g, ObstructionInput(dict(eta)), tol=OBSTRUCTION_TOL).is_identity
    eta[(tgt.labels[idx][1], tgt.labels[idx][2])] = 1.01
    verdict = obstruction_test(g, ObstructionInput(eta), tol=OBSTRUCTION_TOL)
    assert not verdict.is_identity
    assert verdict.violations


def test_criterion_8_partial_order_matches_feasibility():
    rng = random.Random(104)
    seen_ok = seen_fail = 0
    for _ in range(100):
        g = random_free_graph(rng, n_divisors=1)
        result = smooth_divisor_partial_order(g)
        feasible = tropical_feasibility(g) is not None
        assert result.ok == feasible, result.failure
        if result.ok:
            seen_ok += 1
        else:
            seen_fail += 1
    assert seen_ok and seen_fail

    # balance pins down tree decorations: at most one candidate, and the
    # stored one is recovered when any exists
    found = 0
    for _ in range(40):
        g = random_witness_graph(rng, max_edges=1, allow_loops=False)
        g = dataclasses.replace(
            g, vertices=tuple(dataclasses.replace(v, genus=0) for v in g.vertices)
        )
        ctx = matching_context(g, rng)
        candidates = enumerate_edge_decorations(g, ctx)
        assert len(candidates) <= 1
        if candidates:
            found += 1
            assert candidates[0] == {e.id: e.contact for e in g.edges}
    assert found >= 5


def test_criterion_9_cone_convexity_on_feasible_graphs():
    rng = random.Random(105)
    for _ in range(100):
        g = random_witness_graph(rng, legs=False)
        assert tropical_feasibility(g) is not None
        cone = sigma_cone(g)
        assert cone.is_top_dimensional_in_kernel
        assert cone.kernel_dim == len(lattice_summary(g).kernel_basis)


def _cycle_rank(graph):
    parent = {v.id: v.id for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extra = 0
    for e in graph.edges:
        a, b = find(e.v1), find(e.v2)
        if a == b:
            extra += 1
        else:
            parent[a] = b
    return extra


def test_criterion_10_genus_and_dimension_identities():
    rng = random.Random(106)
    names = [
        "toricex",
        "d1rd22pt",
        "ex32",
        "ddecomp-d2",
        "ddecomp-d3",
        "ddecomp-d4",
    ]
    graphs = [(corpus_load(n).graph, corpus_load(n).context) for n in names]
    for _ in range(60):
        g = random_witness_graph(rng)
        graphs.append((g, matching_context(g, rng)))
    for g, ctx in graphs:
        assert arithmetic_genus(g) == sum(v.genus for v in g.vertices) + _cycle_rank(g)
        report = expected_dim_stratum(g, ctx)
        tags = [v.degree for v in g.vertices]
        main = expected_dim_main(ctx, report.genus, len(g.legs), tags)
        assert report.main_dim == main
        assert report.stratum_dim == main - len(lattice_summary(g).kernel_basis)
