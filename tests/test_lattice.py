import dataclasses
import random

import pytest

from logcone import intlinalg as il
from logcone import lattice, report
from logcone.cone import ObstructionInput, obstruction_test, sigma_cone, toric_ideal_generators
from logcone.corpus import corpus_list, corpus_load
from logcone.dims import expected_dim_stratum
from logcone.graph import restrict_graph
from logcone.lattice import build_rho, component_count, domain_basis, lattice_summary, target_basis
from logcone.serialize import graph_from_dict, graph_to_dict

from helpers import random_free_graph, random_layered_graph, random_reorientation, random_witness_graph
from reference_intlinalg import lattice_index


def column(matrix, j):
    return [row[j] for row in matrix]


def test_rho_toricex_matches_hand_computation():
    g = corpus_load("toricex").graph
    dom, tgt, rho = build_rho(g)
    assert dom.labels == (
        ("edge", "e1"),
        ("edge", "e2"),
        ("vertex", "v1", "1"),
        ("vertex", "v2", "2"),
    )
    assert tgt.labels == (
        ("node", "e1", "1"),
        ("node", "e1", "2"),
        ("node", "e2", "1"),
        ("node", "e2", "2"),
    )
    assert column(rho, 0) == [-2, 2, 0, 0]
    assert column(rho, 1) == [0, 0, -2, 2]
    assert column(rho, 2) == [1, 0, 1, 0]
    assert column(rho, 3) == [0, -1, 0, -1]


def test_rho_d1rd22pt_matches_hand_computation():
    g = corpus_load("d1rd22pt").graph
    dom, tgt, rho = build_rho(g)
    # edge columns are unit vectors, vertex columns are incidence signs
    assert column(rho, 0) == [1, 0, 0, 0]
    assert column(rho, 3) == [0, 0, 0, 1]
    assert column(rho, dom.labels.index(("vertex", "v1", "1"))) == [-1, 0, 1, 0]
    assert column(rho, dom.labels.index(("vertex", "v2", "1"))) == [0, -1, 0, 1]
    assert column(rho, dom.labels.index(("vertex", "v3", "1"))) == [0, 0, -1, -1]


def column_rho(graph):
    """The lattice map built column by column, scanning every edge for each
    domain generator: the construction ``build_rho`` replaced."""
    dom, tgt = domain_basis(graph), target_basis(graph)
    M = il.zeros(len(tgt), len(dom))
    row_of = {lab: i for i, lab in enumerate(tgt.labels)}
    for j, lab in enumerate(dom.labels):
        if lab[0] == "edge":
            e = next(e for e in graph.edges if e.id == lab[1])
            for div, value in zip(graph.divisors, e.contact):
                if div in e.depth:
                    M[row_of[("node", e.id, div)]][j] = value
        else:
            _, vid, div = lab
            for e in graph.edges:
                if e.v1 == e.v2 or div not in e.depth:
                    continue
                if e.v1 == vid:
                    M[row_of[("node", e.id, div)]][j] = 1
                elif e.v2 == vid:
                    M[row_of[("node", e.id, div)]][j] = -1
    return M


def test_rho_equals_column_construction_on_graph_families():
    rng = random.Random(9)
    families = (random_witness_graph, random_free_graph, random_layered_graph)
    for _ in range(30):
        for family in families:
            g = family(rng)
            h = random_reorientation(g, rng)
            assert build_rho(g)[2] == column_rho(g)
            assert build_rho(h)[2] == column_rho(h)


def test_empty_target_for_shallow_graph():
    rng = random.Random(1)
    # all depths empty: the target module is zero
    g = random_witness_graph(rng, max_divisors=1)
    import dataclasses

    g = dataclasses.replace(
        g,
        vertices=tuple(dataclasses.replace(v, depth=frozenset()) for v in g.vertices),
        edges=tuple(
            dataclasses.replace(e, depth=frozenset(), contact=(0,)) for e in g.edges
        ),
    )
    dom, tgt, rho = build_rho(g)
    assert len(tgt) == 0
    summary = lattice_summary(g)
    assert summary.image_rank == 0
    assert len(summary.kernel_basis) == len(dom)


def test_summary_rank_nullity_and_obstruction_formula():
    rng = random.Random(2)
    for _ in range(40):
        g = random_witness_graph(rng)
        s = lattice_summary(g)
        assert len(s.domain) == len(s.kernel_basis) + s.image_rank
        # obstruction dim = dim T - image rank; compare with the counting form
        # sum_e (|I_e| - 1) - sum_v |I_v| + dim K
        assert s.obstruction_dim == len(s.target) - s.image_rank
        counting = (
            sum(len(e.depth) - 1 for e in g.edges)
            - sum(len(v.depth) for v in g.vertices)
            + len(s.kernel_basis)
        )
        assert s.obstruction_dim == counting


def test_kernel_vectors_satisfy_edge_relations():
    rng = random.Random(4)
    for _ in range(30):
        g = random_witness_graph(rng)
        s = lattice_summary(g)
        idx = {lab: i for i, lab in enumerate(s.domain.labels)}
        for vec in s.kernel_basis:
            for e in g.edges:
                lam = vec[idx[("edge", e.id)]]
                for pos, lab in enumerate(g.divisors):
                    sv1 = vec[idx[("vertex", e.v1, lab)]] if ("vertex", e.v1, lab) in idx else 0
                    sv2 = vec[idx[("vertex", e.v2, lab)]] if ("vertex", e.v2, lab) in idx else 0
                    if e.v1 == e.v2:
                        continue
                    assert sv2 - sv1 == lam * e.contact[pos]


def test_orientation_invariance():
    rng = random.Random(6)
    for _ in range(40):
        g = random_witness_graph(rng)
        s1 = lattice_summary(g)
        s2 = lattice_summary(random_reorientation(g, rng))
        assert s1.kernel_basis == s2.kernel_basis
        assert s1.image_rank == s2.image_rank
        assert s1.cokernel_torsion == s2.cokernel_torsion
        assert s1.obstruction_dim == s2.obstruction_dim


def test_component_count_toricex():
    g = corpus_load("toricex").graph
    assert component_count(g) == 2
    s = lattice_summary(g)
    assert s.cokernel_torsion == (2,)


def test_component_count_trivial_for_unimodular():
    g = corpus_load("d1rd22pt").graph
    assert component_count(g) == 1


def test_component_count_equals_index_oracle():
    rng = random.Random(8)
    for _ in range(40):
        g = random_witness_graph(rng)
        s = lattice_summary(g)
        # Im(rho^vee) in the dual of the domain is spanned by the rows of rho
        image_dual = [row[:] for row in s.rho]
        # K-perp: integer vectors orthogonal to every kernel generator
        if s.kernel_basis:
            kperp = il.kernel_basis([list(r) for r in s.kernel_basis])
        else:
            kperp = il.identity(len(s.domain))
        index = lattice_index(
            il.hermite_row_basis(image_dual), il.hermite_row_basis(kperp)
        )
        assert component_count(g) == index


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_summary_makes_one_smith_form(monkeypatch):
    calls = counting(monkeypatch, il, "smith_normal_form")
    summary = lattice_summary(corpus_load("d1rd22pt").graph)
    # one Smith form of rho: U gives the characters and the annihilator of
    # the kernel, V the kernel
    assert len(calls) == 1
    assert tuple(map(tuple, calls[0][0])) == summary.rho


def smith_forms_of_rho(smiths, graph):
    """The recorded il.smith_normal_form calls whose input is the graph's rho."""
    rho = lattice_summary(graph).rho
    return [args for args in smiths if tuple(map(tuple, args[0])) == rho]


def unit_eta(graph):
    return ObstructionInput({lab[1:]: 1 for lab in target_basis(graph).labels})


@pytest.mark.parametrize("name", ["d1rd22pt", "toricex", "ddecomp-d3"])
def test_library_path_builds_one_rho_and_one_smith_form(name, monkeypatch):
    # summaries are kept per graph object, so the count assumes a fresh graph
    entry = corpus_load(name)
    g = entry.graph
    rhos = counting(monkeypatch, lattice, "build_rho")
    smiths = counting(monkeypatch, il, "smith_normal_form")
    lattice_summary(g)
    component_count(g)
    sigma_cone(g)
    toric_ideal_generators(g)
    obstruction_test(g, unit_eta(g))
    expected_dim_stratum(g, entry.context)
    assert len(rhos) == 1
    assert len(smith_forms_of_rho(smiths, g)) == 1


@pytest.mark.parametrize("name", corpus_list())
def test_library_path_takes_one_smith_form_in_total(name, monkeypatch):
    entry = corpus_load(name)
    g = entry.graph
    smiths = counting(monkeypatch, il, "smith_normal_form")
    lattice_summary(g)
    component_count(g)
    sigma_cone(g)
    toric_ideal_generators(g)
    obstruction_test(g, unit_eta(g))
    expected_dim_stratum(g, entry.context)
    assert len(smiths) == 1


@pytest.mark.parametrize("name", ["d1rd22pt", "toricex", "ddecomp-d3"])
def test_build_report_builds_one_rho_and_one_smith_form(name, monkeypatch):
    entry = corpus_load(name)
    rhos = counting(monkeypatch, lattice, "build_rho")
    smiths = counting(monkeypatch, il, "smith_normal_form")
    out = report.build_report(entry.graph, b"", entry.context)
    assert len(rhos) == 1
    assert len(smith_forms_of_rho(smiths, entry.graph)) == 1
    assert out["component_count"] == component_count(corpus_load(name).graph)


def test_derived_graphs_do_not_inherit_the_analysis(monkeypatch):
    g = corpus_load("toricex").graph
    lattice_summary(g)
    derived = (
        g.reorient(["e1"]),
        restrict_graph(g, ["1"]),
        dataclasses.replace(g),
    )
    rhos = counting(monkeypatch, lattice, "build_rho")
    for h in derived:
        before = len(rhos)
        summary = lattice_summary(h)
        assert len(rhos) == before + 1
        assert summary == lattice_summary(graph_from_dict(graph_to_dict(h)))


def test_analysis_leaves_graph_identity_alone():
    g, fresh = corpus_load("d1rd22pt").graph, corpus_load("d1rd22pt").graph
    lattice_summary(g)
    assert g == fresh
    assert hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)
    assert graph_to_dict(g) == graph_to_dict(fresh)


def test_shared_summary_is_immutable():
    g = corpus_load("toricex").graph
    with pytest.raises(TypeError):
        lattice_summary(g).rho[0][0] += 1
    assert obstruction_test(g, unit_eta(g)).is_identity


def characters_from_transpose(summary):
    """The characters as an SNF of rho transposed gives them."""
    return il.hermite_row_basis(il.left_kernel_basis(summary.rho)) if summary.rho else []


def toric_basis_from_kernel(summary):
    """The annihilator of the kernel as an SNF of the kernel basis gives it."""
    kernel = [list(r) for r in summary.kernel_basis]
    rows = il.kernel_basis(kernel) if kernel else il.identity(len(summary.domain))
    return il.hermite_row_basis(rows) if rows else []


def assert_bases_match_separate_smith_forms(g):
    s = lattice_summary(g)
    for basis in (s.kernel_basis, s.characters, s.toric_basis):
        assert type(basis) is tuple
        assert all(type(row) is tuple for row in basis)
    assert [list(m) for m in s.characters] == characters_from_transpose(s)
    assert [list(m) for m in s.toric_basis] == toric_basis_from_kernel(s)
    assert len(s.characters) == len(s.target) - s.image_rank
    assert len(s.toric_basis) == s.image_rank
    return s


def test_characters_and_toric_basis_match_separate_smith_forms():
    rng = random.Random(12)
    families = (random_witness_graph, random_free_graph, random_layered_graph)
    for _ in range(30):
        for family in families:
            g = family(rng)
            assert_bases_match_separate_smith_forms(g)
            assert_bases_match_separate_smith_forms(random_reorientation(g, rng))
    for name in corpus_list():
        assert_bases_match_separate_smith_forms(corpus_load(name).graph)


def test_bases_without_rows_or_kernel():
    from logcone.graph import DecoratedDualGraph, EdgeData, VertexData

    # no rows: every depth is empty, so rho is 0 x n and the kernel is everything
    no_rows = DecoratedDualGraph(
        ("1",),
        (VertexData("a", 0, "t", frozenset()), VertexData("b", 0, "t", frozenset())),
        (EdgeData("e", "a", "b", frozenset(), (0,)),),
        (),
    )
    s = assert_bases_match_separate_smith_forms(no_rows)
    assert s.kernel_basis == ((1,),)
    assert s.characters == s.toric_basis == ()
    # empty domain: one vertex, no edges
    empty = DecoratedDualGraph((), (VertexData("v", 0, "t", frozenset()),), (), ())
    s = assert_bases_match_separate_smith_forms(empty)
    assert s.kernel_basis == s.characters == s.toric_basis == ()
    # trivial kernel: a loop at a depth-empty vertex gives rho = [[2]]
    loop = DecoratedDualGraph(
        ("1",),
        (VertexData("v", 0, "t", frozenset()),),
        (EdgeData("e", "v", "v", frozenset({"1"}), (2,)),),
        (),
    )
    s = assert_bases_match_separate_smith_forms(loop)
    assert s.rho == ((2,),)
    assert s.kernel_basis == s.characters == ()
    assert s.toric_basis == ((1,),)
