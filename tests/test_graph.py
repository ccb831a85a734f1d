import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from logcone import graph as graph_module
from logcone.corpus import corpus_load
from logcone.graph import (
    DecoratedDualGraph,
    EdgeData,
    GeometryContext,
    LegData,
    StructuralError,
    VertexData,
    arithmetic_genus,
    enumerate_edge_decorations,
    restrict_graph,
    smooth_divisor_partial_order,
    validate_graph,
)
from logcone.serialize import graph_to_dict
from logcone.tropical import decide, tropical_feasibility, verify_certificate, verify_witness

from helpers import (
    matching_context,
    one_divisor_chain,
    one_divisor_cycle,
    random_free_graph,
    random_layered_graph,
    random_one_divisor_graph,
    random_reorientation,
    random_witness_graph,
)
from reference_graph import reference_enumerate_edge_decorations, reference_smooth_divisor_partial_order


def simple_graph():
    return DecoratedDualGraph(
        divisors=("1",),
        vertices=(
            VertexData("a", 0, "t", frozenset()),
            VertexData("b", 0, "t", frozenset({"1"})),
        ),
        edges=(EdgeData("e", "a", "b", frozenset({"1"}), (1,)),),
        legs=(LegData("l", "a", 1, (0,)),),
    )


def test_structural_errors():
    with pytest.raises(StructuralError):
        DecoratedDualGraph(("1",), (), (EdgeData("e", "x", "y", frozenset(), (0,)),), ())
    with pytest.raises(StructuralError):
        DecoratedDualGraph(
            ("1",),
            (VertexData("a", 0, "t", frozenset()), VertexData("a", 0, "t", frozenset())),
            (),
            (),
        )
    with pytest.raises(StructuralError):
        DecoratedDualGraph(
            ("1",),
            (VertexData("a", 0, "t", frozenset()),),
            (),
            (LegData("l", "missing", 1, (0,)),),
        )


def test_validate_simple_valid():
    report = validate_graph(simple_graph())
    assert report.violations == ()
    assert report.tropical_feasible is True
    assert report.valid


def test_validate_reports_depth_union_violation():
    g = simple_graph()
    bad = DecoratedDualGraph(
        g.divisors,
        g.vertices,
        (EdgeData("e", "a", "b", frozenset(), (0,)),),
        g.legs,
    )
    report = validate_graph(bad)
    assert any(v.code == "edge-depth" for v in report.violations)


def test_validate_reports_support_violation():
    g = DecoratedDualGraph(
        ("1", "2"),
        (
            VertexData("a", 0, "t", frozenset({"1"})),
            VertexData("b", 0, "t", frozenset({"1"})),
        ),
        (EdgeData("e", "a", "b", frozenset({"1"}), (0, 2)),),
        (),
    )
    report = validate_graph(g)
    assert any(v.code == "contact-support" for v in report.violations)


def test_validate_reports_stored_antisymmetry_violation():
    entry = corpus_load("ddecomp-d2")
    g = entry.graph
    e0 = g.edges[0]
    mutated = DecoratedDualGraph(
        g.divisors,
        g.vertices,
        (EdgeData(e0.id, e0.v1, e0.v2, e0.depth, e0.contact, e0.contact),) + g.edges[1:],
        g.legs,
    )
    report = validate_graph(mutated)
    assert any(v.code == "antisymmetry" for v in report.violations)


def test_validate_leg_ordering():
    g = simple_graph()
    bad = DecoratedDualGraph(g.divisors, g.vertices, g.edges, (LegData("l", "a", 2, (0,)),))
    report = validate_graph(bad)
    assert any(v.code == "leg-ordering" for v in report.violations)


def test_validate_connectivity():
    g = DecoratedDualGraph(
        ("1",),
        (VertexData("a", 0, "t", frozenset()), VertexData("b", 0, "t", frozenset())),
        (),
        (),
    )
    report = validate_graph(g)
    assert any(v.code == "connectivity" for v in report.violations)


def test_validate_degree_balance():
    entry = corpus_load("toricex")
    report = validate_graph(entry.graph, entry.context)
    assert report.valid
    # breaking one leg contact must surface as a balance violation
    g = entry.graph
    l0 = g.legs[0]
    broken = DecoratedDualGraph(
        g.divisors,
        g.vertices,
        g.edges,
        (LegData(l0.id, l0.at, l0.index, (l0.contact[0] + 1, l0.contact[1])),) + g.legs[1:],
    )
    report = validate_graph(broken, entry.context)
    assert any(v.code == "degree-balance" for v in report.violations)


def test_arithmetic_genus():
    # five components of genera 0,2,0,1,0 in a cycle-closing arrangement
    vs = tuple(VertexData(f"v{i}", g, "t", frozenset()) for i, g in enumerate([0, 2, 0, 1, 0]))
    es = tuple(
        EdgeData(f"e{i}", f"v{i}", f"v{(i + 1) % 5}", frozenset(), ()) for i in range(5)
    )
    graph = DecoratedDualGraph((), vs, es, ())
    assert arithmetic_genus(graph) == 3 + 1

    single = DecoratedDualGraph((), (VertexData("v", 3, "t", frozenset()),), (), ())
    assert arithmetic_genus(single) == 3


def test_genus_invariant_under_reorientation():
    rng = random.Random(3)
    for _ in range(20):
        g = random_witness_graph(rng)
        flipped = g.reorient([e.id for e in g.edges[::2]])
        assert arithmetic_genus(flipped) == arithmetic_genus(g)


def test_partial_order_two_equal_vertices():
    g = DecoratedDualGraph(
        ("1",),
        (
            VertexData("a", 0, "t", frozenset({"1"})),
            VertexData("b", 0, "t", frozenset({"1"})),
        ),
        (EdgeData("e", "a", "b", frozenset({"1"}), (0,)),),
        (),
    )
    result = smooth_divisor_partial_order(g)
    assert result.ok
    assert result.levels["a"] == result.levels["b"] == 1


def test_partial_order_parallel_edge_conflict():
    g = DecoratedDualGraph(
        ("1",),
        (
            VertexData("a", 0, "t", frozenset({"1"})),
            VertexData("b", 0, "t", frozenset({"1"})),
        ),
        (
            EdgeData("e1", "a", "b", frozenset({"1"}), (1,)),
            EdgeData("e2", "a", "b", frozenset({"1"}), (-1,)),
        ),
        (),
    )
    result = smooth_divisor_partial_order(g)
    assert not result.ok
    assert result.failure[0] == "inconsistent-parallel-edges"


CYCLE_PROBE = """
from logcone.graph import DecoratedDualGraph, EdgeData, VertexData, smooth_divisor_partial_order
one = frozenset({"1"})
vertices = tuple(VertexData(f"v{i}", 0, "t", one) for i in range(8))
edges = [EdgeData(f"e{i}", f"v{i}", f"v{(i + 1) % 8}", one, (1,)) for i in range(8)]
edges.append(EdgeData("e8", "v0", "v4", one, (1,)))
print(smooth_divisor_partial_order(DecoratedDualGraph(("1",), vertices, tuple(edges), ())).failure)
"""


def test_partial_order_cycle_certificate_ignores_hash_seed():
    # an 8-cycle with a chord has two cycles; the walk must not pick its
    # start or its next step in set order, which the hash seed changes
    src = Path(graph_module.__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, "-c", CYCLE_PROBE], cwd=src, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs == ["('cycle', 'v0', 'v7', 'v6', 'v5', 'v4', 'v0')\n"] * 2


def test_partial_order_matches_the_peeling_reference():
    # levels, failure tuples and walks, byte for byte, against the order
    # that peeled one level per scan of every class
    rng = random.Random(31)
    graphs = []
    for _ in range(3000):
        g = random_one_divisor_graph(rng)
        graphs += [g, random_reorientation(g, rng)]
    for _ in range(300):
        graphs += [
            random_witness_graph(rng, max_divisors=1),
            random_free_graph(rng),
            random_layered_graph(rng, max_layers=4, max_width=4, max_divisors=1),
        ]
    graphs += [one_divisor_chain(3000), one_divisor_chain(3000, reverse=True), one_divisor_cycle(3000)]
    kinds = set()
    for g in graphs:
        result = smooth_divisor_partial_order(g)
        assert result == reference_smooth_divisor_partial_order(g)
        if not result.ok:
            kind, *ends = result.failure
            kinds.add("loop" if kind == "inconsistent-parallel-edges" and ends[0] == ends[1] else kind)
    assert kinds == {"loop", "inconsistent-parallel-edges", "depth-level-clash", "cycle", "order-violation"}


def test_partial_order_on_long_chains_and_cycles():
    # results only: the order once took quadratic time on these
    n = 10_000
    for g in (one_divisor_chain(n), one_divisor_chain(n, reverse=True)):
        assert smooth_divisor_partial_order(g).levels == {f"v{i}": i for i in range(n)}
        witness, cert = decide(g)
        assert cert is None
        assert verify_witness(g, witness) == (True, [])
    g = one_divisor_cycle(n)
    result = smooth_divisor_partial_order(g)
    # from v0 each step goes to the one predecessor, down the cycle
    assert result.failure == ("cycle", "v0", *(f"v{i}" for i in range(n - 1, 0, -1)), "v0")
    assert sorted(result.walk) == sorted((f"e{i}", 1) for i in range(n))
    witness, cert = decide(g)
    assert witness is None
    assert verify_certificate(g, cert) == (True, [])


def test_partial_order_requires_single_divisor():
    entry = corpus_load("toricex")
    with pytest.raises(ValueError):
        smooth_divisor_partial_order(entry.graph)


def test_restrict_identity_and_composition():
    entry = corpus_load("toricex")
    g = entry.graph
    assert graph_to_dict(restrict_graph(g, g.divisors)) == graph_to_dict(g)
    one_step = restrict_graph(g, ("1",))
    two_step = restrict_graph(restrict_graph(g, ("1", "2")), ("1",))
    assert graph_to_dict(one_step) == graph_to_dict(two_step)


def test_restrict_ddecomp_single_divisor():
    entry = corpus_load("ddecomp-d2")
    r = restrict_graph(entry.graph, ("1",))
    assert r.vertex("v1").depth == frozenset({"1"})
    assert r.vertex("v2").depth == frozenset()
    for e in r.edges:
        assert e.contact == (-1,)


def test_restrict_rejects_unknown_labels():
    entry = corpus_load("toricex")
    with pytest.raises(ValueError):
        restrict_graph(entry.graph, ("1", "zzz"))


def test_enumerate_tree_unique():
    rng = random.Random(21)
    found_nonempty = 0
    for _ in range(40):
        g = random_witness_graph(rng, max_edges=0, legs=True, allow_loops=False)
        g = dataclasses.replace(
            g, vertices=tuple(dataclasses.replace(v, genus=0) for v in g.vertices)
        )
        ctx = matching_context(g, rng)
        results = enumerate_edge_decorations(g, ctx)
        assert len(results) <= 1
        if results:
            found_nonempty += 1
            stored = {e.id: e.contact for e in g.edges}
            assert results[0] == stored
    assert found_nonempty >= 5


def test_enumerate_toricex_with_bound():
    entry = corpus_load("toricex")
    results = enumerate_edge_decorations(entry.graph, entry.context, bound=3)
    stored = {e.id: e.contact for e in entry.graph.edges}
    assert stored in results


def test_enumerate_cycle_requires_bound():
    entry = corpus_load("toricex")
    with pytest.raises(ValueError):
        enumerate_edge_decorations(entry.graph, entry.context)


def test_enumerate_rejects_a_negative_bound():
    entry = corpus_load("toricex")
    assert {e.id: e.contact for e in entry.graph.edges} in enumerate_edge_decorations(
        entry.graph, entry.context, bound=2
    )
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_edge_decorations(entry.graph, entry.context, bound=-1)
    # a tree needs no bound, but a negative one is still an error
    tree = simple_graph()
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_edge_decorations(tree, matching_context(tree, random.Random(0)), bound=-1)


def _disjoint_union(g, h):
    """g beside h, their ids and degree tags prefixed apart."""

    def renamed(graph, p):
        return dataclasses.replace(
            graph,
            vertices=tuple(dataclasses.replace(v, id=p + v.id, degree=p + v.degree) for v in graph.vertices),
            edges=tuple(dataclasses.replace(e, id=p + e.id, v1=p + e.v1, v2=p + e.v2) for e in graph.edges),
            legs=tuple(dataclasses.replace(l, id=p + l.id, at=p + l.at) for l in graph.legs),
        )

    g, h = renamed(g, "a"), renamed(h, "b")
    return DecoratedDualGraph(g.divisors, g.vertices + h.vertices, g.edges + h.edges, g.legs + h.legs)


def _outcome(enumerate_fn, g, ctx, bound):
    try:
        return enumerate_fn(g, ctx, bound)
    except ValueError as exc:
        return type(exc)


def _triangle(n_div):
    """Vertices at positions 1, 2, 3 on every label, joined in a cycle along
    which the contacts can shift: two decorations per label at bound 2,
    which the chord search meets in the other order."""
    labels = tuple(str(k + 1) for k in range(n_div))
    depth = frozenset(labels)
    return DecoratedDualGraph(
        labels,
        tuple(VertexData(vid, 0, f"deg{vid}", depth) for vid in "abc"),
        (
            EdgeData("e0", "b", "a", depth, (-1,) * n_div),
            EdgeData("e1", "b", "c", depth, (1,) * n_div),
            EdgeData("e2", "a", "c", depth, (2,) * n_div),
        ),
        (),
    )


def _decoration_cases():
    """Seeded helper graphs and disjoint unions, with contexts that balance
    their stored contacts (every fourth one thrown off), then two triangles."""
    rng = random.Random(27)
    for i in range(90):
        n_div = 1 + i % 2
        if i % 3 == 0:
            g = random_witness_graph(rng, 4, 4, n_div)
        elif i % 3 == 1:
            g = random_free_graph(rng, 4, 4, n_divisors=n_div)
        else:
            g = random_witness_graph(rng, 3, 3, n_div)
            g = _disjoint_union(g, random_free_graph(rng, 3, 3, n_divisors=len(g.divisors)))
            assert not g.is_connected()
        ctx = matching_context(g, rng)
        if i % 4 == 3:  # a context no decoration balances
            tag = g.vertices[0].degree
            pairing = dict(ctx.divisor_pairing, **{tag: {k: x + 1 for k, x in ctx.divisor_pairing[tag].items()}})
            ctx = dataclasses.replace(ctx, divisor_pairing=pairing)
        yield g, ctx
    for n_div in (1, 2):
        g = _triangle(n_div)
        yield g, matching_context(g, rng)


def test_enumerate_matches_the_two_path_reference():
    kinds = set()
    for i, (g, ctx) in enumerate(_decoration_cases()):
        ends = [frozenset((e.v1, e.v2)) for e in g.edges]
        kinds |= {
            "tree" if g.is_connected() and len(g.edges) == len(g.vertices) - 1 else "cyclic",
            "connected" if g.is_connected() else "disconnected",
        }
        kinds |= {"loop" for e in g.edges if e.v1 == e.v2} | {"parallel" for k in ends if ends.count(k) > 1}
        for bound in (None, 0, 1, 2):
            want = _outcome(reference_enumerate_edge_decorations, g, ctx, bound)
            assert _outcome(enumerate_edge_decorations, g, ctx, bound) == want, (i, bound)
            if isinstance(want, list):
                kinds.add(("none", "one", "several")[min(len(want), 2)])
    assert kinds == {"tree", "cyclic", "connected", "disconnected", "loop", "parallel", "none", "one", "several"}


def test_loop_chords_are_searched_only_at_zero(monkeypatch):
    # a witness realizes no nonzero loop contact, so of the 25 x 25 chord
    # choices at bound 2 only the zero one reaches the tropical LP
    from logcone import tropical

    both = frozenset({"1", "2"})
    g = DecoratedDualGraph(
        ("1", "2"),
        (VertexData("v", 0, "t", both),),
        (EdgeData("a", "v", "v", both, (0, 0)), EdgeData("b", "v", "v", both, (0, 0))),
        (),
    )
    ctx = GeometryContext(2, ("1", "2"), {"t": 0}, {"t": {"1": 0, "2": 0}})
    calls = []
    feasibility = tropical.tropical_feasibility
    monkeypatch.setattr(tropical, "tropical_feasibility", lambda graph: calls.append(graph) or feasibility(graph))
    got = enumerate_edge_decorations(g, ctx, 2)
    assert len(calls) == 1
    assert got == [{"a": (0, 0), "b": (0, 0)}]
    assert got == reference_enumerate_edge_decorations(g, ctx, 2)


def test_random_witness_graphs_are_valid_and_feasible():
    rng = random.Random(9)
    for _ in range(30):
        g = random_witness_graph(rng, legs=False)
        report = validate_graph(g)
        assert report.violations == ()
        assert tropical_feasibility(g) is not None
