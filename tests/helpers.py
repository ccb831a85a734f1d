"""Seeded random graph generators shared by the property tests.

Two modes: witness mode plants integer vertex positions first and derives
edge contacts from them, so the result is tropically feasible by
construction; free mode draws contacts independently and can produce
infeasible graphs.  Both respect the structural axioms (depth unions,
support condition, connectivity), so every output passes validation
without a geometry context.  The layered generator is a witness-mode
family whose parallel paths make the gluing cone often non-simplicial.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from logcone.graph import DecoratedDualGraph, EdgeData, GeometryContext, LegData, StructuralError, VertexData


def random_witness_graph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 8,
    max_divisors: int = 3,
    legs: bool = True,
    allow_loops: bool = True,
) -> DecoratedDualGraph:
    """Tropically feasible graph with |entries| <= 5."""
    n_div = rng.randint(1, max_divisors)
    divisors = tuple(str(i + 1) for i in range(n_div))
    n_v = rng.randint(1, max_vertices)
    vids = [f"v{i}" for i in range(n_v)]

    # planted positions: strictly positive exactly on each vertex's depth
    depth = {}
    pos = {}
    for vid in vids:
        d = frozenset(lab for lab in divisors if rng.random() < 0.5)
        depth[vid] = d
        pos[vid] = tuple(rng.randint(1, 4) if lab in d else 0 for lab in divisors)

    vertices = tuple(
        VertexData(vid, rng.randint(0, 2), f"deg{vid}", depth[vid]) for vid in vids
    )

    edges = []
    # spanning tree first, then extra edges up to the cap
    for i in range(1, n_v):
        other = vids[rng.randrange(i)]
        edges.append((vids[i], other))
    n_extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(n_extra):
        a = rng.choice(vids)
        b = rng.choice(vids)
        if a == b and not allow_loops:
            continue
        edges.append((a, b))

    edge_data = []
    for k, (a, b) in enumerate(edges):
        d = depth[a] | depth[b]
        # lambda = 1 everywhere, so the contact is the position difference
        contact = tuple(pb - pa for pa, pb in zip(pos[a], pos[b]))
        if a == b:
            contact = tuple(0 for _ in divisors)
        edge_data.append(EdgeData(f"e{k}", a, b, d, contact))

    leg_data = []
    if legs:
        for i in range(rng.randint(0, 4)):
            contact = tuple(rng.randint(-2, 2) for _ in divisors)
            leg_data.append(LegData(f"l{i}", rng.choice(vids), i + 1, contact))

    return DecoratedDualGraph(divisors, vertices, tuple(edge_data), tuple(leg_data))


def random_free_graph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 8,
    n_divisors: int = 1,
) -> DecoratedDualGraph:
    """Graph with independently drawn contacts; may be infeasible."""
    divisors = tuple(str(i + 1) for i in range(n_divisors))
    n_v = rng.randint(1, max_vertices)
    vids = [f"v{i}" for i in range(n_v)]
    depth = {vid: frozenset(lab for lab in divisors if rng.random() < 0.6) for vid in vids}
    vertices = tuple(VertexData(vid, 0, f"deg{vid}", depth[vid]) for vid in vids)

    pairs = []
    for i in range(1, n_v):
        pairs.append((vids[i], vids[rng.randrange(i)]))
    for _ in range(rng.randint(0, max(0, max_edges - len(pairs)))):
        pairs.append((rng.choice(vids), rng.choice(vids)))

    edge_data = []
    for k, (a, b) in enumerate(pairs):
        d = depth[a] | depth[b]
        contact = tuple(rng.randint(-3, 3) if lab in d else 0 for lab in divisors)
        if a == b:
            # loops with nonzero contact are structurally fine; keep some
            pass
        edge_data.append(EdgeData(f"e{k}", a, b, d, contact))
    return DecoratedDualGraph(divisors, vertices, tuple(edge_data), ())


def random_layered_graph(
    rng: random.Random, max_layers: int = 3, max_width: int = 3, max_divisors: int = 2
) -> DecoratedDualGraph:
    """Feasible layered graph whose gluing cone is often non-simplicial.

    A depth-empty root sits below 2..max_layers layers of vertices with
    random nonempty depth sets.  Every vertex is joined to the layer below,
    and extra edges give parallel paths through vertices of different depth
    sets, as in the corpus entry ``d1rd22pt``.  Planted positions grow
    layer by layer and every contact is a position difference, so unit
    lengths are a tropical witness.
    """
    n_div = rng.randint(1, max_divisors)
    divisors = tuple(str(i + 1) for i in range(n_div))
    layers = [["v0"]]
    depth = {"v0": frozenset()}
    pos = {"v0": (0,) * n_div}
    for _ in range(rng.randint(2, max_layers)):
        below = layers[-1]
        layer = [f"v{len(depth) + i}" for i in range(rng.randint(1, max_width))]
        for vid in layer:
            d = frozenset(lab for lab in divisors if rng.random() < 0.7)
            depth[vid] = d or frozenset([rng.choice(divisors)])
            pos[vid] = tuple(
                max(pos[b][i] for b in below) + rng.randint(1, 2) if lab in depth[vid] else 0
                for i, lab in enumerate(divisors)
            )
        layers.append(layer)
    pairs = []
    for below, above in zip(layers, layers[1:]):
        pairs.extend((rng.choice(below), vid) for vid in above)
        pairs.extend((rng.choice(below), rng.choice(above)) for _ in range(rng.randint(1, len(above) + 1)))
    vertices = tuple(VertexData(vid, 0, "deg", depth[vid]) for layer in layers for vid in layer)
    edges = tuple(
        EdgeData(f"e{k}", a, b, depth[a] | depth[b], tuple(y - x for x, y in zip(pos[a], pos[b])))
        for k, (a, b) in enumerate(pairs)
    )
    return DecoratedDualGraph(divisors, vertices, edges, ())


def contact_from(e: EdgeData, vid: str) -> tuple[int, ...]:
    """Contact vector of e oriented away from vid (derived, never stored)."""
    if vid == e.v1:
        return e.contact
    if vid == e.v2:
        return tuple(-x for x in e.contact)
    raise StructuralError(f"vertex {vid!r} is not an endpoint of edge {e.id!r}")


def matching_context(graph: DecoratedDualGraph, rng: random.Random) -> GeometryContext:
    """Context whose pairings reproduce the graph's actual balance sums."""
    c1 = {}
    pairing = {}
    for v in graph.vertices:
        total = [0] * len(graph.divisors)
        for e in graph.edges:
            if v.id in (e.v1, e.v2) and e.v1 != e.v2:
                total = [a + b for a, b in zip(total, contact_from(e, v.id))]
        for l in graph.legs:
            if l.at == v.id:
                total = [a + b for a, b in zip(total, l.contact)]
        pairing[v.degree] = dict(zip(graph.divisors, total))
        c1[v.degree] = rng.randint(0, 9)
    return GeometryContext(
        dim_x=rng.randint(2, 4),
        divisors=graph.divisors,
        c1_pairing=c1,
        divisor_pairing=pairing,
    )


def random_reorientation(graph: DecoratedDualGraph, rng: random.Random) -> DecoratedDualGraph:
    flips = [e.id for e in graph.edges if rng.random() < 0.5]
    return graph.reorient(flips)


def replace_extreme_rays(monkeypatch, replacement) -> None:
    """Route every call of ``dd.extreme_rays`` to ``replacement``, through
    each module name bound to it (``cone`` imports it by name)."""
    from logcone import cone, dd

    for module in (dd, cone):
        monkeypatch.setattr(module, "extreme_rays", replacement)


def no_double_description(*args, **kwargs):
    raise AssertionError("the double description ran")


def workload_items(seed: int = 0, op: str | None = None):
    """Every input of the benchmark's workloads at a run seed, with its
    graph, and for the library workloads its planted eta, built; ``op``
    ("report" or "library") keeps only the workloads of that op."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    items = [
        item
        for workload in workloads.WORKLOADS.values()
        if op in (None, workload.op)
        for item in workload.build(seed)
    ]
    for item in items:
        workloads.prepare(item)
    return items


def workload_graphs():
    """Every graph of the benchmark's four workloads at run seed 0."""
    return [item.graph for item in workload_items()]


def random_one_divisor_graph(rng: random.Random, max_vertices: int = 7, max_edges: int = 9) -> DecoratedDualGraph:
    """One-divisor graph drawn with no regard for the axioms.

    Depths, endpoints and contacts are independent: depth-{} vertices
    under nonzero contacts, loops, parallel edges, edge depths other than
    the union of their endpoints' and disconnected graphs all occur.
    Contacts are mostly 0 or ±1, so equal levels and long chains of the
    order are common.
    """
    n_v = rng.randint(1, max_vertices)
    vids = [f"v{i}" for i in range(n_v)]
    one = frozenset({"1"})
    vertices = tuple(VertexData(vid, 0, f"deg{vid}", one if rng.random() < 0.8 else frozenset()) for vid in vids)
    edges = []
    for k in range(rng.randint(0, max_edges)):
        a = rng.choice(vids)
        b = a if n_v == 1 or rng.random() < 0.05 else rng.choice([vid for vid in vids if vid != a])
        depth = one if rng.random() < 0.9 else frozenset()
        edges.append(EdgeData(f"e{k}", a, b, depth, (rng.choice((-2, -1, 0, 0, 1, 1, 2)),)))
    return DecoratedDualGraph(("1",), vertices, tuple(edges), ())


def one_divisor_chain(n: int, reverse: bool = False) -> DecoratedDualGraph:
    """A depth-{} vertex v0 below depth-{1} vertices v1, ..., v(n-1), each
    edge e(i) of contact 1 from v(i) to v(i+1), listed bottom up or, with
    ``reverse``, top down: its levels are 0, 1, ..., n-1."""
    one = frozenset({"1"})
    vertices = tuple(VertexData(f"v{i}", 0, "t", one if i else frozenset()) for i in range(n))
    edges = tuple(EdgeData(f"e{i}", f"v{i}", f"v{i + 1}", one, (1,)) for i in range(n - 1))
    return DecoratedDualGraph(("1",), vertices, edges[::-1] if reverse else edges, ())


def one_divisor_cycle(n: int) -> DecoratedDualGraph:
    """Depth-{1} vertices v0, ..., v(n-1) on a directed cycle: edge e(i) of
    contact 1 runs from v(i) to v(i+1 mod n), so the order has no levels."""
    one = frozenset({"1"})
    vertices = tuple(VertexData(f"v{i}", 0, "t", one) for i in range(n))
    edges = tuple(EdgeData(f"e{i}", f"v{i}", f"v{(i + 1) % n}", one, (1,)) for i in range(n))
    return DecoratedDualGraph(("1",), vertices, edges, ())
