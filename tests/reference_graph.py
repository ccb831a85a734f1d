"""Two-path edge-decoration search kept as a test oracle for the forest walk.

This is ``logcone.graph.enumerate_edge_decorations`` as it was before it
became one spanning-forest search over the chords: leaf peeling on trees,
and on every other graph an exhaustive search over every edge that checks
balance at a vertex once all its edges are assigned.  The per-vertex edge
and leg scans it used, once ``DecoratedDualGraph`` methods, are inlined.
It returns the same decorations in the same order, and raises ValueError
where the new search does, except for a negative bound, which it takes as
an empty range.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from logcone.graph import DecoratedDualGraph, EdgeData, GeometryContext
from logcone.tropical import tropical_feasibility


def reference_enumerate_edge_decorations(
    graph: DecoratedDualGraph,
    ctx: GeometryContext,
    bound: int | None = None,
) -> list[dict[str, tuple[int, ...]]]:
    labels = graph.divisors

    def incident_edges(vid: str) -> list[EdgeData]:
        return [e for e in graph.edges if vid in (e.v1, e.v2)]

    def residual(vid: str, assigned: dict[str, tuple[int, ...]]) -> list[int]:
        v = graph.vertex(vid)
        res = [ctx.inter(v.degree, label) for label in labels]
        for l in graph.legs:
            if l.at == vid:
                res = [a - b for a, b in zip(res, l.contact)]
        for e in incident_edges(vid):
            if e.id in assigned and e.v1 != e.v2:
                c = assigned[e.id] if e.v1 == vid else tuple(-x for x in assigned[e.id])
                res = [a - b for a, b in zip(res, c)]
        return res

    def admissible(e: EdgeData, vec: tuple[int, ...]) -> bool:
        return all(x == 0 for label, x in zip(labels, vec) if label not in e.depth)

    def decorate(assignment: dict[str, tuple[int, ...]]) -> DecoratedDualGraph | None:
        edges = tuple(replace(e, contact=assignment[e.id], contact_rev=None) for e in graph.edges)
        g = replace(graph, edges=edges)
        if tropical_feasibility(g) is None:
            return None
        return g

    is_tree = graph.is_connected() and len(graph.edges) == len(graph.vertices) - 1
    if is_tree:
        assigned: dict[str, tuple[int, ...]] = {}
        remaining = {e.id for e in graph.edges}
        live = {v.id: len(incident_edges(v.id)) for v in graph.vertices}
        while remaining:
            leaf = next(vid for vid, d in live.items() if d == 1)
            e = next(e for e in incident_edges(leaf) if e.id in remaining)
            vec = residual(leaf, assigned)
            # store in the reference orientation of e
            assigned[e.id] = tuple(vec) if e.v1 == leaf else tuple(-x for x in vec)
            if not admissible(e, assigned[e.id]):
                return []
            remaining.discard(e.id)
            other = e.v2 if e.v1 == leaf else e.v1
            live[leaf] -= 1
            live[other] -= 1
        # final consistency: every vertex's residual is zero
        for v in graph.vertices:
            if any(residual(v.id, assigned)):
                return []
        g = decorate(assigned)
        return [assigned] if g is not None else []

    if bound is None:
        raise ValueError("a coordinate bound is required for graphs with cycles")

    edge_list = list(graph.edges)
    results = []

    def candidates(e: EdgeData):
        coords = []
        for label in labels:
            coords.append(range(-bound, bound + 1) if label in e.depth else (0,))
        return itertools.product(*coords)

    def search(k: int, assigned: dict[str, tuple[int, ...]]):
        if k == len(edge_list):
            if all(not any(residual(v.id, assigned)) for v in graph.vertices):
                if decorate(assigned) is not None:
                    results.append(dict(assigned))
            return
        e = edge_list[k]
        later = {e2.id for e2 in edge_list[k + 1:]}
        for vec in candidates(e):
            assigned[e.id] = vec
            ok = True
            for vid in (e.v1, e.v2):
                if any(e2.id in later for e2 in incident_edges(vid)):
                    continue  # balance not decidable yet at this vertex
                if any(residual(vid, assigned)):
                    ok = False
                    break
            if ok:
                search(k + 1, assigned)
            del assigned[e.id]

    search(0, {})
    return results
