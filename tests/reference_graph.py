"""Test oracles for the forest walk and for the one-divisor partial order.

``reference_enumerate_edge_decorations`` is
``logcone.graph.enumerate_edge_decorations`` as it was before it became one
spanning-forest search over the chords: leaf peeling on trees, and on every
other graph an exhaustive search over every edge that checks balance at a
vertex once all its edges are assigned.  The per-vertex edge and leg scans
it used, once ``DecoratedDualGraph`` methods, are inlined.  It returns the
same decorations in the same order, and raises ValueError where the new
search does, except for a negative bound, which it takes as an empty range.

``reference_smooth_divisor_partial_order`` is
``logcone.graph.smooth_divisor_partial_order`` as it was before it took its
levels from Kahn's rounds: its own breadth-first walk of the zero-contact
relations, then levels peeled off one round of minimal classes at a time,
each round and each step of the cycle walk a scan over every class.  It
returns the same ``PartialOrderResult``: levels, failure tuple and walk.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from logcone.graph import DecoratedDualGraph, EdgeData, GeometryContext, PartialOrderResult
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


def reference_smooth_divisor_partial_order(graph: DecoratedDualGraph) -> PartialOrderResult:
    """``smooth_divisor_partial_order`` as it was: levels peeled off in
    rounds of minimal classes, each round a scan of every remaining class."""

    def _forest_path(up, u: str, w: str) -> list[tuple[str, int]]:
        """Steps of the path from u to w in a forest given as vertex -> (parent,
        edge id, step sign toward the parent), None at a root."""

        def climb(x):
            steps = []
            while up[x] is not None:
                x, eid, sign = up[x]
                steps.append((eid, sign))
            return steps

        a, b = climb(u), climb(w)
        while a and b and a[-1] == b[-1]:
            a.pop()
            b.pop()
        return a + [(eid, -sign) for eid, sign in reversed(b)]

    if len(graph.divisors) != 1:
        raise ValueError("partial-order levels are only defined for a single divisor")

    # per vertex pair a < b: (sign of the relation from a to b, 0 for equal,
    # the first edge between them, +1 when that edge runs from a to b)
    relation: dict[tuple[str, str], tuple[int, str, int]] = {}
    for e in graph.edges:
        c = e.contact[0]
        sign = (c > 0) - (c < 0)
        if e.v1 == e.v2:
            if sign:
                return PartialOrderResult(None, ("inconsistent-parallel-edges", e.v1, e.v2), ((e.id, sign),))
            continue
        key, along = ((e.v1, e.v2), 1) if e.v1 < e.v2 else ((e.v2, e.v1), -1)
        if key not in relation:
            relation[key] = (sign * along, e.id, along)
        elif relation[key][0] != sign * along:
            # climb from a to b along the edge of larger sign, back along the other
            upper, lower = sorted((relation[key], (sign * along, e.id, along)), reverse=True)
            walk = ((upper[1], upper[2]), (lower[1], -lower[2]))
            return PartialOrderResult(None, ("inconsistent-parallel-edges", *key), walk)

    # equal-level classes: a breadth-first forest of the zero relations,
    # each class rooted at its first vertex in graph order
    zero: dict[str, list[tuple[str, str, int]]] = {v.id: [] for v in graph.vertices}
    for (a, b), (sign, eid, along) in relation.items():
        if not sign:
            zero[a].append((b, eid, along))
            zero[b].append((a, eid, -along))
    up: dict[str, tuple[str, str, int] | None] = {}
    classes: dict[str, list[str]] = {}
    for v in graph.vertices:
        if v.id in up:
            continue
        up[v.id] = None
        members = classes[v.id] = [v.id]
        for x in members:  # the list grows while it is read
            for y, eid, along in zero[x]:
                if y not in up:
                    up[y] = (x, eid, -along)
                    members.append(y)
    class_of = {m: root for root, members in classes.items() for m in members}

    # the first depth-{} and the first depth-{1} vertex of each class
    first: dict[tuple[str, bool], str] = {}
    for v in graph.vertices:
        first.setdefault((class_of[v.id], not v.depth), v.id)
    for root in classes:
        if (root, True) in first and (root, False) in first:
            a, b = first[root, True], first[root, False]
            return PartialOrderResult(None, ("depth-level-clash", a, b), tuple(_forest_path(up, b, a)))

    # strict edges (lo, hi, edge id, +1 when the edge runs from lo to hi),
    # and the first of them from each class to each class
    preds: dict[str, set[str]] = {c: set() for c in classes}
    strict = []
    link: dict[tuple[str, str], tuple[str, str, str, int]] = {}
    for (a, b), (sign, eid, along) in relation.items():
        if not sign:
            continue
        edge = (a, b, eid, along) if sign > 0 else (b, a, eid, -along)
        strict.append(edge)
        preds[class_of[edge[1]]].add(class_of[edge[0]])
        link.setdefault((class_of[edge[0]], class_of[edge[1]]), edge)

    levels: dict[str, int] = {}
    zero_classes = {class_of[v.id] for v in graph.vertices if not v.depth}
    for c in zero_classes:
        levels[c] = 0
    remaining = set(classes) - zero_classes
    level = 1
    while remaining:
        minimal = {c for c in remaining if not (preds[c] & remaining)}
        if not minimal:
            # walk predecessors, first in class order, until a class repeats
            c = next(x for x in classes if x in remaining)
            seen: list[str] = []
            while c not in seen:
                seen.append(c)
                c = next(x for x in classes if x in preds[c] and x in remaining)
            cycle = seen[seen.index(c):]
            # climb each strict edge into a class, then inside it to the
            # tail of the strict edge out of it
            links = [link[cycle[(i + 1) % len(cycle)], hi] for i, hi in enumerate(cycle)]
            walk = []
            for i, (lo, hi, eid, along) in enumerate(links):
                walk.append((eid, along))
                walk += _forest_path(up, hi, links[i - 1][0])
            return PartialOrderResult(None, ("cycle", *cycle, c), tuple(walk))
        for c in minimal:
            levels[c] = level
        remaining -= minimal
        level += 1

    vertex_levels = {v.id: levels[class_of[v.id]] for v in graph.vertices}
    # a strict edge into level 0 cannot be realized by any witness
    for lo, hi, eid, along in strict:
        if vertex_levels[lo] >= vertex_levels[hi]:
            return PartialOrderResult(None, ("order-violation", lo, hi), ((eid, along),))
    return PartialOrderResult(vertex_levels, None)
