"""Seeded input generators owned by the benchmark.

Every generator returns plain ``logcone/1`` JSON dicts, never library
objects, so the inputs depend only on the seeds and on this file.  The
witness and free generators follow the random families of the test-suite;
the witness generator draws the decorations the lattice map and the LP do
not see (genera, legs) from a separate RNG.  The layered-diamond family is
specific to the benchmark.  Witness mode plants integer vertex positions and
derives edge contacts from them, so its graphs are tropically feasible by
construction; free mode draws contacts independently.
"""

from __future__ import annotations

import random

SCHEMA = "logcone/1"


def _contact_map(divisors, vec) -> dict:
    return {d: int(x) for d, x in zip(divisors, vec) if x != 0}


def graph_dict(divisors, vertices, edges, legs) -> dict:
    """Canonical graph dict.

    vertices: (id, genus, degree, depth set); edges: (id, from, to, depth
    set, contact tuple); legs: (id, at, index, contact tuple).
    """
    order = {d: i for i, d in enumerate(divisors)}

    def depth(s):
        return sorted(s, key=order.__getitem__)

    return {
        "schema": SCHEMA,
        "divisors": list(divisors),
        "vertices": [
            {"id": vid, "genus": g, "degree": deg, "depth": depth(d)} for vid, g, deg, d in vertices
        ],
        "edges": [
            {"id": eid, "from": a, "to": b, "depth": depth(d), "contact": _contact_map(divisors, c)}
            for eid, a, b, d, c in edges
        ],
        "legs": [
            {"id": lid, "at": at, "index": idx, "contact": _contact_map(divisors, c)}
            for lid, at, idx, c in legs
        ],
    }


def _contact_vec(graph: dict, mapping: dict) -> list[int]:
    return [mapping.get(d, 0) for d in graph["divisors"]]


def witness_graph(
    shape: random.Random,
    decor: random.Random,
    n_div: int,
    n_v: int,
    n_extra: int,
    legs: bool = True,
    allow_loops: bool = True,
) -> dict:
    """Tropically feasible graph: planted positions in 1..4, lambda = 1.

    ``shape`` draws the depth sets, planted positions and endpoints (a
    spanning tree plus ``n_extra`` edges; a drawn loop is skipped when loops
    are not allowed); ``decor`` draws the genera and legs, which the lattice
    map and the tropical LP do not see.
    """
    divisors = tuple(str(i + 1) for i in range(n_div))
    vids = [f"v{i}" for i in range(n_v)]
    depth, pos = {}, {}
    for vid in vids:
        d = frozenset(lab for lab in divisors if shape.random() < 0.5)
        depth[vid] = d
        pos[vid] = tuple(shape.randint(1, 4) if lab in d else 0 for lab in divisors)
    vertices = [(vid, decor.randint(0, 2), f"deg{vid}", depth[vid]) for vid in vids]

    pairs = [(vids[i], vids[shape.randrange(i)]) for i in range(1, n_v)]
    for _ in range(n_extra):
        a, b = shape.choice(vids), shape.choice(vids)
        if a == b and not allow_loops:
            continue
        pairs.append((a, b))
    edges = []
    for k, (a, b) in enumerate(pairs):
        contact = (0,) * len(divisors) if a == b else tuple(q - p for p, q in zip(pos[a], pos[b]))
        edges.append((f"e{k}", a, b, depth[a] | depth[b], contact))

    leg_data = []
    if legs:
        for i in range(decor.randint(0, 4)):
            contact = tuple(decor.randint(-2, 2) for _ in divisors)
            leg_data.append((f"l{i}", decor.choice(vids), i + 1, contact))
    return graph_dict(divisors, vertices, edges, leg_data)


def free_graph(rng: random.Random, n_v: int, n_extra: int) -> dict:
    """One-divisor graph with independently drawn contacts; may be infeasible."""
    divisors = ("1",)
    vids = [f"v{i}" for i in range(n_v)]
    depth = {vid: frozenset(lab for lab in divisors if rng.random() < 0.6) for vid in vids}
    vertices = [(vid, 0, f"deg{vid}", depth[vid]) for vid in vids]
    pairs = [(vids[i], vids[rng.randrange(i)]) for i in range(1, n_v)]
    for _ in range(n_extra):
        pairs.append((rng.choice(vids), rng.choice(vids)))
    edges = []
    for k, (a, b) in enumerate(pairs):
        d = depth[a] | depth[b]
        edges.append((f"e{k}", a, b, d, tuple(rng.randint(-3, 3) if lab in d else 0 for lab in divisors)))
    return graph_dict(divisors, vertices, edges, [])


def diamond_graph(rng: random.Random, widths: list[int]) -> dict:
    """Layered diamond over one divisor, generalising the corpus's d1rd22pt.

    A depth-{} root sits at level 0; one layer of depth-{1} vertices per
    entry of ``widths`` sits at planted increasing levels.  Every vertex is
    joined to one vertex of the layer below, extra edges join consecutive
    layers, and each contact is the level difference, so the graph is
    feasible with unit lengths.  The many parallel paths give high kernel
    dimension and non-simplicial gluing cones.
    """
    layers = [["v0"]]
    level = {"v0": 0}
    lvl = 0
    count = 1
    for width in widths:
        lvl += rng.randint(1, 2)
        layer = [f"v{count + i}" for i in range(width)]
        count += width
        for vid in layer:
            level[vid] = lvl
        layers.append(layer)
    vertices = [(vid, 0, "root" if vid == "v0" else "fiber", frozenset() if vid == "v0" else frozenset("1"))
                for layer in layers for vid in layer]
    pairs = []
    for below, above in zip(layers, layers[1:]):
        for vid in above:
            pairs.append((rng.choice(below), vid))
        for _ in range(rng.randint(1, len(above))):
            pairs.append((rng.choice(below), rng.choice(above)))
    edges = [
        (f"e{k}", a, b, frozenset("1"), (level[b] - level[a],)) for k, (a, b) in enumerate(pairs)
    ]
    return graph_dict(("1",), vertices, edges, [])


def matching_context(graph: dict, rng: random.Random) -> dict:
    """Context whose divisor pairings reproduce the graph's balance sums."""
    divisors = graph["divisors"]
    total = {v["id"]: [0] * len(divisors) for v in graph["vertices"]}
    for e in graph["edges"]:
        if e["from"] == e["to"]:
            continue
        c = _contact_vec(graph, e["contact"])
        total[e["from"]] = [a + b for a, b in zip(total[e["from"]], c)]
        total[e["to"]] = [a - b for a, b in zip(total[e["to"]], c)]
    for leg in graph["legs"]:
        c = _contact_vec(graph, leg["contact"])
        total[leg["at"]] = [a + b for a, b in zip(total[leg["at"]], c)]
    c1, pairing = {}, {}
    for v in graph["vertices"]:
        pairing[v["degree"]] = dict(zip(divisors, total[v["id"]]))
        c1[v["degree"]] = rng.randint(0, 9)
    return {
        "schema": SCHEMA,
        "dim": rng.randint(2, 4),
        "divisors": list(divisors),
        "c1": c1,
        "pairing": pairing,
    }


def planted_xi(graph: dict, rng: random.Random) -> dict:
    """One small complex log-coordinate per domain generator of the lattice
    map: ("edge", id) and ("vertex", id, label) for each label in the depth."""
    xi = {}
    for e in sorted(graph["edges"], key=lambda e: e["id"]):
        xi[("edge", e["id"])] = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    for v in sorted(graph["vertices"], key=lambda v: v["id"]):
        for lab in v["depth"]:
            xi[("vertex", v["id"], lab)] = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    return xi


def rho_entries(graph: dict) -> dict:
    """The lattice map as {(edge id, label): {domain label: coefficient}}.

    An edge generator contributes its contact at each label of the edge
    depth; a (vertex, label) generator contributes +1 at the tail and -1 at
    the head of each non-loop edge carrying that label.
    """
    depth = {v["id"]: set(v["depth"]) for v in graph["vertices"]}
    rows = {}
    for e in graph["edges"]:
        for lab in e["depth"]:
            row = {}
            c = e["contact"].get(lab, 0)
            if c:
                row[("edge", e["id"])] = c
            if e["from"] != e["to"]:
                if lab in depth[e["from"]]:
                    row[("vertex", e["from"], lab)] = 1
                if lab in depth[e["to"]]:
                    row[("vertex", e["to"], lab)] = -1
            rows[(e["id"], lab)] = row
    return rows
