"""Decorated dual graphs of nodal curves and their combinatorial checks.

A decorated dual graph records the combinatorial type of a nodal marked
curve mapping to a space with a simple-normal-crossings divisor: vertices
are irreducible components (with genus, a degree tag, and a depth set of
divisor labels), edges are nodes (with an integer contact vector), legs are
marked points.  All graph values are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass, field, replace


class StructuralError(ValueError):
    """Malformed graph data: dangling ids, unknown divisor labels, etc.

    Distinct from axiom violations, which are reported in a
    ValidationReport rather than raised.
    """


@dataclass(frozen=True)
class VertexData:
    id: str
    genus: int
    degree: str  # opaque homology tag, resolved by GeometryContext
    depth: frozenset[str]


@dataclass(frozen=True)
class EdgeData:
    id: str
    v1: str  # tail of the reference orientation
    v2: str  # head
    depth: frozenset[str]
    contact: tuple[int, ...]  # contact vector in the reference orientation
    # Optional explicitly-stored reverse contact vector.  Normally the
    # reverse is derived as -contact; storing it is only useful to feed
    # deliberately inconsistent data to the validator.
    contact_rev: tuple[int, ...] | None = None


@dataclass(frozen=True)
class LegData:
    id: str
    at: str
    index: int  # position in the marked-point ordering, 1-based
    contact: tuple[int, ...]


@dataclass(frozen=True)
class DecoratedDualGraph:
    divisors: tuple[str, ...]
    vertices: tuple[VertexData, ...]
    edges: tuple[EdgeData, ...]
    legs: tuple[LegData, ...]
    _vertex_map: dict[str, VertexData] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        vm = {}
        for v in self.vertices:
            if v.id in vm:
                raise StructuralError(f"duplicate vertex id {v.id!r}")
            vm[v.id] = v
        object.__setattr__(self, "_vertex_map", vm)
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise StructuralError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            for end in (e.v1, e.v2):
                if end not in vm:
                    raise StructuralError(f"edge {e.id!r} endpoint {end!r} is not a vertex")
            if len(e.contact) != len(self.divisors):
                raise StructuralError(f"edge {e.id!r} contact vector has wrong length")
            if e.contact_rev is not None and len(e.contact_rev) != len(self.divisors):
                raise StructuralError(f"edge {e.id!r} reverse contact vector has wrong length")
        seen = set()
        for l in self.legs:
            if l.id in seen:
                raise StructuralError(f"duplicate leg id {l.id!r}")
            seen.add(l.id)
            if l.at not in vm:
                raise StructuralError(f"leg {l.id!r} attached vertex {l.at!r} is not a vertex")
            if len(l.contact) != len(self.divisors):
                raise StructuralError(f"leg {l.id!r} contact vector has wrong length")
        for v in self.vertices:
            if not v.depth <= set(self.divisors):
                raise StructuralError(f"vertex {v.id!r} depth uses unknown labels")
        for e in self.edges:
            if not e.depth <= set(self.divisors):
                raise StructuralError(f"edge {e.id!r} depth uses unknown labels")

    def vertex(self, vid: str) -> VertexData:
        return self._vertex_map[vid]

    def divisor_index(self, label: str) -> int:
        return self.divisors.index(label)

    def is_connected(self) -> bool:
        return sum(edge is None for edge in _spanning_forest(self.vertices, self.edges).values()) == 1

    def reorient(self, edge_ids) -> "DecoratedDualGraph":
        """New graph with the reference orientation of the given edges flipped."""
        flip = set(edge_ids)
        new_edges = []
        for e in self.edges:
            if e.id in flip:
                rev = None if e.contact_rev is None else tuple(-x for x in e.contact_rev)
                new_edges.append(
                    replace(e, v1=e.v2, v2=e.v1, contact=tuple(-x for x in e.contact), contact_rev=rev)
                )
            else:
                new_edges.append(e)
        return replace(self, edges=tuple(new_edges))


@dataclass(frozen=True)
class GeometryContext:
    """Numeric pairings the graph cannot supply: dimension, Chern and
    intersection numbers of the (opaque) vertex degree tags."""

    dim_x: int
    divisors: tuple[str, ...]
    c1_pairing: dict[str, int]
    divisor_pairing: dict[str, dict[str, int]]  # tag -> label -> A . D_i

    def c1(self, tag: str) -> int:
        if tag not in self.c1_pairing:
            raise KeyError(f"no c1 pairing for degree tag {tag!r}")
        return self.c1_pairing[tag]

    def inter(self, tag: str, label: str) -> int:
        try:
            return self.divisor_pairing[tag][label]
        except KeyError:
            raise KeyError(f"no divisor pairing for degree tag {tag!r} against {label!r}")

    def total_c1(self, graph: DecoratedDualGraph) -> int:
        return sum(self.c1(v.degree) for v in graph.vertices)

    def total_inter(self, graph: DecoratedDualGraph, label: str) -> int:
        return sum(self.inter(v.degree, label) for v in graph.vertices)


def _check_divisors(graph: DecoratedDualGraph, ctx: GeometryContext) -> None:
    """Raise StructuralError unless ctx is over the graph's divisor labels."""
    if set(ctx.divisors) != set(graph.divisors):
        raise StructuralError(
            f"context divisors {list(ctx.divisors)} differ from graph divisors {list(graph.divisors)}"
        )


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]
    tropical_feasible: bool | None  # None when the structural axioms already fail

    @property
    def valid(self) -> bool:
        return not self.violations and self.tropical_feasible is not False


def validate_graph(graph: DecoratedDualGraph, ctx: GeometryContext | None = None) -> ValidationReport:
    """Check every combinatorial axiom of a decorated dual graph.

    Returns a report listing all violations (empty iff valid).  Degree
    balance needs a GeometryContext; with ctx=None that check is skipped.
    A context over other divisor labels than the graph's raises
    StructuralError.
    Tropical feasibility is delegated to :mod:`logcone.tropical` and
    reported separately, since it is an existence statement rather than a
    local axiom.
    """
    violations, warnings = _axiom_check(graph, ctx)
    feasible = None
    if not violations:
        from .tropical import decide

        feasible = decide(graph)[0] is not None
    return ValidationReport(violations, warnings, feasible)


def _axiom_check(graph: DecoratedDualGraph, ctx: GeometryContext | None):
    """The local axioms of :func:`validate_graph`: (violations, warnings)."""
    violations: list[Violation] = []
    warnings: list[str] = []

    # leg ordering must be a bijection onto {1..k}
    indices = sorted(l.index for l in graph.legs)
    if indices != list(range(1, len(graph.legs) + 1)):
        violations.append(
            Violation("leg-ordering", f"leg order indices {indices} are not a bijection onto 1..{len(graph.legs)}")
        )

    for e in graph.edges:
        union = graph.vertex(e.v1).depth | graph.vertex(e.v2).depth
        if e.depth != union:
            violations.append(
                Violation(
                    "edge-depth",
                    f"edge {e.id}: depth {sorted(e.depth)} != union of endpoint depths {sorted(union)}",
                )
            )
        for label, value in zip(graph.divisors, e.contact):
            if value != 0 and label not in e.depth:
                violations.append(
                    Violation("contact-support", f"edge {e.id}: contact is nonzero at {label} outside its depth set")
                )
                break
        if e.contact_rev is not None and any(a + b != 0 for a, b in zip(e.contact, e.contact_rev)):
            violations.append(
                Violation("antisymmetry", f"edge {e.id}: stored reverse contact is not the negative of the forward one")
            )

    if not graph.is_connected():
        violations.append(Violation("connectivity", "graph is not connected"))

    if ctx is not None:
        _check_divisors(graph, ctx)
        # each vertex's sum of outgoing edge contacts and leg contacts, in
        # one pass; a loop contributes s and -s, i.e. nothing
        totals = {v.id: [0] * len(graph.divisors) for v in graph.vertices}
        for e in graph.edges:
            if e.v1 != e.v2:
                totals[e.v1] = [a + b for a, b in zip(totals[e.v1], e.contact)]
                totals[e.v2] = [a - b for a, b in zip(totals[e.v2], e.contact)]
        for l in graph.legs:
            totals[l.at] = [a + b for a, b in zip(totals[l.at], l.contact)]
        for v in graph.vertices:
            expected = [ctx.inter(v.degree, label) for label in graph.divisors]
            if totals[v.id] != expected:
                violations.append(
                    Violation(
                        "degree-balance",
                        f"vertex {v.id}: edge+leg contact sum {totals[v.id]} != divisor degrees {expected}",
                    )
                )

    valences = _valences(graph)
    for v in graph.vertices:
        stability = 2 * v.genus - 2 + valences[v.id]
        if stability <= 0:
            warnings.append(f"vertex {v.id} may be unstable (2g-2+valence = {stability})")

    return tuple(violations), tuple(warnings)


def _valences(graph: DecoratedDualGraph) -> dict[str, int]:
    """Vertex id -> number of legs and edge ends at it (a loop counts twice),
    in one pass over the edges and legs."""
    valences = {v.id: 0 for v in graph.vertices}
    for e in graph.edges:
        valences[e.v1] += 1
        valences[e.v2] += 1
    for l in graph.legs:
        valences[l.at] += 1
    return valences


def arithmetic_genus(graph: DecoratedDualGraph) -> int:
    """Total genus: sum of vertex genera plus the first Betti number."""
    if not graph.is_connected():
        raise ValueError("arithmetic genus requires a connected graph")
    return sum(v.genus for v in graph.vertices) + (len(graph.edges) - len(graph.vertices) + 1)


@dataclass(frozen=True)
class PartialOrderResult:
    levels: dict[str, int] | None
    failure: tuple[str, ...] | None  # (kind, *vertex ids)
    # on failure, a walk that climbs the order: (edge id, +1 along v1 -> v2
    # or -1 against); see smooth_divisor_partial_order
    walk: tuple[tuple[str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.levels is not None


def _forest_path(parent: dict[str, EdgeData | None], u: str, w: str) -> list[tuple[str, int]]:
    """Steps (edge id, +1 along v1 -> v2 or -1 against) of the path from u to
    w in a forest of :func:`_spanning_forest`, climbing its parent edges."""

    def climb(x):
        steps = []
        while (e := parent[x]) is not None:
            x, sign = (e.v2, 1) if e.v1 == x else (e.v1, -1)
            steps.append((e.id, sign))
        return steps

    a, b = climb(u), climb(w)
    while a and b and a[-1] == b[-1]:
        a.pop()
        b.pop()
    return a + [(eid, -sign) for eid, sign in reversed(b)]


def smooth_divisor_partial_order(graph: DecoratedDualGraph) -> PartialOrderResult:
    """Level function for the single-divisor case, via Kahn's rounds.

    Zero contacts join vertices into classes of equal level, the trees of
    the zero-contact edges' spanning forest; a nonzero contact puts its head
    above its tail when positive, below when negative.  Classes of depth-{}
    vertices sit at level 0; each of Kahn's rounds on the strict relation
    among the depth-{1} classes is one level higher.  Fails when a loop has
    a nonzero contact or parallel edges disagree in sign (kind
    "inconsistent-parallel-edges"), when a depth-{} and a depth-{1} vertex
    are forced to the same level ("depth-level-clash"), when the strict
    relation contains a cycle ("cycle", naming each class by its first
    vertex) or when a strict edge ends at level 0 ("order-violation").
    Edge depth sets play no part.

    Success is equivalent to tropical feasibility, and this is how
    :func:`logcone.tropical.decide` settles every one-divisor graph: the
    levels are the positions.  A failure carries a ``walk`` that uses each
    edge at most once, never steps down a nonzero contact (sign times
    contact >= 0), and is closed or ends at a depth-{} vertex: a
    nonzero-contact loop, two parallel edges there and back, the forest
    path from the clashing depth-{1} vertex to the depth-{} one, the strict
    edges of the cycle joined by forest paths inside each class, or the
    violating edge.  Minus the sum of its rows, each oriented along the
    walk, is a Stiemke certificate.  Everything is built in graph order,
    never set order, in time linear in the size of the graph.
    """
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

    # equal-level classes: every edge between a zero pair now has contact 0,
    # so the forest of those edges roots each class at its first vertex
    parent = _spanning_forest(graph.vertices, [e for e in graph.edges if e.v1 != e.v2 and not e.contact[0]])
    class_of: dict[str, str] = {}
    for vid, e in parent.items():  # each vertex after its parent
        class_of[vid] = vid if e is None else class_of[e.v2 if e.v1 == vid else e.v1]
    classes = [vid for vid, e in parent.items() if e is None]

    # the first depth-{} and the first depth-{1} vertex of each class
    first: dict[tuple[str, bool], str] = {}
    for v in graph.vertices:
        first.setdefault((class_of[v.id], not v.depth), v.id)
    for root in classes:
        if (root, True) in first and (root, False) in first:
            a, b = first[root, True], first[root, False]
            return PartialOrderResult(None, ("depth-level-clash", a, b), tuple(_forest_path(parent, b, a)))

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

    # Kahn's rounds over the classes above level 0: a batch is handed out
    # only once the whole previous one is done, so batch k is level k; a
    # cycle raises in prepare() but leaves every class below it ready
    levels = {class_of[v.id]: 0 for v in graph.vertices if not v.depth}
    sorter = graphlib.TopologicalSorter({c: preds[c] - levels.keys() for c in classes if c not in levels})
    try:
        sorter.prepare()
    except graphlib.CycleError:
        pass
    level = 1
    while batch := sorter.get_ready():
        levels.update(dict.fromkeys(batch, level))
        sorter.done(*batch)
        level += 1

    if len(levels) < len(classes):
        # walk predecessors, first in class order, until a class repeats
        rank = {c: i for i, c in enumerate(classes) if c not in levels}
        c = next(iter(rank))
        seen: dict[str, int] = {}
        while c not in seen:
            seen[c] = len(seen)
            c = min((x for x in preds[c] if x in rank), key=rank.__getitem__)
        cycle = list(seen)[seen[c]:]
        # climb each strict edge into a class, then inside it to the
        # tail of the strict edge out of it
        links = [link[cycle[(i + 1) % len(cycle)], hi] for i, hi in enumerate(cycle)]
        walk = []
        for i, (lo, hi, eid, along) in enumerate(links):
            walk.append((eid, along))
            walk += _forest_path(parent, hi, links[i - 1][0])
        return PartialOrderResult(None, ("cycle", *cycle, c), tuple(walk))

    vertex_levels = {v.id: levels[class_of[v.id]] for v in graph.vertices}
    # a strict edge into level 0 cannot be realized by any witness
    for lo, hi, eid, along in strict:
        if vertex_levels[lo] >= vertex_levels[hi]:
            return PartialOrderResult(None, ("order-violation", lo, hi), ((eid, along),))
    return PartialOrderResult(vertex_levels, None)


def restrict_graph(graph: DecoratedDualGraph, keep) -> DecoratedDualGraph:
    """Forgetful restriction to a subset of divisor labels.

    Depth sets are intersected with ``keep`` and contact vectors truncated
    to the kept coordinates; vertices, edges and legs are untouched.
    """
    keep = list(keep)
    if not set(keep) <= set(graph.divisors):
        raise ValueError("labels to keep must be a subset of the divisor set")
    kept = tuple(label for label in graph.divisors if label in set(keep))
    idx = [graph.divisors.index(label) for label in kept]

    def cut(vec):
        return tuple(vec[i] for i in idx)

    return DecoratedDualGraph(
        divisors=kept,
        vertices=tuple(replace(v, depth=v.depth & set(kept)) for v in graph.vertices),
        edges=tuple(
            replace(
                e,
                depth=e.depth & set(kept),
                contact=cut(e.contact),
                contact_rev=None if e.contact_rev is None else cut(e.contact_rev),
            )
            for e in graph.edges
        ),
        legs=tuple(replace(l, contact=cut(l.contact)) for l in graph.legs),
    )


def _spanning_forest(vertices, edges) -> dict[str, EdgeData | None]:
    """Breadth-first spanning forest: vertex id -> the forest edge to its parent.

    Each component is rooted at its first vertex in the given order, which
    maps to None, and edges are tried in the given order.  The keys are in
    walk order, so every vertex comes after its parent.  The partial order
    walks only the zero-contact edges, whose trees are its level classes.
    """
    adjacent: dict[str, list[tuple[EdgeData, str]]] = {v.id: [] for v in vertices}
    for e in edges:
        adjacent[e.v1].append((e, e.v2))
        adjacent[e.v2].append((e, e.v1))
    parent: dict[str, EdgeData | None] = {}
    for root in vertices:
        if root.id in parent:
            continue
        parent[root.id] = None
        queue = [root.id]
        for vid in queue:  # the queue grows while it is read
            for e, other in adjacent[vid]:
                if other not in parent:
                    parent[other] = e
                    queue.append(other)
    return parent


def enumerate_edge_decorations(
    graph: DecoratedDualGraph,
    ctx: GeometryContext,
    bound: int | None = None,
) -> list[dict[str, tuple[int, ...]]]:
    """All edge contact assignments compatible with the fixed depth data.

    The stored edge contacts of ``graph`` are ignored; leg contacts, depth
    sets and the degree pairings of ``ctx`` are the inputs.  An assignment
    must satisfy per-vertex degree balance, the support condition, and
    tropical feasibility.  Only the chords (the edges off a spanning
    forest) are searched, a loop only at 0, the one contact a witness
    realizes on it; balance then fixes every forest edge.  A tree has
    no chords and needs no bound; any other graph needs one, and it caps
    the entries of every edge, a completeness caveat since no effective
    a-priori bound is known.  A negative bound raises ValueError.  Results
    are sorted by their edge vectors in graph order.
    """
    from .tropical import tropical_feasibility

    if bound is not None and bound < 0:
        raise ValueError(f"the coordinate bound must be non-negative, not {bound}")
    parent = _spanning_forest(graph.vertices, graph.edges)
    forest = {e.id for e in parent.values() if e is not None}
    chords = [e for e in graph.edges if e.id not in forest]
    if not chords and len(parent) - len(forest) == 1:
        bound = None  # a tree: balance alone fixes every edge
    elif bound is None:
        raise ValueError("a coordinate bound is required unless the graph is a tree")

    labels = graph.divisors
    targets = {v.id: [ctx.inter(v.degree, label) for label in labels] for v in graph.vertices}
    for l in graph.legs:
        targets[l.at] = [a - b for a, b in zip(targets[l.at], l.contact)]

    # balance, support and the bound hold label by label, so each label's
    # column of edge values is searched alone; only feasibility couples them
    columns = []
    for i, label in enumerate(labels):
        column = []
        # a loop's contact times its positive length is a zero position
        # difference, so only 0 can be realized
        free = [range(-bound, bound + 1) if label in e.depth and e.v1 != e.v2 else (0,) for e in chords]
        for chord_values in itertools.product(*free):
            value = dict(zip((e.id for e in chords), chord_values))
            residual = {vid: target[i] for vid, target in targets.items()}
            for e, x in zip(chords, chord_values):
                residual[e.v1] -= x
                residual[e.v2] += x
            for vid, e in reversed(parent.items()):  # leaves in, each root after its component
                if e is None:
                    if residual[vid]:
                        break
                    continue
                # e carries vid's residual away from vid, to its other end
                value[e.id] = residual[vid] if e.v1 == vid else -residual[vid]
                residual[e.v2 if e.v1 == vid else e.v1] += residual[vid]
            else:
                values = [value[e.id] for e in graph.edges]
                if all(
                    x == 0 or (label in e.depth and (bound is None or abs(x) <= bound))
                    for e, x in zip(graph.edges, values)
                ):
                    column.append(values)
        columns.append(column)

    found = []
    for chosen in itertools.product(*columns):
        vecs = tuple(tuple(column[k] for column in chosen) for k in range(len(graph.edges)))
        edges = tuple(replace(e, contact=vec, contact_rev=None) for e, vec in zip(graph.edges, vecs))
        if tropical_feasibility(replace(graph, edges=edges)) is not None:
            found.append(vecs)
    return [{e.id: vec for e, vec in zip(graph.edges, vecs)} for vecs in sorted(found)]
