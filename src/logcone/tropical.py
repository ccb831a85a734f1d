"""Existence of tropical position/length data for a decorated dual graph.

A graph is tropically feasible when there are vertex positions s_v (strictly
positive exactly on the depth coordinates) and edge lengths lambda_e > 0
with s_head - s_tail = lambda_e * s_e for every edge.  Those equalities form
a homogeneous integer system A x = 0 over rho's domain coordinates x = (s on
the (vertex, label) ones, then lambda on the edges with nonzero contact; a
zero-contact edge keeps lambda = 1), and feasibility is x > 0.  :func:`decide`
returns either a witness or, by Stiemke's theorem, integer multipliers y on
the (edge, label) equalities with y^T A >= 0 and y^T A != 0.  A graph with
one divisor is decided by the paper's partial order
(``graph.smooth_divisor_partial_order``): its levels are a witness, and each
failure's walk of edges gives y, since A is then a network matrix (Schrijver
1986, section 19.3).  A graph with any other number of divisors is decided by
one exact phase-1 solve, pivoted in integers without rounding
(``simplex.positive_kernel_point``).  Both answers can be checked
independently with :func:`verify_witness` and :func:`verify_certificate`.  A
caller that has the gluing cone's extreme rays can settle feasibility from
them instead, with :func:`ray_sum_witness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .graph import DecoratedDualGraph, StructuralError, smooth_divisor_partial_order
from .lattice import domain_basis
from .simplex import positive_kernel_point


@dataclass(frozen=True)
class TropicalWitness:
    """Certificate for feasibility: sparse vertex positions and edge lengths."""

    s: dict[tuple[str, str], Fraction]  # (vertex id, divisor label) -> value, zero entries omitted
    lam: dict[str, Fraction]  # edge id -> positive length

    def s_vector(self, graph: DecoratedDualGraph, vid: str) -> list[Fraction]:
        return [self.s.get((vid, label), Fraction(0)) for label in graph.divisors]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Stiemke multipliers proving that no tropical data exists.

    One integer per (edge id, divisor label) equality, zero entries omitted;
    y^T A is nonnegative on every position and length and nonzero on some.
    """

    multipliers: dict[tuple[str, str], int]


def _equalities(graph: DecoratedDualGraph):
    """Columns and nonzero rows of the edge-equality matrix A.

    Columns are rho's domain labels (``lattice.domain_basis``), the (vertex,
    label) ones and then the edges with nonzero contact; rows are keyed by
    (edge id, label), in edge-id then divisor order, over every label.
    """
    edges = sorted(graph.edges, key=lambda e: e.id)  # the domain's edge order
    labels = domain_basis(graph).labels
    columns = [*labels[len(edges):], *(lab for lab, e in zip(labels, edges) if any(e.contact))]
    index = {col: j for j, col in enumerate(columns)}
    keys, rows = [], []
    for e in edges:
        head, tail = graph.vertex(e.v2), graph.vertex(e.v1)
        for label, se in zip(graph.divisors, e.contact):
            row = [0] * len(columns)
            if label in head.depth:
                row[index[("vertex", e.v2, label)]] += 1
            if label in tail.depth:
                row[index[("vertex", e.v1, label)]] -= 1
            if se:
                row[index[("edge", e.id)]] -= se
            if any(row):
                keys.append((e.id, label))
                rows.append(row)
    return columns, keys, rows


def _witness(values, edges=()) -> TropicalWitness:
    """The witness of (domain label, value) pairs: edge values are lengths,
    (vertex, label) values positions, and an unnamed edge of ``edges`` has length 1."""
    s, lam = {}, dict.fromkeys(edges, Fraction(1))
    for label, x in values:
        if label[0] == "edge":
            lam[label[1]] = Fraction(x)
        else:
            s[label[1:]] = Fraction(x)
    return TropicalWitness(s, lam)


def decide(graph: DecoratedDualGraph):
    """Decide tropical feasibility exactly.

    Returns ``(witness, None)`` when the graph is feasible and
    ``(None, certificate)`` when it is not.  With one divisor the partial
    order decides: the witness has the levels as positions, lengths
    (level(head) - level(tail)) / contact and length 1 on zero contacts, and
    the certificate is minus the failure walk's rows, each oriented along
    the walk.  Otherwise one exact solve decides.
    """
    if len(graph.divisors) == 1:
        return _decide_by_order(graph)
    columns, keys, rows = _equalities(graph)
    x, u = positive_kernel_point(rows, len(columns))
    if x is not None:
        return _witness(zip(columns, x), [e.id for e in graph.edges]), None
    scale = lcm(*(q.denominator for q in u))
    ints = [int(q * scale) for q in u]
    g = gcd(*ints)
    multipliers = {key: y // g for key, y in zip(keys, ints) if y}
    return None, InfeasibilityCertificate(multipliers)


def _decide_by_order(graph: DecoratedDualGraph):
    """:func:`decide` on a one-divisor graph, from its partial order."""
    (label,) = graph.divisors
    order = smooth_divisor_partial_order(graph)
    if order.ok:
        t = order.levels
        s = {(v.id, label): Fraction(t[v.id]) for v in graph.vertices if v.depth}
        lam = {
            e.id: Fraction(t[e.v2] - t[e.v1], e.contact[0]) if e.contact[0] else Fraction(1)
            for e in graph.edges
        }
        return TropicalWitness(s, lam), None
    return None, InfeasibilityCertificate({(eid, label): -sign for eid, sign in order.walk})


def ray_sum_witness(labels, rays) -> TropicalWitness | None:
    """The sum of the gluing cone's extreme rays as a witness, or None when
    some domain coordinate vanishes on every ray.

    ``labels`` are the lattice summary's domain labels and ``rays`` the
    extreme rays of ker rho ∩ R≥0 in those coordinates.  Under the local
    axioms the nonzero rows of -rho are the equalities of :func:`decide`, so
    ker rho meets the open orthant exactly when the rays' sum is positive in
    every coordinate, and that sum is then a witness.
    """
    total = [sum(column) for column in zip(*rays)] if rays else [0] * len(labels)
    if not all(total):
        return None
    return _witness(zip(labels, total))


def tropical_feasibility(graph: DecoratedDualGraph) -> TropicalWitness | None:
    """A TropicalWitness, or None when the graph is infeasible."""
    return decide(graph)[0]


def tropical_certificate(graph: DecoratedDualGraph) -> InfeasibilityCertificate | None:
    """Stiemke certificate of infeasibility, or None when feasible."""
    return decide(graph)[1]


def verify_witness(graph: DecoratedDualGraph, witness: TropicalWitness):
    """Exact check of a witness; returns (ok, list of violated constraints)."""
    violations = []
    vertex_ids = {v.id for v in graph.vertices}
    for (vid, label) in witness.s:
        if vid not in vertex_ids or label not in graph.divisors:
            raise StructuralError(f"witness position indexed by unknown ({vid!r}, {label!r})")
    edge_ids = {e.id for e in graph.edges}
    for eid in witness.lam:
        if eid not in edge_ids:
            raise StructuralError(f"witness length indexed by unknown edge {eid!r}")

    for v in graph.vertices:
        for label in graph.divisors:
            val = witness.s.get((v.id, label), Fraction(0))
            if label in v.depth and val <= 0:
                violations.append(f"s[{v.id},{label}] = {val} is not positive on the depth set")
            if label not in v.depth and val != 0:
                violations.append(f"s[{v.id},{label}] = {val} must vanish outside the depth set")
    for e in graph.edges:
        lam = witness.lam.get(e.id)
        if lam is None:
            violations.append(f"no length for edge {e.id}")
            continue
        if lam <= 0:
            violations.append(f"lambda[{e.id}] = {lam} is not positive")
            continue
        head = witness.s_vector(graph, e.v2)
        tail = witness.s_vector(graph, e.v1)
        for label, h, t, se in zip(graph.divisors, head, tail, e.contact):
            if h - t != lam * se:
                violations.append(
                    f"edge {e.id}, coordinate {label}: {h} - {t} != {lam} * {se}"
                )
    return (not violations), violations


def verify_certificate(graph: DecoratedDualGraph, cert: InfeasibilityCertificate):
    """Exact check of an infeasibility certificate; returns (ok, problems).

    Rebuilds y^T A from the graph's edges (loops included, where the two
    position terms cancel): each multiplier y[e, label] adds y to
    s[head, label] and -y to s[tail, label] when the label is in that
    vertex's depth, and -y * contact to lambda_e.  The certificate holds
    when every entry of y^T A is >= 0 and some entry is > 0; then
    y^T A x > 0 for every positive x, so A x = 0 has no positive solution.
    """
    edges = {e.id: e for e in graph.edges}
    for (eid, label) in cert.multipliers:
        if eid not in edges or label not in graph.divisors:
            raise StructuralError(f"certificate multiplier indexed by unknown ({eid!r}, {label!r})")

    totals = {}
    for v in graph.vertices:
        for label in v.depth:
            totals[("s", v.id, label)] = 0
    for e in graph.edges:
        if any(e.contact):
            totals[("lambda", e.id)] = 0
    for (eid, label), y in cert.multipliers.items():
        e = edges[eid]
        if label in graph.vertex(e.v2).depth:
            totals[("s", e.v2, label)] += y
        if label in graph.vertex(e.v1).depth:
            totals[("s", e.v1, label)] -= y
        se = e.contact[graph.divisor_index(label)]
        if se:
            totals[("lambda", e.id)] -= y * se
    problems = [
        f"y^T A at {col[0]}[{', '.join(col[1:])}] = {total} is negative"
        for col, total in sorted(totals.items())
        if total < 0
    ]
    if not any(totals.values()):
        problems.append("y^T A vanishes on every position and length")
    return (not problems), problems


def integralize_witness(witness: TropicalWitness) -> TropicalWitness:
    """Scale a witness by the lcm of all denominators; still a witness."""
    values = list(witness.s.values()) + list(witness.lam.values())
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return TropicalWitness(
        {k: v * scale for k, v in witness.s.items()},
        {k: v * scale for k, v in witness.lam.items()},
    )
