"""Existence of tropical position/length data for a decorated dual graph.

A graph is tropically feasible when there are vertex positions s_v (strictly
positive exactly on the depth coordinates) and edge lengths lambda_e > 0
with s_head - s_tail = lambda_e * s_e for every edge.  Those equalities form
a homogeneous integer system A x = 0 over x = (s on the depth coordinates,
lambda on the edges with nonzero contact; a zero-contact edge keeps
lambda = 1), and feasibility is strict feasibility x > 0.  :func:`decide`
settles it with one exact phase-1 solve, pivoted in integers without
rounding (``simplex.positive_kernel_point``), and returns either a witness or,
by Stiemke's theorem, integer multipliers y on the (edge, label) equalities
with y^T A >= 0 and y^T A != 0.  Both can be checked independently with
:func:`verify_witness` and :func:`verify_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .graph import DecoratedDualGraph, StructuralError
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

    Columns are ("s", vertex id, label) for each depth coordinate and
    ("lambda", edge id) for each edge with nonzero contact; rows are keyed by
    (edge id, label), in edge-id then divisor order.
    """
    columns = [
        ("s", v.id, label)
        for v in sorted(graph.vertices, key=lambda v: v.id)
        for label in sorted(v.depth, key=graph.divisors.index)
    ]
    edges = sorted(graph.edges, key=lambda e: e.id)
    columns += [("lambda", e.id) for e in edges if any(e.contact)]
    index = {col: j for j, col in enumerate(columns)}
    keys, rows = [], []
    for e in edges:
        head = graph.vertex(e.v2)
        tail = graph.vertex(e.v1)
        for label, se in zip(graph.divisors, e.contact):
            row = [0] * len(columns)
            if label in head.depth:
                row[index[("s", e.v2, label)]] += 1
            if label in tail.depth:
                row[index[("s", e.v1, label)]] -= 1
            if se:
                row[index[("lambda", e.id)]] -= se
            if any(row):
                keys.append((e.id, label))
                rows.append(row)
    return columns, keys, rows


def decide(graph: DecoratedDualGraph):
    """Decide tropical feasibility with one exact solve.

    Returns ``(witness, None)`` when the graph is feasible and
    ``(None, certificate)`` when it is not.
    """
    columns, keys, rows = _equalities(graph)
    x, u = positive_kernel_point(rows, len(columns))
    if x is not None:
        value = dict(zip(columns, x))
        s = {(col[1], col[2]): v for col, v in value.items() if col[0] == "s"}
        lam = {e.id: value.get(("lambda", e.id), Fraction(1)) for e in graph.edges}
        return TropicalWitness(s, lam), None
    scale = lcm(*(q.denominator for q in u))
    ints = [int(q * scale) for q in u]
    g = gcd(*ints)
    multipliers = {key: y // g for key, y in zip(keys, ints) if y}
    return None, InfeasibilityCertificate(multipliers)


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
