"""The tropical solve over its own column labels, kept as a test oracle.

This is ``logcone.tropical``'s ``_equalities`` and ``decide`` as they were
before the solve took its columns from ``lattice.domain_basis``: columns
("s", vertex id, label) for each depth coordinate, then ("lambda", edge id)
for each edge with nonzero contact, and one row per nonzero (edge, label)
equality over every divisor label.  That is the same column order as the
domain labels', so both build the same tableau and must return equal
witnesses and equal certificates on every graph.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from logcone.simplex import positive_kernel_point
from logcone.tropical import InfeasibilityCertificate, TropicalWitness


def equalities(graph):
    """Columns, row keys and nonzero rows of the edge-equality matrix A."""
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


def decide(graph):
    """``(witness, None)`` or ``(None, certificate)`` from one exact solve."""
    columns, keys, rows = equalities(graph)
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
