"""The integer phase-1 tableau against the rational reference solver.

``positive_kernel_point`` pivots in integers over one common denominator;
``reference_simplex`` is the plain ``Fraction`` tableau it replaced.  Both
take the same Bland pivots, so witnesses and Stiemke multipliers must be
equal as exact rationals, not merely both valid.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from logcone.simplex import positive_kernel_point
from logcone.tropical import _equalities

import reference_simplex
from helpers import random_free_graph, random_layered_graph, random_witness_graph


def assert_same_answer(rows, n):
    x, u = positive_kernel_point(rows, n)
    assert (x, u) == reference_simplex.positive_kernel_point(rows, n)
    for v in x if x is not None else u:
        assert type(v) is Fraction
    return x, u


def assert_alternative(rows, n, x, u):
    """Check the verdict from A alone: a point x >= 1 or a Stiemke vector."""
    assert (x is None) != (u is None)
    if x is not None:
        assert len(x) == n and all(v >= 1 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows)
    else:
        assert len(u) == len(rows)
        yA = [sum(y * row[j] for y, row in zip(u, rows)) for j in range(n)]
        assert all(v >= 0 for v in yA) and any(yA)


GRAPH_FAMILIES = {
    "free-1": lambda rng: random_free_graph(rng, n_divisors=1),
    "free-2": lambda rng: random_free_graph(rng, n_divisors=2),
    "witness": random_witness_graph,
    "layered": random_layered_graph,
}


def test_same_answers_as_reference_on_graph_families():
    verdicts = Counter()
    for name, family in GRAPH_FAMILIES.items():
        rng = random.Random(f"simplex-{name}")
        for _ in range(100):
            columns, _, rows = _equalities(family(rng))
            x, u = assert_same_answer(rows, len(columns))
            verdicts[name, x is not None] += 1
    # planted families are feasible; the free ones must reach certificates too
    assert verdicts["witness", False] == verdicts["layered", False] == 0
    assert verdicts["free-1", False] >= 20 and verdicts["free-2", False] >= 20


matrices = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=8),
        st.just(n),
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_same_answers_as_reference_on_small_matrices(system):
    rows, n = system
    x, u = assert_same_answer(rows, n)
    assert_alternative(rows, n, x, u)


def test_ratio_ties_go_to_the_smaller_basis_index():
    # the second pivot ties rows 1 and 2 at ratio 0; row 2 holds basic
    # column 0, row 1 an artificial, and taking row 1 ends elsewhere
    rows = [[0, 0, 1], [0, 1, -1], [1, 1, -2]]
    x, u = assert_same_answer(rows, 3)
    assert x is None and u == [1, -1, 1]
