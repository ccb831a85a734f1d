import dataclasses
import random

import pytest

from logcone.corpus import corpus_load
from logcone.dims import expected_dim_main, expected_dim_smooth_depth, expected_dim_stratum
from logcone.graph import DecoratedDualGraph, GeometryContext, StructuralError, VertexData, validate_graph
from logcone.lattice import kernel_dim

from helpers import matching_context, random_witness_graph


def test_main_dim_examples():
    ex32 = corpus_load("ex32")
    tags = [v.degree for v in ex32.graph.vertices]
    assert expected_dim_main(ex32.context, 0, 2, tags) == 4

    dd = corpus_load("ddecomp-d3")
    tags = [v.degree for v in dd.graph.vertices]
    assert expected_dim_main(dd.context, 4, 12, tags) == 24

    pt = corpus_load("d1rd22pt")
    tags = [v.degree for v in pt.graph.vertices]
    assert expected_dim_main(pt.context, 1, 3, tags) == 7


def test_smooth_depth_dim():
    entry = corpus_load("2lines-case1")
    ctx = entry.context
    assert expected_dim_smooth_depth(ctx, 0, 2, ["line"], ["1"]) == 1
    assert expected_dim_smooth_depth(ctx, 0, 2, ["line"], []) == expected_dim_main(
        ctx, 0, 2, ["line"]
    )


def test_stratum_dims_corpus():
    for name, main, stratum in [
        ("d1rd22pt", 7, 4),
        ("ddecomp-d2", 16, 15),
        ("ddecomp-d3", 24, 23),
        ("ddecomp-d4", 32, 31),
    ]:
        entry = corpus_load(name)
        report = expected_dim_stratum(entry.graph, entry.context)
        assert report.main_dim == main
        assert report.stratum_dim == stratum
        assert report.codim == main - stratum


def test_trivial_graph_stratum_equals_main():
    g = DecoratedDualGraph((), (VertexData("v", 2, "t", frozenset()),), (), ())
    ctx = GeometryContext(3, (), {"t": 5}, {"t": {}})
    report = expected_dim_stratum(g, ctx, k=4)
    assert report.kernel_dim == 0
    assert report.stratum_dim == report.main_dim


def test_stratum_identity_on_random_graphs():
    rng = random.Random(51)
    for _ in range(30):
        g = random_witness_graph(rng)
        ctx = matching_context(g, rng)
        report = expected_dim_stratum(g, ctx)
        tags = [v.degree for v in g.vertices]
        main = expected_dim_main(ctx, report.genus, len(g.legs), tags)
        assert report.main_dim == main
        assert report.stratum_dim == main - kernel_dim(g)


def test_prelog_exceeds_stratum_by_obstruction_dim():
    rng = random.Random(52)
    for _ in range(30):
        g = random_witness_graph(rng)
        ctx = matching_context(g, rng)
        report = expected_dim_stratum(g, ctx)
        assert report.prelog_dim - report.obstruction_dim == report.stratum_dim


def test_prelog_reproduces_ddecomp_count():
    for d in (2, 3, 4):
        entry = corpus_load(f"ddecomp-d{d}")
        report = expected_dim_stratum(entry.graph, entry.context)
        assert report.prelog_dim == 9 * d - 2
        assert report.prelog_dim - report.obstruction_dim == 8 * d - 1


def test_context_over_other_divisors_is_rejected():
    entry = corpus_load("2lines-case1")
    for divisors in (("1",), ("1", "2", "3"), ("2", "3")):
        ctx = dataclasses.replace(entry.context, divisors=divisors)
        with pytest.raises(StructuralError, match="differ from graph divisors"):
            expected_dim_stratum(entry.graph, ctx)
        with pytest.raises(StructuralError, match="differ from graph divisors"):
            validate_graph(entry.graph, ctx)
    # the label order does not matter
    ctx = dataclasses.replace(entry.context, divisors=("2", "1"))
    assert expected_dim_stratum(entry.graph, ctx) == expected_dim_stratum(entry.graph, entry.context)
