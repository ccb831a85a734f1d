"""Expected-dimension bookkeeping for the moduli strata.

All values are complex dimensions.  The main-stratum dimension is
c1(A) - A.D + (n-3)(1-g) + k; a graph stratum loses the dimension of the
kernel lattice; the smooth-domain depth-I stratum additionally loses |I|.
A derived "pre-log" dimension is reported as well: the per-vertex sum of
smooth-stratum dimensions minus a matching condition of codimension
(n - |I_e|) per node.  It exceeds the graph-stratum dimension by exactly
the obstruction dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DecoratedDualGraph, GeometryContext, _check_divisors, arithmetic_genus
from .lattice import LatticeSummary, lattice_summary


def expected_dim_main(ctx: GeometryContext, g: int, k: int, degree_tags) -> int:
    """Dimension of the main stratum for total degree given by the tags."""
    c1 = sum(ctx.c1(t) for t in degree_tags)
    ad = sum(ctx.inter(t, label) for t in degree_tags for label in ctx.divisors)
    return c1 - ad + (ctx.dim_x - 3) * (1 - g) + k


def expected_dim_smooth_depth(ctx: GeometryContext, g: int, k: int, degree_tags, depth) -> int:
    """Dimension of the smooth-domain stratum of maps of the given depth."""
    return expected_dim_main(ctx, g, k, degree_tags) - len(set(depth))


@dataclass(frozen=True)
class DimensionReport:
    main_dim: int
    stratum_dim: int
    prelog_dim: int
    kernel_dim: int
    obstruction_dim: int
    codim: int
    genus: int
    marked_points: int
    c1_total: int
    inter_total: dict[str, int]


def expected_dim_stratum(
    graph: DecoratedDualGraph, ctx: GeometryContext, k: int | None = None
) -> DimensionReport:
    """Expected dimension of the stratum of a decorated dual graph.

    ``k`` defaults to the number of legs.  The kernel dimension vanishes
    only for the one-vertex, edgeless, depth-empty graph, in which case
    the stratum is the main stratum.  A context over other divisor labels
    than the graph's raises StructuralError.
    """
    return _expected_dim_stratum(graph, ctx, lattice_summary(graph), k)


def _expected_dim_stratum(
    graph: DecoratedDualGraph, ctx: GeometryContext, summary: LatticeSummary, k: int | None = None
) -> DimensionReport:
    """:func:`expected_dim_stratum` with the graph's lattice summary given."""
    _check_divisors(graph, ctx)
    if k is None:
        k = len(graph.legs)
    g = arithmetic_genus(graph)
    tags = [v.degree for v in graph.vertices]
    main = expected_dim_main(ctx, g, k, tags)
    kdim = len(summary.kernel_basis)
    stratum = main - kdim

    n = ctx.dim_x
    prelog = 0
    for v in graph.vertices:
        k_v = len(graph.legs_at(v.id))
        for e in graph.incident_edges(v.id):
            k_v += 2 if e.v1 == e.v2 else 1
        prelog += (
            ctx.c1(v.degree)
            - sum(ctx.inter(v.degree, label) for label in graph.divisors)
            + (n - 3) * (1 - v.genus)
            + k_v
            - len(v.depth)
        )
    for e in graph.edges:
        prelog -= n - len(e.depth)

    return DimensionReport(
        main_dim=main,
        stratum_dim=stratum,
        prelog_dim=prelog,
        kernel_dim=kdim,
        obstruction_dim=summary.obstruction_dim,
        codim=main - stratum,
        genus=g,
        marked_points=k,
        c1_total=ctx.total_c1(graph),
        inter_total={label: ctx.total_inter(graph, label) for label in graph.divisors},
    )
