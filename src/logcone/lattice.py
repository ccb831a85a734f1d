"""The integer-linear map attached to a decorated dual graph.

The map sends the lattice spanned by one generator per edge and one per
(vertex, divisor-label-in-depth) pair to the lattice with one generator per
(edge, label-in-edge-depth) pair.  Its kernel describes the gluing
deformations of the corresponding stratum, its cokernel the Lie algebra of
the obstruction torus; all invariants are computed exactly via the Smith
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import intlinalg as il
from .graph import DecoratedDualGraph


@dataclass(frozen=True)
class IndexedBasis:
    """Deterministically ordered coordinate labels, so matrices are
    reproducible across runs.

    Domain coordinates: ("edge", edge_id) for each edge sorted by id, then
    ("vertex", vertex_id, label) sorted lexicographically.  Target
    coordinates: ("node", edge_id, label) sorted lexicographically.
    """

    labels: tuple[tuple, ...]

    def index(self, label) -> int:
        return self.labels.index(label)

    def __len__(self) -> int:
        return len(self.labels)


def domain_basis(graph: DecoratedDualGraph) -> IndexedBasis:
    labels: list[tuple] = [("edge", e.id) for e in sorted(graph.edges, key=lambda e: e.id)]
    for v in sorted(graph.vertices, key=lambda v: v.id):
        for lab in sorted(v.depth, key=graph.divisors.index):
            labels.append(("vertex", v.id, lab))
    return IndexedBasis(tuple(labels))


def target_basis(graph: DecoratedDualGraph) -> IndexedBasis:
    labels: list[tuple] = []
    for e in sorted(graph.edges, key=lambda e: e.id):
        for lab in sorted(e.depth, key=graph.divisors.index):
            labels.append(("node", e.id, lab))
    return IndexedBasis(tuple(labels))


def build_rho(graph: DecoratedDualGraph) -> tuple[IndexedBasis, IndexedBasis, il.Matrix]:
    """Matrix of the lattice map in the reference orientation.

    The column of an edge generator is its contact vector, placed in that
    edge's block of the target.  The column of a (vertex, label) generator
    has +1 at (e, label) when the vertex is the tail of e, -1 when it is
    the head, and 0 for loops and non-incident edges.
    """
    dom = domain_basis(graph)
    tgt = target_basis(graph)
    M = il.zeros(len(tgt), len(dom))
    row_of = {lab: i for i, lab in enumerate(tgt.labels)}
    for j, lab in enumerate(dom.labels):
        if lab[0] == "edge":
            e = next(e for e in graph.edges if e.id == lab[1])
            for div, value in zip(graph.divisors, e.contact):
                if div in e.depth:
                    M[row_of[("node", e.id, div)]][j] = value
        else:
            _, vid, div = lab
            for e in graph.edges:
                if e.v1 == e.v2:
                    continue
                if div not in e.depth:
                    continue
                if e.v1 == vid:
                    M[row_of[("node", e.id, div)]][j] = 1
                elif e.v2 == vid:
                    M[row_of[("node", e.id, div)]][j] = -1
    return dom, tgt, M


@dataclass(frozen=True)
class LatticeSummary:
    domain: IndexedBasis
    target: IndexedBasis
    rho: il.Matrix
    kernel_basis: tuple[tuple[int, ...], ...]  # rows, HNF-canonical
    image_rank: int
    cokernel_free_rank: int
    cokernel_torsion: tuple[int, ...]  # elementary divisors > 1
    obstruction_dim: int


def lattice_summary(graph: DecoratedDualGraph) -> LatticeSummary:
    """Kernel, image rank, cokernel torsion and obstruction dimension, all
    read off one Smith normal form of rho."""
    dom, tgt, rho = build_rho(graph)
    # a zero-row matrix has no column count, so the full domain is the kernel
    kernel, divisors = il.kernel_and_divisors(rho) if rho else (il.identity(len(dom)), [])
    kernel = il.hermite_row_basis(kernel) if kernel else []
    image_rank = len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    obstruction_dim = len(tgt) - image_rank
    return LatticeSummary(
        domain=dom,
        target=tgt,
        rho=rho,
        kernel_basis=tuple(tuple(row) for row in kernel),
        image_rank=image_rank,
        cokernel_free_rank=len(tgt) - image_rank,
        cokernel_torsion=torsion,
        obstruction_dim=obstruction_dim,
    )


def kernel_dim(graph: DecoratedDualGraph) -> int:
    return len(lattice_summary(graph).kernel_basis)


def component_count(graph: DecoratedDualGraph) -> int:
    """Number of irreducible components of the gluing-parameter space.

    Equals the index of the row lattice of rho inside its saturation,
    which is the product of the elementary divisors.
    """
    return prod(il.elementary_divisors(build_rho(graph)[2]))


def _component_count(summary: LatticeSummary) -> int:
    """:func:`component_count` read off an existing summary."""
    return prod(summary.cokernel_torsion)
