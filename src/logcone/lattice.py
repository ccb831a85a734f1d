"""The integer-linear map attached to a decorated dual graph.

The map sends the lattice spanned by one generator per edge and one per
(vertex, divisor-label-in-depth) pair to the lattice with one generator per
(edge, label-in-edge-depth) pair.  Its kernel describes the gluing
deformations of the corresponding stratum, its cokernel the Lie algebra of
the obstruction torus; all invariants are read exactly off one Smith
normal form of rho.  Each graph object keeps its one :class:`LatticeSummary`,
and every lattice, cone and dimension function reads its invariants from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    the head, and 0 for loops and non-incident edges.  Each (e, label) row
    is filled once, from its edge alone.
    """
    dom = domain_basis(graph)
    tgt = target_basis(graph)
    M = il.zeros(len(tgt), len(dom))
    col = {lab: j for j, lab in enumerate(dom.labels)}
    edge = {e.id: e for e in graph.edges}
    for row, (_, eid, div) in zip(M, tgt.labels):
        e = edge[eid]
        row[col[("edge", eid)]] = e.contact[graph.divisors.index(div)]
        if e.v1 == e.v2:
            continue
        if div in graph.vertex(e.v1).depth:
            row[col[("vertex", e.v1, div)]] = 1
        if div in graph.vertex(e.v2).depth:
            row[col[("vertex", e.v2, div)]] = -1
    return dom, tgt, M


@dataclass(frozen=True)
class LatticeSummary:
    domain: IndexedBasis
    target: IndexedBasis
    rho: tuple[tuple[int, ...], ...]  # rows; a tuple because the summary is shared
    kernel_basis: tuple[tuple[int, ...], ...]  # rows, HNF-canonical
    toric_basis: tuple[tuple[int, ...], ...]  # annihilator of the kernel, HNF
    image_rank: int
    cokernel_torsion: tuple[int, ...]  # elementary divisors > 1
    obstruction_dim: int  # also the free rank of the cokernel
    # the rows of U past the rank (a list) until the characters are first
    # read, then their Hermite form (a tuple); a function of rho, so not compared
    _left_kernel: list | tuple = field(repr=False, compare=False)

    @property
    def characters(self) -> tuple[tuple[int, ...], ...]:
        """The left kernel of rho, HNF; built on first read, and the rows of
        U it is built from are then dropped."""
        rows = self._left_kernel
        if type(rows) is list:
            rows = _hermite(rows)
            object.__setattr__(self, "_left_kernel", rows)
        return rows


def _hermite(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in il.hermite_row_basis(rows))


def lattice_summary(graph: DecoratedDualGraph) -> LatticeSummary:
    """Every lattice invariant of rho, read off one Smith normal form
    U·rho·V = D of rank r (Cohen, 1993, §2.4.3), each basis in Hermite form.

    The kernel is the last n - r columns of V and the characters (the left
    kernel) the last m - r rows of U, put in Hermite form when first read.
    The annihilator of the kernel is the saturation of the row lattice of
    rho, spanned by the first r rows of V⁻¹.  Row i of U·rho = D·V⁻¹ is d_i
    times row i of V⁻¹, so it lies in rho's row lattice when d_i = 1, and
    the saturation is spanned by rho's rows together with row i of U·rho
    divided by d_i for each d_i > 1.

    The summary is computed on the first call for a graph object and kept
    on it: the graph is frozen, so the summary cannot go stale, and it
    lives exactly as long as the graph.  Graphs built from it (``reorient``,
    ``restrict_graph``, ``dataclasses.replace``) start without one.
    """
    summary = vars(graph).get("_lattice_summary")
    if summary is not None:
        return summary
    dom, tgt, rho = build_rho(graph)
    n = len(dom)
    if rho:
        U, D, V = il.smith_normal_form(rho)
    else:
        # a zero-row matrix has no column count, so the full domain is the kernel
        U, D, V = [], [], il.identity(n)
    divisors = [D[i][i] for i in range(min(len(D), n)) if D[i][i]]
    r = len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    # the torsion divisors come last; a row of rho has at most three
    # nonzeros, so U·rho goes through them
    support = [[(j, x) for j, x in enumerate(row) if x] for row in rho] if torsion else ()
    saturation = list(rho)
    for u, d in zip(U[r - len(torsion):], torsion):
        acc = [0] * n
        for c, row in zip(u, support):
            if c:
                for j, x in row:
                    acc[j] += c * x
        saturation.append([x // d for x in acc])
    summary = LatticeSummary(
        domain=dom,
        target=tgt,
        rho=tuple(tuple(row) for row in rho),
        kernel_basis=_hermite([[row[j] for row in V] for j in range(r, n)]),
        toric_basis=_hermite(saturation),
        image_rank=r,
        cokernel_torsion=torsion,
        obstruction_dim=len(tgt) - r,
        _left_kernel=U[r:],
    )
    object.__setattr__(graph, "_lattice_summary", summary)
    return summary


def component_count(graph: DecoratedDualGraph) -> int:
    """Number of irreducible components of the gluing-parameter space.

    Equals the index of the row lattice of rho inside its saturation,
    which is the product of the elementary divisors.
    """
    return prod(lattice_summary(graph).cokernel_torsion)
