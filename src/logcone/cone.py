"""Gluing cone, binomial presentations, and the numerical obstruction test.

The gluing cone is the intersection of the kernel lattice (tensored with R)
with the non-negative orthant of the domain.  The gluing-parameter space is
cut out by one binomial equation per (edge, label) pair; the associated
irreducible toric variety is cut out by the binomials of the saturated
lattice.  The obstruction test decides membership of a tuple of leading
coefficient ratios in the subtorus exponentiating the image lattice.  The
cone, the toric ideal and the obstruction test read the kernel, its
annihilator and the characters from the graph's one lattice summary.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul

from .dd import extreme_rays
from .graph import DecoratedDualGraph
from .lattice import IndexedBasis, lattice_summary

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ConeDescription:
    ambient_dim: int  # dimension of the domain lattice
    kernel_dim: int
    extreme_rays: tuple[tuple[int, ...], ...]  # primitive vectors in domain coordinates
    is_top_dimensional_in_kernel: bool


def _one_divisor_rays(graph: DecoratedDualGraph, domain: IndexedBasis) -> list[tuple[int, ...]]:
    """Extreme rays of the gluing cone of a one-divisor graph, unsorted.

    A row of rho is c·λ_e + t_a − t_b, with t_a (t_b) absent when the tail
    (head) is outside the depth or e is a loop.  An edge with no row of
    nonzero contact is free, and gives the unit ray of λ_e.  On the rest
    the cone is an order cone in t (Stanley 1986): t >= 0, an arc
    t_lo <= t_hi per nonzero contact, directed by its sign, with
    λ_e = (t_hi − t_lo) / |c|, and t_a = t_b per zero contact; an absent t
    is the node "0", t = 0, and so is every node below it.  Its extreme rays
    are the connected up-sets U: t = 1 on U, scaled by the lcm L of the
    |c| of the arcs entering U, which leaves every ray primitive (the gcd
    of the L/|c| is 1).  They are found from the principal up-sets by
    adding ↑w for each w with an arc into U, an output-sensitive search in
    the spirit of reverse search (Avis & Fukuda 1996).  It reaches every
    connected up-set U: a connected up-set V ⊊ U has an arc into it from
    some w in U − V, and V ∪ ↑w stays in U.
    """
    (label,) = graph.divisors
    edges = sorted(graph.edges, key=lambda e: e.id)  # the domain's edge order
    n_edges = len(edges)
    node = {lab[1]: i for i, lab in enumerate(domain.labels[n_edges:])}
    zero = len(node)  # the node t = 0
    n = zero + 1
    # node i's int packs four bitmasks, once closed: from bit 0 the nodes
    # above it, from bit n the edges of the arcs into them, from n + |E|
    # those of the arcs out of them, from n + 2|E| the nodes with an arc
    # into them
    into, out, below = n, n + n_edges, n + 2 * n_edges
    links = [1 << i for i in range(n)]
    steps = []  # (lo, hi): t_lo <= t_hi, so all above hi is above lo
    free = heavy = 0  # edge columns: free, and arcs with |c| > 1
    size = [abs(e.contact[0]) for e in edges]
    for j, e in enumerate(edges):
        c = e.contact[0] if label in e.depth else 0
        if not c:
            free |= 1 << j
        if e.v1 == e.v2 or label not in e.depth:
            continue  # a loop's row has no t, so a nonzero contact forces λ_e = 0
        a, b = node.get(e.v1, zero), node.get(e.v2, zero)
        if not c:
            steps += (a, b), (b, a)
            continue
        lo, hi = (a, b) if c > 0 else (b, a)
        steps.append((lo, hi))
        links[lo] |= 1 << out + j
        links[hi] |= 1 << into + j | 1 << below + lo
        heavy |= (size[j] > 1) << j
    changed = True
    while changed:  # pass each node's masks down the steps until they are closed
        changed = False
        for lo, hi in steps:
            merged = links[lo] | links[hi]
            if merged != links[lo]:
                links[lo] = merged
                changed = True
    ones, width = bytes.maketrans(b"01", b"\0\1"), f"0{len(domain)}b"

    def vector(mask: int) -> bytes:
        """The 0/1 vector of a mask of domain columns, from its binary digits."""
        return format(mask, width)[::-1].encode().translate(ones)

    rays = [tuple(vector(1 << j)) for j in range(n_edges) if free >> j & 1]
    allowed = sum(1 << i for i, ci in enumerate(links) if not ci >> zero & 1)
    seen = {links[v] for v in range(zero) if allowed >> v & 1}
    stack = list(seen)
    edge_bits, node_bits = (1 << n_edges) - 1, (1 << zero) - 1
    while stack:
        s = stack.pop()
        cut = (s >> into) & ~(s >> out) & edge_bits
        unit = vector(cut | (s & node_bits) << n_edges)
        if not cut & heavy:
            rays.append(tuple(unit))
        else:  # scale by the lcm L of the arcs' |c|, then λ_e = L / |c|
            cols = []
            while cut:
                low = cut & -cut
                cut ^= low
                cols.append(low.bit_length() - 1)
            scale = math.lcm(*[size[j] for j in cols])
            ray = [scale * x for x in unit]
            for j in cols:
                ray[j] //= size[j]
            rays.append(tuple(ray))
        frontier = (s >> below) & allowed & ~s
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            t = s | links[w.bit_length() - 1]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return rays


def sigma_cone(graph: DecoratedDualGraph) -> ConeDescription:
    """Extreme rays of kernel ∩ non-negative orthant, in domain coordinates.

    A one-divisor graph's rays are listed directly by
    :func:`_one_divisor_rays`.  Otherwise the kernel is parametrized by its
    Hermite basis K, and each ambient coordinate pulls back to a halfspace,
    a row of K^T; the double description returns each ray as its image
    under K^T, which is the ray in the domain.  Rays are primitive,
    lex-sorted.  The cone lies in the orthant, so it has no lineality and
    is always strictly convex.  A zero kernel gives no rays, and its cone
    is top-dimensional in it.
    """
    summary = lattice_summary(graph)
    kernel = summary.kernel_basis
    # halfspace j: (sum_i x_i * kernel[i][j]) >= 0
    halfspaces = list(zip(*kernel))
    if len(graph.divisors) == 1:
        rays = sorted(_one_divisor_rays(graph, summary.domain))
    else:
        rays = extreme_rays(halfspaces)
    # a pointed cone is the hull of its rays, so the sum of the rays (which
    # are nonnegative and in the kernel) is a relative interior point; it is
    # interior in the kernel exactly when it is nonzero where the kernel is
    top = sum(map(any, zip(*rays))) == sum(map(any, halfspaces))
    return ConeDescription(len(summary.domain), len(kernel), tuple(rays), top)


@dataclass(frozen=True)
class BinomialSystem:
    """Binomials x^{m+} - x^{m-} indexed by integer exponent vectors m.

    Variables are the domain coordinates: a gluing parameter eps_e per edge
    and a pushout parameter t_{v,i} per (vertex, label) pair.
    """

    basis: IndexedBasis
    exponents: tuple[tuple[int, ...], ...]

    def variable_names(self) -> list[str]:
        names = []
        for lab in self.basis.labels:
            if lab[0] == "edge":
                names.append(f"eps_{lab[1]}")
            else:
                names.append(f"t_{lab[1]}_{lab[2]}")
        return names

    def rendered(self, names: list[str] | None = None) -> list[str]:
        """Human-readable equations, one per exponent vector; ``names``, when
        given, are this system's :meth:`variable_names`."""
        if names is None:
            names = self.variable_names()
        out = []
        for m in self.exponents:
            pos = " * ".join(
                f"{names[i]}^{x}" if x != 1 else names[i] for i, x in enumerate(m) if x > 0
            )
            negs = " * ".join(
                f"{names[i]}^{-x}" if x != -1 else names[i] for i, x in enumerate(m) if x < 0
            )
            out.append(f"{pos or '1'} = {negs or '1'}")
        return out

    def dumped(self) -> list[str]:
        """Plain text dump: rendered equation, then m+ | m-."""
        out = []
        for m, eq in zip(self.exponents, self.rendered()):
            mp = [max(x, 0) for x in m]
            mn = [max(-x, 0) for x in m]
            out.append(f"{eq} : {mp} | {mn}")
        return out


def _canonical_sign(m: list[int]) -> tuple[int, ...]:
    lead = next((x for x in m if x != 0), 0)
    return tuple(m) if lead >= 0 else tuple(-x for x in m)


def gluing_equations(graph: DecoratedDualGraph) -> BinomialSystem:
    """One binomial per (edge, label in the edge depth).

    The relation is eps_e^{s} * t_tail = t_head, written in the orientation
    that makes the contact entry non-negative; a t factor is dropped when
    the label is outside that vertex's depth.  Its exponent vector is the
    (edge, label) row of the lattice map times the sign of its contact
    entry, so the exponents generate the row lattice of the map.
    """
    summary = lattice_summary(graph)
    col = {lab[1]: j for j, lab in enumerate(summary.domain.labels) if lab[0] == "edge"}
    exponents = []
    seen = set()
    for row, (_, eid, _) in zip(summary.rho, summary.target.labels):
        s = row[col[eid]]
        m = row if s >= 0 else tuple([-x for x in row])
        # a row's one edge entry is its contact entry, and edge columns lead
        key = m if s else _canonical_sign(m)
        if s or any(key):
            # seen holds exactly the kept keys, so it grows only on a new key
            seen.add(key)
            if len(seen) > len(exponents):
                exponents.append(m)
    return BinomialSystem(summary.domain, tuple(exponents))


def toric_ideal_generators(graph: DecoratedDualGraph) -> BinomialSystem:
    """Binomials for a lattice basis of the annihilator of the kernel.

    This is a LATTICE-BASIS presentation of the toric ideal: the full ideal
    is its saturation, which is not computed here (see
    :func:`eliminate_unit_entries` and the parametrization check in the
    test-suite for the verification contract).
    """
    summary = lattice_summary(graph)
    return BinomialSystem(summary.domain, summary.toric_basis)


def eliminate_unit_entries(system: BinomialSystem) -> tuple[list[tuple[int, ...]], list]:
    """Unimodular elimination of the pushout variables with exponent +-1.

    Repeatedly pick a basis vector with a +-1 entry in a pushout coordinate
    t_{v,i}, use it to clear that coordinate from the others, and drop both
    the vector and the coordinate.  Returns the reduced exponent vectors and
    the labels of the surviving coordinates, leaving relations among the
    gluing parameters.  Each step substitutes a monomial in the others for
    one variable, so it preserves the variety up to a coordinate change.
    """
    vectors = [list(m) for m in system.exponents]
    labels = system.basis.labels
    candidates = [j for j, lab in enumerate(labels) if lab[0] == "vertex"]
    dead = set()  # pivot columns: 0 in every remaining vector, dropped at the end
    # only vectors nonzero at the unit column change, and only a changed one
    # can gain a unit entry, so the scan resumes at the first of them or the pivot
    vi = 0
    while vi < len(vectors):
        vec = vectors[vi]
        for unit in candidates:
            sign = vec[unit]
            if sign == 1 or sign == -1:
                break
        else:
            vi += 1
            continue
        del vectors[vi]
        dead.add(unit)
        hit = [wi for wi, w in enumerate(vectors) if w[unit]]
        if hit:
            support = [(j, x) for j, x in enumerate(vec) if x]
            for wi in hit:
                w = vectors[wi]
                f = w[unit] * sign
                for j, x in support:
                    w[j] -= f * x
            vi = min(vi, hit[0])
    keep = [j for j in range(len(labels)) if j not in dead]
    # itemgetter needs an index, and of one index it returns no tuple
    pick = itemgetter(*keep) if len(keep) > 1 else lambda v: tuple([v[j] for j in keep])
    return list(map(pick, vectors)), [labels[j] for j in keep]


@dataclass(frozen=True)
class ObstructionInput:
    """Leading-coefficient ratios, one nonzero complex number per
    (reference-oriented edge, label in the edge depth)."""

    eta: dict[tuple[str, str], complex]


@dataclass(frozen=True)
class ObstructionVerdict:
    is_identity: bool
    violations: tuple[tuple[tuple[int, ...], float], ...]  # (character, |eta^m - 1|)


def obstruction_test(
    graph: DecoratedDualGraph, eta: ObstructionInput, tol: float = DEFAULT_TOL
) -> ObstructionVerdict:
    """Decide whether eta lies in the subtorus exponentiating the image.

    Membership holds iff every character annihilating the image evaluates
    to 1 on eta.  The characters are the summary's Hermite basis of the left
    kernel of rho, whose small entries keep exp(sum m_i log z_i) accurate;
    a value that overflows a float is a violation at ``sys.float_info.max``.
    Only the final evaluation |eta^m - 1| is numerical.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, not {tol!r}")
    summary = lattice_summary(graph)
    logs = []
    for lab in summary.target.labels:
        key = (lab[1], lab[2])
        if key not in eta.eta:
            raise ValueError(f"missing eta entry for edge {lab[1]!r}, label {lab[2]!r}")
        z = complex(eta.eta[key])
        if z == 0:
            raise ValueError(f"eta entry for edge {lab[1]!r}, label {lab[2]!r} is zero")
        logs.append(cmath.log(z))
    violations = []
    for m in summary.characters:
        # the nonzero terms of sum(m_i * log z_i), in order, summed from 0
        acc = sum(map(mul, compress(m, m), compress(logs, m)))
        try:
            dist = abs(cmath.exp(acc) - 1)
        except OverflowError:
            dist = sys.float_info.max
        if not dist <= tol:
            violations.append((m, dist))
    return ObstructionVerdict(not violations, tuple(violations))
