"""Gluing cone, binomial presentations, and the numerical obstruction test.

The gluing cone is the intersection of the kernel lattice (tensored with R)
with the non-negative orthant of the domain.  The gluing-parameter space is
cut out by one binomial equation per (edge, label) pair; the associated
irreducible toric variety is cut out by the binomials of the saturated
lattice.  The obstruction test decides membership of a tuple of leading
coefficient ratios in the subtorus exponentiating the image lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import intlinalg as il
from .dd import extreme_rays
from .graph import DecoratedDualGraph
from .lattice import IndexedBasis, LatticeSummary, build_rho, domain_basis, lattice_summary

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ConeDescription:
    ambient_dim: int  # dimension of the domain lattice
    kernel_dim: int
    extreme_rays: tuple[tuple[int, ...], ...]  # primitive vectors in domain coordinates
    is_strictly_convex: bool
    is_top_dimensional_in_kernel: bool


def sigma_cone(graph: DecoratedDualGraph) -> ConeDescription:
    """Extreme rays of kernel ∩ non-negative orthant, in domain coordinates.

    The double description runs inside kernel coordinates: the kernel is
    parametrized by its lattice basis and each ambient coordinate pulls
    back to a halfspace.  Rays are primitive, lex-sorted.
    """
    return _sigma_cone(lattice_summary(graph))


def _sigma_cone(summary: LatticeSummary) -> ConeDescription:
    """:func:`sigma_cone` from an existing lattice summary."""
    kernel = [list(row) for row in summary.kernel_basis]
    ambient = len(summary.domain)
    kdim = len(kernel)
    if kdim == 0:
        return ConeDescription(ambient, 0, (), True, True)
    # halfspace j: (sum_i x_i * kernel[i][j]) >= 0
    halfspaces = [[kernel[i][j] for i in range(kdim)] for j in range(ambient)]
    # a ray r in kernel coordinates is sum_i r_i * kernel[i] in the domain
    support = [[(j, x) for j, x in enumerate(row) if x] for row in kernel]
    rays = []
    for r in extreme_rays(halfspaces):
        v = [0] * ambient
        for ri, row in zip(r, support):
            if ri:
                for j, x in row:
                    v[j] += ri * x
        rays.append(il.primitive(v))
    rays.sort()
    # the constraint matrix has trivial nullspace (the kernel basis has full
    # rank), so the cone has no lineality and is strictly convex
    strictly_convex = True
    # a pointed cone is the hull of its rays, so the sum of the rays is a
    # relative interior point; it is interior in the kernel exactly when no
    # coordinate that is nonzero on the kernel vanishes on every ray
    used = {j for row in support for j, _ in row}
    top = all(any(r[j] for r in rays) for j in used)
    return ConeDescription(ambient, kdim, tuple(tuple(r) for r in rays), strictly_convex, top)


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

    def rendered(self) -> list[str]:
        """Human-readable equations, one per exponent vector."""
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
    the label is outside that vertex's depth.  Exponent vectors are +/- the
    rows of the lattice map, so they generate its row lattice.
    """
    dom = domain_basis(graph)
    col = {lab: i for i, lab in enumerate(dom.labels)}
    exponents = []
    seen = set()
    for e in sorted(graph.edges, key=lambda e: e.id):
        for label in sorted(e.depth, key=graph.divisors.index):
            s = e.contact[graph.divisors.index(label)]
            tail, head = (e.v1, e.v2) if s >= 0 else (e.v2, e.v1)
            m = [0] * len(dom)
            m[col[("edge", e.id)]] = abs(s)
            if e.v1 != e.v2:
                if label in graph.vertex(tail).depth:
                    m[col[("vertex", tail, label)]] += 1
                if label in graph.vertex(head).depth:
                    m[col[("vertex", head, label)]] -= 1
            key = _canonical_sign(m)
            if key not in seen and any(key):
                seen.add(key)
                exponents.append(tuple(m))
    return BinomialSystem(dom, tuple(exponents))


def toric_ideal_generators(graph: DecoratedDualGraph) -> BinomialSystem:
    """Binomials for a lattice basis of the annihilator of the kernel.

    This is a LATTICE-BASIS presentation of the toric ideal: the full ideal
    is its saturation, which is not computed here (see
    :func:`eliminate_unit_entries` and the parametrization check in the
    test-suite for the verification contract).
    """
    return _toric_ideal_generators(lattice_summary(graph))


def _toric_ideal_generators(summary: LatticeSummary) -> BinomialSystem:
    """:func:`toric_ideal_generators` from an existing lattice summary."""
    dom = summary.domain
    kernel = [list(r) for r in summary.kernel_basis]
    if not kernel:
        basis_rows = il.identity(len(dom))
    else:
        basis_rows = il.kernel_basis(kernel)
    basis_rows = il.hermite_row_basis(basis_rows) if basis_rows else []
    return BinomialSystem(dom, tuple(tuple(r) for r in basis_rows))


def eliminate_unit_entries(
    system: BinomialSystem, kinds: tuple[str, ...] = ("vertex",)
) -> tuple[list[tuple[int, ...]], list]:
    """Unimodular elimination of variables that appear with exponent +-1.

    Repeatedly pick a basis vector with a +-1 entry in a coordinate whose
    label kind is in ``kinds``, use it to clear that coordinate from the
    others, and drop both the vector and the coordinate.  Returns the
    reduced exponent vectors and the labels of the surviving coordinates.
    This reduction is exactly the substitution of one variable by a
    monomial in the others, so it preserves the variety up to a coordinate
    change.  By default only pushout coordinates t_{v,i} are eliminated,
    leaving relations among the gluing parameters.
    """
    vectors = [list(m) for m in system.exponents]
    labels = list(system.basis.labels)
    changed = True
    while changed:
        changed = False
        for vi, vec in enumerate(vectors):
            unit = next(
                (j for j, x in enumerate(vec) if abs(x) == 1 and labels[j][0] in kinds),
                None,
            )
            if unit is None:
                continue
            sign = vec[unit]
            for wi, w in enumerate(vectors):
                if wi != vi and w[unit] != 0:
                    f = w[unit] * sign
                    vectors[wi] = [a - f * b for a, b in zip(w, vec)]
            del vectors[vi]
            for w in vectors:
                del w[unit]
            del labels[unit]
            changed = True
            break
    return [tuple(v) for v in vectors], labels


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
    to 1 on eta; the character lattice is the (saturated) integer kernel of
    the transposed lattice map, extracted exactly and reduced to its
    Hermite basis, whose small entries keep the float evaluation accurate.
    Only the final evaluation |eta^m - 1| is numerical.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, not {tol!r}")
    _, tgt, rho = build_rho(graph)
    values = []
    for lab in tgt.labels:
        key = (lab[1], lab[2])
        if key not in eta.eta:
            raise ValueError(f"missing eta entry for edge {lab[1]!r}, label {lab[2]!r}")
        z = complex(eta.eta[key])
        if z == 0:
            raise ValueError(f"eta entry for edge {lab[1]!r}, label {lab[2]!r} is zero")
        values.append(z)
    characters = il.hermite_row_basis(il.left_kernel_basis(rho))
    log_safe = all(1e-6 <= abs(z) <= 1e6 for z in values)
    violations = []
    for m in characters:
        if log_safe:
            # evaluate in log space: exp(sum m_i log z_i)
            acc = sum(mi * cmath.log(z) for mi, z in zip(m, values) if mi != 0)
            val = cmath.exp(acc)
        else:
            val = 1 + 0j
            for mi, z in zip(m, values):
                if mi != 0:
                    val *= z ** mi
        dist = abs(val - 1)
        if dist > tol or math.isnan(dist):
            violations.append((tuple(m), dist))
    return ObstructionVerdict(not violations, tuple(violations))
