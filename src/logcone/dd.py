"""Extreme rays of a pointed polyhedral cone {x : A x >= 0}.

Incremental double description over the integers: start from a simplicial
subcone cut out by a maximal independent subset of the constraints, then
insert the remaining halfspaces one at a time, combining adjacent positive
and negative rays.  The constraint matrix here always has full column rank
(it is a lattice basis stacked as rows), so the cone is pointed and no
lineality handling is needed.  Output rays are primitive and sorted, hence
deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from . import intlinalg as il


def _independent_rows(A: il.Matrix, k: int) -> list[int]:
    """Indices of k linearly independent rows of A (A has column rank k)."""
    chosen: list[int] = []
    rows: list[list[Fraction]] = []
    for i, raw in enumerate(A):
        cand = [Fraction(x) for x in raw]
        work = cand[:]
        for r in rows:
            piv = next(j for j, x in enumerate(r) if x != 0)
            if work[piv] != 0:
                f = work[piv] / r[piv]
                work = [a - f * b for a, b in zip(work, r)]
        if any(work):
            rows.append(work)
            chosen.append(i)
            if len(chosen) == k:
                return chosen
    raise ValueError("constraint matrix does not have full column rank")


def _initial_rays(A: il.Matrix, idx: list[int]) -> list[list[int]]:
    """Extreme rays of the simplicial cone {x : A[idx] x >= 0}.

    With M = A[idx] the rays are the columns of M^-1.  One fraction-free
    Gauss-Jordan elimination of [M | I] (Bareiss) leaves d * M^-1 in the
    right block, d = +-det M being the last pivot; every division in it
    is exact.  Column j times the sign of d is |det M| * M^-1 e_j.
    """
    k = len(idx)
    T = [list(A[i]) + [int(r == c) for c in range(k)] for r, i in enumerate(idx)]
    prev = 1
    for c in range(k):
        if T[c][c] == 0:
            p = next(i for i in range(c + 1, k) if T[i][c] != 0)
            T[c], T[p] = T[p], T[c]
        piv = T[c][c]
        pivot_row = T[c]
        for i in range(k):
            if i != c:
                f = T[i][c]
                T[i] = [(piv * a - f * b) // prev for a, b in zip(T[i], pivot_row)]
        prev = piv
    sign = 1 if prev > 0 else -1
    return [il.primitive([sign * T[i][k + j] for i in range(k)]) for j in range(k)]


def extreme_rays(A: il.Matrix) -> list[list[int]]:
    """Extreme rays of {x in R^k : A x >= 0}, A with full column rank k.

    Returns primitive integer rays sorted lexicographically; the output is
    independent of the order in which constraints are processed.
    """
    if not A or not A[0]:
        return []
    k = len(A[0])
    base = _independent_rows(A, k)
    rays = _initial_rays(A, base)
    processed = [A[i] for i in base]
    pending = [A[i] for i in range(len(A)) if i not in set(base)]

    for a in pending:
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        pos = [r for r, v in zip(rays, vals) if v > 0]
        zero = [r for r, v in zip(rays, vals) if v == 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        if not neg:
            processed.append(a)
            continue
        new_rays = pos + zero
        for rp, vp in [(r, v) for r, v in zip(rays, vals) if v > 0]:
            for rn, vn in neg:
                if not _adjacent(processed, rp, rn, k):
                    continue
                combo = [vp * x - vn * y for x, y in zip(rn, rp)]
                # vp * rn - vn * rp: positive combination, lands on a = 0
                new_rays.append(il.primitive(combo))
        processed.append(a)
        # dedupe (primitive rays are unique representatives)
        seen = set()
        rays = []
        for r in new_rays:
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                rays.append(r)
    return sorted(rays)


def _adjacent(constraints: il.Matrix, r1: list[int], r2: list[int], k: int) -> bool:
    """Algebraic adjacency: common active constraints have rank k - 2."""
    if k <= 2:
        return True
    common = [
        a
        for a in constraints
        if sum(x * y for x, y in zip(a, r1)) == 0 and sum(x * y for x, y in zip(a, r2)) == 0
    ]
    if len(common) < k - 2:
        return False
    return il.rank(common) == k - 2
