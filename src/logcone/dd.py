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

from math import gcd

from . import intlinalg as il


def _independent_rows(A: il.Matrix, k: int) -> list[int]:
    """Indices of k linearly independent rows of A (A has column rank k).

    Fraction-free elimination: each candidate row is reduced against the
    rows kept so far (stored primitive, each with its pivot column) by
    integer cross-multiplication; it is kept when something is left.
    """
    chosen: list[int] = []
    kept: list[tuple[int, list[int]]] = []
    for i, raw in enumerate(A):
        work = list(raw)
        for piv, r in kept:
            f = work[piv]
            if f:
                work = [r[piv] * a - f * b for a, b in zip(work, r)]
        if any(work):
            kept.append((next(j for j, x in enumerate(work) if x), il.primitive(work)))
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


def _zero_mask(s: list[int]) -> int:
    """Bit i set exactly where s[i] == 0."""
    return sum(1 << i for i, v in enumerate(s) if v == 0)


def extreme_rays(A: il.Matrix) -> list[list[int]]:
    """Extreme rays of {x in R^k : A x >= 0}, A with full column rank k.

    Returns primitive integer rays sorted lexicographically; the output is
    independent of the order in which constraints are processed.

    Each ray carries its slack vector s = A x and the bitmask of rows where
    s vanishes, so inserting row i reads every sign off s[i].  A positive
    and a negative ray are combined only when they are adjacent, tested
    combinatorially (Fukuda & Prodon 1996): their common zero set Z among
    the processed rows has at least k - 2 rows, and no third ray's zero set
    contains Z.
    """
    if not A or not A[0]:
        return []
    k = len(A[0])
    base = _independent_rows(A, k)
    sparse = [[(j, x) for j, x in enumerate(a) if x] for a in A]
    xs = _initial_rays(A, base)
    ss = [[sum(x[j] * c for j, c in row) for row in sparse] for x in xs]
    zs = [_zero_mask(s) for s in ss]
    done = sum(1 << i for i in base)

    for i in range(len(A)):
        if done >> i & 1:
            continue
        neg = [n for n, s in enumerate(ss) if s[i] < 0]
        if neg:
            pos = [p for p, s in enumerate(ss) if s[i] > 0]
            keep = [t for t, s in enumerate(ss) if s[i] >= 0]
            new_xs = [xs[t] for t in keep]
            new_ss = [ss[t] for t in keep]
            new_zs = [zs[t] for t in keep]
            for p in pos:
                xp, sp, vp = xs[p], ss[p], ss[p][i]
                for n in neg:
                    common = zs[p] & zs[n] & done
                    if common.bit_count() < k - 2 or any(
                        z & common == common for t, z in enumerate(zs) if t != p and t != n
                    ):
                        continue
                    xn, sn, vn = xs[n], ss[n], ss[n][i]
                    # vp * xn - vn * xp: positive combination, lands on row i = 0
                    x = [vp * a - vn * b for a, b in zip(xn, xp)]
                    g = gcd(*x)
                    s = [(vp * a - vn * b) // g for a, b in zip(sn, sp)]
                    new_xs.append([a // g for a in x])
                    new_ss.append(s)
                    new_zs.append(_zero_mask(s))
            xs, ss, zs = new_xs, new_ss, new_zs
        done |= 1 << i
    return sorted(xs)
