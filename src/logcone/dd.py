"""Extreme rays of the cone col(A) ∩ R^m_{>=0}, A an m x k integer matrix.

A is the transpose of a full-rank basis in row echelon form, such as a
Hermite basis (Schrijver 1986, ch. 4): row j of A is column j of the
basis.  A vector s = A x is in the cone exactly when x satisfies the
halfspaces A x >= 0, and A has full column rank k, so the cone is pointed
and no lineality handling is needed.  Every ray is kept as its image s
only, so the rays come out in the coordinates of R^m.

Incremental double description over the integers (Motzkin et al. 1953;
Fukuda & Prodon 1996) for the multi-divisor gluing cones.  Equal rows of
A are one halfspace: the method runs on the distinct rows and copies
each ray's entries to the repeats.  The rows at the basis's pivot
columns bound a simplicial cone whose rays' images come from the basis
rows by back-substitution: each row, bottom first, has its entries at
the later pivots cleared with the rays already found.  The remaining
halfspaces are then inserted one at a time, combining adjacent positive
and negative rays; each ray's zero set on the processed rows is derived
from its parents, never scanned.  Output rays are primitive and sorted,
hence deterministic.  The cone depends only on the column space of A, so
any other full-column-rank system can be passed as
``transpose(hermite_row_basis(transpose(A)))`` and gives the same rays.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from . import intlinalg as il


def _start(A: il.Matrix, k: int) -> tuple[list[int], list[list[int]]]:
    """Pivot rows of A and the images of the extreme rays of the simplicial
    cone they bound, ray j vanishing on every pivot row but the j-th.

    Column j of A is basis row j, zero before its pivot, so the pivot rows
    form a lower-triangular block.  Ray j is basis row j with its entries at
    pivots j+1, ..., k-1 cleared by rays j+1, ..., k-1, made primitive and
    positive at pivot j.
    """
    pivots = [next((i for i, a in enumerate(A) if a[j]), -1) for j in range(k)]
    if -1 in pivots:
        raise ValueError("constraint matrix does not have full column rank")
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("constraint matrix is not the transpose of an echelon basis")
    rays: list[list[int]] = [[]] * k
    for j in range(k - 1, -1, -1):
        s = [a[j] for a in A]
        for t in range(j + 1, k):
            v = s[pivots[t]]
            if v:
                r = rays[t]
                c = r[pivots[t]]
                g = gcd(v, c)
                c //= g
                v //= g
                s = [c * a - v * b for a, b in zip(s, r)]
        g = gcd(*s)
        if s[pivots[j]] < 0:
            g = -g
        rays[j] = [a // g for a in s] if g != 1 else s
    return pivots, rays


def _distinct_extreme_rays(A: il.Matrix, k: int) -> list[list[int]]:
    """:func:`extreme_rays` for an A with no two equal rows, unsorted.

    Each ray is its image s and the bitmask of processed rows where s
    vanishes, so inserting row i reads every sign off s[i].  A positive and
    a negative ray are combined only when they are adjacent, tested
    combinatorially (Fukuda & Prodon 1996): their common zero set Z has at
    least k - 2 rows, and no third ray's zero set contains Z.  Both are
    nonnegative on the processed rows, so their combination vanishes on Z
    and on row i only.
    """
    pivots, ss = _start(A, k)
    done = sum(1 << i for i in pivots)
    zs = [done ^ 1 << i for i in pivots]
    for i in range(len(A)):
        bit = 1 << i
        if done & bit:
            continue
        pos = []
        neg = []
        new_ss = []
        new_zs = []
        for s, z in zip(ss, zs):
            v = s[i]
            if v > 0:
                pos.append((s, z))
            elif v:
                neg.append((s, z))
                continue
            else:
                z |= bit
            new_ss.append(s)
            new_zs.append(z)
        for sp, zp in pos:
            vp = sp[i]
            for sn, zn in neg:
                common = zp & zn
                if common.bit_count() < k - 2 or any(
                    z & common == common and z != zp and z != zn for z in zs
                ):
                    continue
                vn = sn[i]
                # vp * sn - vn * sp: positive combination, lands on row i = 0
                s = [vp * a - vn * b for a, b in zip(sn, sp)]
                g = gcd(*s)
                if g != 1:
                    s = [a // g for a in s]
                new_ss.append(s)
                new_zs.append(common | bit)
        ss, zs = new_ss, new_zs
        done |= bit
    return ss


def extreme_rays(A: il.Matrix) -> list[tuple[int, ...]]:
    """Extreme rays of col(A) ∩ R^m_{>=0}, A the transpose of a full-rank
    echelon basis (ValueError otherwise).

    Returns primitive integer vectors s = A x as tuples, sorted
    lexicographically; the output is independent of the order in which
    constraints are processed.  Equal rows are solved once: the first copy
    of each row keeps its position among the distinct rows, so sorting the
    distinct rays sorts their copies.
    """
    if not A or not A[0]:
        return []
    rows = list(dict.fromkeys(map(tuple, A)))
    rays = sorted(_distinct_extreme_rays(rows, len(rows[0])))
    if len(rows) == len(A):
        return list(map(tuple, rays))
    copy = itemgetter(*map({r: i for i, r in enumerate(rows)}.__getitem__, map(tuple, A)))
    return list(map(copy, rays))
