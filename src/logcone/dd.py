"""Extreme rays of the cone col(A) ∩ R^m_{>=0}, A an m x k integer matrix.

A is the transpose of a full-rank basis in row echelon form, such as a
Hermite basis (Schrijver 1986, ch. 4): row j of A is column j of the
basis.  A vector s = A x is in the cone exactly when x satisfies the
halfspaces A x >= 0, and A has full column rank k, so the cone is pointed
and no lineality handling is needed.  Every ray is kept as its image s
only, so the rays come out in the coordinates of R^m.

Incremental double description over the integers (Motzkin et al. 1953;
Fukuda & Prodon 1996): the rows at the basis's pivot columns form a
lower-triangular block, whose simplicial cone's rays come from forward
substitution; the remaining halfspaces are then inserted one at a time,
combining adjacent positive and negative rays.  Output rays are primitive
and sorted, hence deterministic.  The cone depends only on the column
space of A, so any other full-column-rank system can be passed as
``transpose(hermite_row_basis(transpose(A)))`` and gives the same rays.
"""

from __future__ import annotations

from math import gcd

from . import intlinalg as il


def _triangular_rows(A: il.Matrix, k: int) -> list[int]:
    """Rows of A, in order, whose last nonzero entry is at column 0, 1, ..., k-1.

    Rows found so far span the first t coordinates, so a row whose last
    nonzero is before t is dependent and skipped.  For the transpose of an
    echelon basis these rows are its pivot columns; a row ending past t
    means A is not such a transpose, and raises ValueError.
    """
    chosen: list[int] = []
    for i, row in enumerate(A):
        t = len(chosen)
        last = next((j for j in range(k - 1, -1, -1) if row[j]), -1)
        if last == t:
            chosen.append(i)
            if t + 1 == k:
                return chosen
        elif last > t:
            raise ValueError("constraint matrix is not the transpose of an echelon basis")
    raise ValueError("constraint matrix does not have full column rank")


def _triangular_rays(A: il.Matrix, idx: list[int]) -> list[list[int]]:
    """Extreme rays of {x : M x >= 0} for lower-triangular M = A[idx].

    Ray j is the primitive column j of M^-1 with the sign that makes
    (M x)_j positive.  Forward substitution keeps x primitive: x_j starts
    at the sign of M[j][j], and x_i = -S / M[i][i], S the row's partial
    sum, needs the earlier entries scaled by exactly |M[i][i]| / gcd(S, M[i][i]).
    """
    k = len(idx)
    rows = [[(c, A[i][c]) for c in range(r) if A[i][c]] for r, i in enumerate(idx)]
    rays = []
    for j in range(k):
        x = [0] * k
        x[j] = 1 if A[idx[j]][j] > 0 else -1
        for i in range(j + 1, k):
            S = sum(a * x[c] for c, a in rows[i] if c >= j)
            if S:
                d = A[idx[i]][i]
                g = gcd(S, d)
                f = abs(d) // g
                if f != 1:
                    x = [f * a for a in x]
                x[i] = -(S // g) if d > 0 else S // g
        rays.append(x)
    return rays


def _zero_mask(s: list[int]) -> int:
    """Bit i set exactly where s[i] == 0."""
    return sum(1 << i for i, v in enumerate(s) if v == 0)


def extreme_rays(A: il.Matrix) -> list[list[int]]:
    """Extreme rays of col(A) ∩ R^m_{>=0}, A the transpose of a full-rank
    echelon basis (ValueError otherwise).

    Returns primitive integer vectors s = A x, sorted lexicographically;
    the output is independent of the order in which constraints are
    processed.

    The start block is the lower-triangular run of rows found by
    :func:`_triangular_rows`, solved by forward substitution; the start
    rays' images are accumulated through the column supports of A.  Each
    ray is its image s and the bitmask of rows where s vanishes, so
    inserting row i reads every sign off s[i].  A positive and a negative
    ray are combined only when they are adjacent, tested combinatorially
    (Fukuda & Prodon 1996): their common zero set Z among the processed
    rows has at least k - 2 rows, and no third ray's zero set contains Z.
    """
    if not A or not A[0]:
        return []
    k = len(A[0])
    base = _triangular_rows(A, k)
    m = len(A)
    cols = [[(i, a[j]) for i, a in enumerate(A) if a[j]] for j in range(k)]
    ss = []
    for x in _triangular_rays(A, base):
        s = [0] * m
        for xj, col in zip(x, cols):
            if xj:
                for i, c in col:
                    s[i] += xj * c
        g = gcd(*s)
        if g != 1:
            s = [v // g for v in s]
        ss.append(s)
    zs = [_zero_mask(s) for s in ss]
    done = sum(1 << i for i in base)

    for i in range(m):
        if done >> i & 1:
            continue
        neg = [n for n, s in enumerate(ss) if s[i] < 0]
        if neg:
            pos = [p for p, s in enumerate(ss) if s[i] > 0]
            keep = [t for t, s in enumerate(ss) if s[i] >= 0]
            new_ss = [ss[t] for t in keep]
            new_zs = [zs[t] for t in keep]
            for p in pos:
                sp, vp = ss[p], ss[p][i]
                for n in neg:
                    common = zs[p] & zs[n] & done
                    if common.bit_count() < k - 2 or any(
                        z & common == common for t, z in enumerate(zs) if t != p and t != n
                    ):
                        continue
                    sn, vn = ss[n], ss[n][i]
                    # vp * sn - vn * sp: positive combination, lands on row i = 0
                    s = [vp * a - vn * b for a, b in zip(sn, sp)]
                    g = gcd(*s)
                    if g != 1:
                        s = [a // g for a in s]
                    new_ss.append(s)
                    new_zs.append(_zero_mask(s))
            ss, zs = new_ss, new_zs
        done |= 1 << i
    return sorted(ss)
