"""Rational phase-1 solver kept as a test oracle for the integer tableau.

This is the ``Fraction`` tableau that ``logcone.simplex.positive_kernel_point``
used before its pivots became integer-preserving.  It normalises every
entry after every pivot, which is slow but obviously exact, and it takes
the same Bland pivots, so the two solvers must return equal witnesses and
equal multipliers on every system.
"""

from __future__ import annotations

from fractions import Fraction


def _simplex(T, basis, n_cols):
    """Run Bland-rule simplex on tableau T in place; returns False if unbounded."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(n_cols) if obj[j] < 0), None)
        if enter is None:
            return True
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return False
        _, leave = best
        piv = T[leave][enter]
        T[leave] = [x / piv if x else x for x in T[leave]]
        for i in range(len(T)):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b if b else a for a, b in zip(T[i], T[leave])]
        basis[leave] = enter


def positive_kernel_point(a, n):
    """``(x, None)`` with A x = 0 and x >= 1, or ``(None, u)`` with u^T A >= 0, != 0."""
    m = len(a)
    width = n + m
    T = []
    signs = []
    for i, row in enumerate(a):
        rhs = -sum(row)
        sign = -1 if rhs < 0 else 1
        line = [Fraction(sign * v) for v in row] + [Fraction(0)] * (m + 1)
        line[n + i] = Fraction(1)
        line[-1] = Fraction(sign * rhs)
        T.append(line)
        signs.append(sign)
    obj = [-sum(T[i][j] for i in range(m)) for j in range(n)]
    obj += [Fraction(0)] * m + [-sum(T[i][-1] for i in range(m))]
    T.append(obj)
    basis = [n + i for i in range(m)]
    _simplex(T, basis, width)
    if T[-1][-1] == 0:
        x = [Fraction(1)] * n
        for i, col in enumerate(basis):
            if col < n:
                x[col] += T[i][-1]
        return x, None
    return None, [(T[-1][n + i] - 1) * signs[i] for i in range(m)]
