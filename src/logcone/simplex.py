"""Exact simplex: strict feasibility of homogeneous systems.

Bland's smallest-index rule guarantees termination, and no step rounds, so
infeasibility and optimality are proofs, not tolerance calls, which is what
the tropical-feasibility decision needs.  Problems here are tiny (tens of
variables), so a dense tableau is plenty.

:func:`positive_kernel_point` is the solver the package uses: one phase-1
tableau decides whether A x = 0 has a strictly positive solution and
returns either such an x or a Stiemke multiplier vector.  Its pivots are
integer-preserving (fraction-free): the tableau stays integral over one
common denominator, and :class:`fractions.Fraction` appears only when the
result is read out.

:func:`solve_lp`, :class:`LPResult` and the :class:`~fractions.Fraction`
tableau loop :func:`_simplex` are a general two-phase LP over free
variables.  Nothing in the package calls them; they stay, unchanged, only
because ``perfbench/spans.py`` looks up ``simplex.solve_lp`` by name when a
traced benchmark run starts, and they go together with that lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction] | None
    # Dual multipliers, one per constraint row in input order (equalities
    # first, then inequalities); a certificate of the optimal bound.
    duals: list[Fraction] | None


def _simplex(T, basis, n_cols):
    """Run Bland-rule simplex on tableau T in place; returns False if unbounded.

    T has one row per constraint plus the objective row last; the objective
    row holds reduced costs for minimization (optimal when all >= 0).
    """
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
        # the tableau is mostly zeros; skipping them skips Fraction arithmetic
        T[leave] = [x / piv if x else x for x in T[leave]]
        for i in range(len(T)):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b if b else a for a, b in zip(T[i], T[leave])]
        basis[leave] = enter


def solve_lp(c, a_eq, b_eq, a_ub, b_ub, maximize=False) -> LPResult:
    """Solve min (or max) c.x subject to a_eq x = b_eq and a_ub x <= b_ub.

    Variables are free; internally each is split into a difference of
    non-negative parts and slacks are added.  Returns optimal x and the
    dual multipliers of all constraints.
    """
    c = [Fraction(v) for v in c]
    if maximize:
        c = [-v for v in c]
    n = len(c)
    rows = [( [Fraction(v) for v in row], Fraction(b), True) for row, b in zip(a_eq, b_eq)]
    rows += [([Fraction(v) for v in row], Fraction(b), False) for row, b in zip(a_ub, b_ub)]
    m = len(rows)
    n_slack = sum(1 for _, _, is_eq in rows if not is_eq)

    # columns: x+ (n), x- (n), slacks (n_slack), artificials (m)
    width = 2 * n + n_slack + m
    T = []
    slack_idx = 0
    row_sign = []
    for i, (row, b, is_eq) in enumerate(rows):
        line = [Fraction(0)] * (width + 1)
        for j, v in enumerate(row):
            line[j] = v
            line[n + j] = -v
        if not is_eq:
            line[2 * n + slack_idx] = Fraction(1)
            slack_idx += 1
        if b < 0:
            line = [-v for v in line]
            b = -b
            row_sign.append(-1)
        else:
            row_sign.append(1)
        line[2 * n + n_slack + i] = Fraction(1)
        line[-1] = b
        T.append(line)

    # phase 1: minimize the sum of artificials
    obj = [Fraction(0)] * (width + 1)
    for j in range(2 * n + n_slack, width):
        obj[j] = Fraction(1)
    T.append(obj)
    basis = [2 * n + n_slack + i for i in range(m)]
    for i in range(m):
        T[-1] = [a - b for a, b in zip(T[-1], T[i])]
    _simplex(T, basis, width)
    if -T[-1][-1] != 0:
        return LPResult("infeasible", None, None, None)
    # drive any artificials out of the basis, then drop their columns
    for i in range(m):
        if basis[i] >= 2 * n + n_slack:
            enter = next((j for j in range(2 * n + n_slack) if T[i][j] != 0), None)
            if enter is None:
                continue  # redundant row
            piv = T[i][enter]
            T[i] = [x / piv for x in T[i]]
            for k in range(len(T)):
                if k != i and T[k][enter] != 0:
                    f = T[k][enter]
                    T[k] = [a - f * b for a, b in zip(T[k], T[i])]
            basis[i] = enter

    # phase 2
    T[-1] = [Fraction(0)] * (width + 1)
    for j in range(n):
        T[-1][j] = c[j]
        T[-1][n + j] = -c[j]
    for i in range(m):
        if basis[i] < 2 * n + n_slack and T[-1][basis[i]] != 0:
            f = T[-1][basis[i]]
            T[-1] = [a - f * b for a, b in zip(T[-1], T[i])]
    if not _simplex(T, basis, 2 * n + n_slack):
        return LPResult("unbounded", None, None, None)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] += T[i][-1]
        elif basis[i] < 2 * n:
            x[basis[i] - n] -= T[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # duals read off the artificial columns of the final objective row
    # (reduced cost of artificial i is -y_i, modulo the row negation above)
    duals = [-T[-1][2 * n + n_slack + i] * row_sign[i] for i in range(m)]
    if maximize:
        value = -value
        duals = [-d for d in duals]
    return LPResult("optimal", value, x, duals)


def positive_kernel_point(a, n):
    """Decide whether A x = 0 has a solution with every x_j > 0.

    ``a`` is the list of rows of A, each of length ``n``, with integer
    entries.  Returns ``(x, None)`` with A x = 0 and every x_j >= 1, or
    ``(None, u)`` with one rational per row such that u^T A >= 0 and
    u^T A != 0 (Stiemke's alternative), which rules out every positive x
    because u^T A x would be both 0 and positive.

    The system is homogeneous, so a positive solution can be scaled to
    x >= 1; substituting x = 1 + y leaves the phase-1 problem
    min sum(art) subject to A y + art = -A 1, y >= 0, art >= 0.  At a
    phase-1 optimum with value > 0 the reduced cost of artificial i is
    r_i = 1 - w_i for the row duals w, so u = (r_i - 1) * sign_i satisfies
    u^T A >= 0 and u^T A 1 = value > 0.

    The tableau is held as integers T over one common denominator d, the
    determinant of the current basis, so T / d is the rational tableau.
    Pivoting on (r, c) with p = T[r][c] leaves row r as it is and replaces
    every other row by (p * T[i] - T[i][c] * T[r]) / d, which is exact by
    Sylvester's identity (Bareiss 1968; Edmonds 1967); then d becomes p.
    Bland's rule reads only signs and ratios, so the pivots are the ones a
    rational tableau would take.
    """
    m = len(a)
    width = n + m
    T = []
    signs = []
    for i, row in enumerate(a):
        rhs = -sum(row)
        sign = -1 if rhs < 0 else 1
        line = [sign * v for v in row] + [0] * (m + 1)
        line[n + i] = 1
        line[-1] = sign * rhs
        T.append(line)
        signs.append(sign)
    # reduced costs of the phase-1 objective with the artificials basic
    obj = [-sum(T[i][j] for i in range(m)) for j in range(n)]
    obj += [0] * m + [-sum(T[i][-1] for i in range(m))]
    T.append(obj)
    basis = [n + i for i in range(m)]
    d = 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        # ratio test over a_i > 0; ties go to the smaller basis index
        leave = None
        for i in range(m):
            a_i = T[i][enter]
            if a_i > 0:
                if leave is not None:
                    # the sign of b_i / a_i - b_l / a_l, cross-multiplied
                    diff = T[i][-1] * a_l - b_l * a_i
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave, b_l, a_l = i, T[i][-1], a_i
        # the objective is bounded below by 0, so some a_i > 0
        prow = T[leave]
        p = prow[enter]
        nonzero = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            if i == leave:
                continue
            f = row[enter]
            if not f:
                if p != d:
                    T[i] = [v * p // d for v in row]
            elif p == d:
                # d divides f * T[r][j] here, and only those entries move
                for j, v in nonzero:
                    row[j] -= f * v // d
            else:
                new = [v * p for v in row]
                for j, v in nonzero:
                    new[j] -= f * v
                T[i] = [v // d for v in new]
        basis[leave] = enter
        d = p
    if T[-1][-1] == 0:
        x = [Fraction(1)] * n
        for i, col in enumerate(basis):
            if col < n:
                x[col] += Fraction(T[i][-1], d)
        return x, None
    return None, [(Fraction(T[-1][n + i], d) - 1) * signs[i] for i in range(m)]
