"""Rational and determinant routines kept as test oracles for the lattice code.

``logcone.intlinalg`` computes every invariant from Smith and Hermite normal
forms.  The checks here use other means: matrix products to confirm
U*M*V = D, Bareiss determinants to confirm unimodularity, Gauss-Jordan
solves over the rationals, and lattice indices as the determinant of one
Hermite basis expressed in another.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from logcone.intlinalg import Matrix, copy_matrix, dims, hermite_row_basis, transpose


def matmul(A: Matrix, B: Matrix) -> Matrix:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    bt = transpose(B)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in A]


def mat_vec(M: Matrix, v: list) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in M]


def det(M: Matrix) -> int:
    """Determinant via fraction-free Bareiss elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = copy_matrix(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def solve_rational(A: Matrix, b: list) -> list[Fraction] | None:
    """One exact solution of A x = b over the rationals, or None."""
    m, n = dims(A)
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def express_in_basis(basis: list[list[int]], v: list[int]) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * basis_i) = v, or None if v is outside the span."""
    if not basis:
        return [] if all(x == 0 for x in v) else None
    return solve_rational(transpose(basis), v)


def lattice_index(sub: list[list[int]], sup: list[list[int]]) -> int:
    """Index of the lattice spanned by ``sub`` inside the one spanned by ``sup``.

    Both are given as row lists and must span lattices of equal rank, with
    sub contained in sup; raises ValueError otherwise.
    """
    sub_h = hermite_row_basis(sub)
    sup_h = hermite_row_basis(sup)
    if len(sub_h) != len(sup_h):
        raise ValueError("lattices have different ranks")
    coeffs = []
    for v in sub_h:
        c = express_in_basis(sup_h, v)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("first lattice is not a sublattice of the second")
        coeffs.append([int(x) for x in c])
    return abs(det(coeffs))


def primitive(v: list[int]) -> list[int]:
    """Scale an integer vector by 1/gcd; direction (sign) is preserved."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return list(v)
    w = [x // g for x in v]
    return w
