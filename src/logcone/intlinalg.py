"""Exact integer linear algebra: the Smith and Hermite normal forms.

Everything here works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers; no floating point enters any computation.
One Smith normal form of the lattice map gives every lattice invariant
(kernel, cokernel torsion, characters, the saturated row lattice), and the
Hermite form makes each basis canonical.  The determinants, rational solves
and lattice indices the tests check them with are in
``tests/reference_intlinalg.py``.
"""

from __future__ import annotations

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def copy_matrix(M: Matrix) -> Matrix:
    # list(), not row[:], so that tuple rows come out writable
    return [list(row) for row in M]


def transpose(M: Matrix) -> Matrix:
    if not M:
        return []
    return [list(col) for col in zip(*M)]


def dims(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def _swap_rows(M: Matrix, i: int, j: int) -> None:
    M[i], M[j] = M[j], M[i]


def _swap_cols(M: Matrix, i: int, j: int, first_row: int) -> None:
    """Swap columns i and j in the rows from ``first_row`` on."""
    for row in M[first_row:]:
        row[i], row[j] = row[j], row[i]


def _support(row: list[int], start: int = 0) -> list[tuple[int, int]]:
    """(index, value) of the nonzero entries of row[start:]."""
    return [(k, x) for k, x in enumerate(row[start:], start) if x]


def _axpy(row: list[int], support: list[tuple[int, int]], c: int) -> None:
    """row += c * src in place, where ``support`` is src's nonzero entries."""
    for k, x in support:
        row[k] += c * x


def _negate_row(M: Matrix, i: int) -> None:
    M[i] = [-a for a in M[i]]


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal.

    The diagonal entries are non-negative and satisfy d1 | d2 | ... .
    Pivots are chosen by minimal absolute value to limit coefficient
    growth, the first such entry in row-major order; the scan stops at the
    first unit entry, which no later entry can beat.  V is kept transposed
    while it is built, so a column operation on V is a row operation on its
    transpose; both transforms are updated through the nonzero entries of
    their pivot row.
    """
    m, n = dims(M)
    A = copy_matrix(M)
    U = identity(m)
    VT = identity(n)
    t = 0
    while t < m and t < n:
        pivot = None
        best = 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    a = x if x > 0 else -x
                    if pivot is None or a < best:
                        pivot, best = (i, j), a
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(A, t, pi)
            _swap_rows(U, t, pi)
        # rows above t are zero in every column >= t, so column operations
        # on A start at row t
        if pj != t:
            _swap_cols(A, t, pj, t)
            _swap_rows(VT, t, pj)
        while True:
            # clear column t below the pivot; support lists hold the nonzero
            # entries of the pivot row (or column, or row of V^T), which
            # change only when the pivot is swapped out
            done = True
            pivot_row = None
            u_row = None
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    if pivot_row is None:
                        pivot_row = _support(A[t], t)
                    _axpy(A[i], pivot_row, -q)
                    if u_row is None:
                        u_row = _support(U[t])
                    _axpy(U[i], u_row, -q)
                    if A[i][t] != 0:
                        _swap_rows(A, t, i)
                        _swap_rows(U, t, i)
                        pivot_row = u_row = None
                        done = False
            if not done:
                continue
            # clear row t to the right of the pivot
            pivot_col = None
            v_row = None
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    if pivot_col is None:
                        pivot_col = [(i, A[i][t]) for i in range(t, m) if A[i][t]]
                    for i, x in pivot_col:
                        A[i][j] -= q * x
                    if v_row is None:
                        v_row = _support(VT[t])
                    _axpy(VT[j], v_row, -q)
                    if A[t][j] != 0:
                        _swap_cols(A, t, j, t)
                        _swap_rows(VT, t, j)
                        pivot_col = v_row = None
                        done = False
            if not done:
                continue
            # force the pivot to divide every remaining entry (a unit does)
            p = A[t][t]
            if p == 1 or p == -1:
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _axpy(A[t], _support(A[offender], t), 1)
            _axpy(U[t], _support(U[offender]), 1)
        if A[t][t] < 0:
            _negate_row(A, t)
            _negate_row(U, t)
        t += 1
    return U, A, transpose(VT)


def _diagonal(D: Matrix) -> list[int]:
    return [D[i][i] for i in range(min(dims(D))) if D[i][i] != 0]


def elementary_divisors(M: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of M."""
    return _diagonal(smith_normal_form(M)[1])


def rank(M: Matrix) -> int:
    return len(_diagonal(smith_normal_form(M)[1]))


def kernel_basis(M: Matrix) -> list[list[int]]:
    """Integer basis of {x : M x = 0}, as rows: the columns of V past the rank."""
    _, D, V = smith_normal_form(M)
    return transpose(V)[len(_diagonal(D)):]


def left_kernel_basis(M: Matrix) -> list[list[int]]:
    """Integer basis of {y : y M = 0}."""
    return kernel_basis(transpose(M))


def hermite_row_basis(M: Matrix) -> list[list[int]]:
    """Canonical (row-style) Hermite normal form basis of the row lattice.

    The result is the unique HNF basis: positive pivots with entries above
    each pivot reduced into [0, pivot).  Two integer matrices span the same
    row lattice iff their Hermite bases are equal, which is how lattice
    equality is decided throughout the package.
    """
    A = copy_matrix(M)
    if not A:
        return []
    m, n = dims(A)
    r = 0
    for c in range(n):
        # gcd-reduce column c over rows >= r into a single entry at row r
        while True:
            rows = [i for i in range(r, m) if A[i][c] != 0]
            if not rows:
                break
            i0 = min(rows, key=lambda i: abs(A[i][c]))
            if i0 != r:
                _swap_rows(A, r, i0)
            nonzero_left = False
            # rows >= r are zero in every column < c
            pivot_row = _support(A[r], c)
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    _axpy(A[i], pivot_row, -q)
                    if A[i][c] != 0:
                        nonzero_left = True
            if not nonzero_left:
                break
        if r < m and A[r][c] != 0:
            if A[r][c] < 0:
                _negate_row(A, r)
            pivot_row = _support(A[r], c)
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    _axpy(A[i], pivot_row, -q)
            r += 1
            if r == m:
                break
    return [row for row in A[:r]]
