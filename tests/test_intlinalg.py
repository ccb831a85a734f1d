import random
from fractions import Fraction

import pytest

from logcone import intlinalg as il

from reference_intlinalg import det, lattice_index, mat_vec, matmul, primitive, solve_rational


def frac_rank(M):
    """Independent rank oracle: plain Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    cols = len(A[0]) if A else 0
    row = 0
    for c in range(cols):
        piv = next((i for i in range(row, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        A[row] = [x / A[row][c] for x in A[row]]
        for i in range(len(A)):
            if i != row and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[row])]
        row += 1
        rank += 1
    return rank


def reference_snf(M):
    """Smith normal form with full transforms and a full minimal-pivot scan,
    written without any shortcut: the values every lean path must match."""
    m, n = len(M), len(M[0]) if M else 0
    A = [row[:] for row in M]
    U, V = il.identity(m), il.identity(n)

    def add_row(X, dst, src, c):
        X[dst] = [a + c * b for a, b in zip(X[dst], X[src])]

    def swap_cols(X, i, j):
        for row in X:
            row[i], row[j] = row[j], row[i]

    def add_col(X, dst, src, c):
        for row in X:
            row[dst] += c * row[src]

    for t in range(min(m, n)):
        cells = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)
        A[t], A[pi] = A[pi], A[t]
        U[t], U[pi] = U[pi], U[t]
        swap_cols(A, t, pj)
        swap_cols(V, t, pj)
        while True:
            done = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(A, i, t, -q)
                    add_row(U, i, t, -q)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        done = False
            if not done:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(A, j, t, -q)
                    add_col(V, j, t, -q)
                    if A[t][j]:
                        swap_cols(A, t, j)
                        swap_cols(V, t, j)
                        done = False
            if not done:
                continue
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if A[i][j] % A[t][t]), None
            )
            if offender is None:
                break
            add_row(A, t, offender, 1)
            add_row(U, t, offender, 1)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
    return U, A, V


def snf_test_matrices():
    """The round-trip matrices below, plus sparse +-1 matrices shaped like
    lattice maps, plus sparse ones with non-unit entries."""
    rng = random.Random(11)
    out = []
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        out.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    rng = random.Random(12)
    for entries in ((0, 0, 0, 1, -1), (0, 0, 0, 1, -1, 2, -3, 4)):
        for _ in range(80):
            m = rng.randint(1, 9)
            n = rng.randint(1, 9)
            out.append([[rng.choice(entries) for _ in range(n)] for _ in range(m)])
    return out


def test_snf_identity():
    U, D, V = il.smith_normal_form(il.identity(4))
    assert D == il.identity(4)


def test_snf_scalar():
    _, D, _ = il.smith_normal_form([[6]])
    assert D == [[6]]


def test_snf_round_trip_random():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, D, V = il.smith_normal_form(M)
        assert matmul(matmul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        divisors = [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == frac_rank(M)


def test_snf_matches_reference():
    for M in snf_test_matrices():
        assert il.smith_normal_form(M) == reference_snf(M), M


def test_lean_smith_paths_match_full_form():
    for M in snf_test_matrices():
        _, D, V = il.smith_normal_form(M)
        divisors = [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] != 0]
        kernel = il.transpose(V)[len(divisors):]
        assert il.elementary_divisors(M) == divisors
        assert il.rank(M) == len(divisors)
        assert il.kernel_basis(M) == kernel
        Ut, Dt, Vt = il.smith_normal_form(il.transpose(M))
        rt = len([1 for i in range(min(len(Dt), len(Dt[0]))) if Dt[i][i] != 0])
        assert il.left_kernel_basis(M) == il.transpose(Vt)[rt:]


def test_kernel_basis_is_kernel():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        K = il.kernel_basis(M)
        assert len(K) == n - frac_rank(M)
        for v in K:
            assert all(x == 0 for x in mat_vec(M, v))


def test_hermite_decides_lattice_equality():
    # the same lattice presented by two different spanning sets
    A = [[2, 0], [0, 3]]
    B = [[2, 3], [2, -3], [4, 3]]
    assert il.hermite_row_basis(A) == il.hermite_row_basis(B)
    C = [[2, 0], [0, 6]]
    assert il.hermite_row_basis(A) != il.hermite_row_basis(C)


def test_hermite_canonical_under_unimodular_change():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H1 = il.hermite_row_basis(M)
        shuffled = M[:]
        rng.shuffle(shuffled)
        mixed = shuffled + [
            [a + b for a, b in zip(shuffled[0], row)] for row in shuffled[1:]
        ]
        assert il.hermite_row_basis(mixed) == H1


def test_det_matches_expansion():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert det([]) == 1


def test_solve_rational():
    x = solve_rational([[2, 0], [0, 4]], [1, 2])
    assert x == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_lattice_index():
    assert lattice_index([[2, 0], [0, 2]], [[1, 0], [0, 1]]) == 4
    assert lattice_index([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1
    with pytest.raises(ValueError):
        lattice_index([[1, 0]], [[1, 0], [0, 1]])


def test_primitive():
    assert primitive([4, -6, 2]) == [2, -3, 1]
    assert primitive([0, 0]) == [0, 0]
