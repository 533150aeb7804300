"""The sparse reduced-row-echelon kernel against sympy as an independent oracle.

Seeded random sparse rational systems of every shape the slice solver meets:
tall, wide, rank-deficient, inconsistent, with all-zero rows and columns.
``solve`` must return sympy's pivot-column solution (free variables at 0), or
None exactly when the augmented rank exceeds the rank; ``kernel`` must equal
``Matrix.nullspace()`` vector for vector, both using the free-column-at-1
convention.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetbrackets.deform import SparseMatrix  # noqa: E402

SHAPES = [(m, n) for m in (1, 3, 6, 9) for n in (1, 4, 7, 10)]


def _entry(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))


def _random_dense(rng, m, n):
    """A sparse m x n matrix; some rows are zero and some columns empty,
    and with probability 1/2 some rows are combinations of others."""
    empty_cols = set(rng.sample(range(n), rng.randint(0, n // 3)))
    A = [[Fraction(0)] * n for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.15:
            continue
        for j in range(n):
            if j not in empty_cols and rng.random() < 0.35:
                A[i][j] = _entry(rng)
    if m > 1 and rng.random() < 0.5:
        for i in rng.sample(range(m), rng.randint(1, m - 1)):
            a, b = rng.sample(range(m), 2)
            if i not in (a, b):
                A[i] = [_entry(rng) * x + _entry(rng) * y for x, y in zip(A[a], A[b])]
    return A


def _sparse(rng, A):
    """Rows keyed by index; a zero row is either omitted or kept empty."""
    rows = {}
    for i, r in enumerate(A):
        row = {j: x for j, x in enumerate(r) if x}
        if row or rng.random() < 0.5:
            rows[i] = row
    return SparseMatrix(rows, len(A[0]))


def _to_fraction(x):
    p, q = x.as_numer_denom()
    return Fraction(int(p), int(q))


def _cases():
    for seed in range(5):
        for m, n in SHAPES:
            yield seed, m, n


@pytest.mark.parametrize("seed,m,n", list(_cases()))
def test_solve_and_kernel_match_sympy(seed, m, n):
    rng = random.Random(f"sparse-kernel/{seed}/{m}/{n}")
    A = _random_dense(rng, m, n)
    M = _sparse(rng, A)
    S = sympy.Matrix(m, n, [sympy.Rational(x.numerator, x.denominator)
                            for r in A for x in r])

    kernel = [[_to_fraction(x) for x in v] for v in S.nullspace()]
    assert M.kernel() == kernel

    # a right-hand side in the column span and a random one (often not)
    x0 = [_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
    spanned = [sum((a * x for a, x in zip(r, x0)), Fraction(0)) for r in A]
    random_rhs = [_entry(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(m)]
    for b in (spanned, random_rhs):
        Sb = sympy.Matrix(m, 1, [sympy.Rational(x.numerator, x.denominator) for x in b])
        got = M.solve({i: x for i, x in enumerate(b) if x})
        aug = S.row_join(Sb)
        if aug.rank() > S.rank():
            assert got is None
            continue
        R, pivots = aug.rref()
        want = [Fraction(0)] * n
        for i, col in enumerate(pivots):
            want[col] = _to_fraction(R[i, n])
        assert got == want


def test_rows_are_not_modified():
    # primitive_solve solves the same memoized matrix for several right-hand sides
    M = SparseMatrix({"a": {0: Fraction(2), 1: Fraction(1)}, "b": {1: Fraction(3)}}, 2)
    before = {k: dict(r) for k, r in M.rows.items()}
    assert M.solve({"a": Fraction(1)}) == [Fraction(1, 2), Fraction(0)]
    assert M.kernel() == []
    assert M.rows == before


def test_rhs_outside_the_row_labels_is_inconsistent():
    M = SparseMatrix({"a": {0: Fraction(1)}}, 1)
    assert M.solve({"z": Fraction(1)}) is None
    assert M.solve({"z": Fraction(0), "a": Fraction(5)}) == [Fraction(5)]
