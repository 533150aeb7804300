"""The sparse reduced-row-echelon kernel against sympy as an independent oracle.

Seeded random sparse rational systems of every shape the slice solver meets:
tall, wide, rank-deficient, inconsistent, with all-zero rows and columns.
``solve`` must return sympy's pivot-column solution (free variables at 0), or
None exactly when the augmented rank exceeds the rank; ``kernel`` must equal
``Matrix.nullspace()`` vector for vector, both using the free-column-at-1
convention.  The elimination takes one row at a time and stops once every
column has a pivot, so tall systems, full-rank and rank-deficient, are also
drawn by hypothesis, and ``solve`` must reject an inconsistent row that the
elimination never took.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

sympy = pytest.importorskip("sympy")

from jetbrackets import deform  # noqa: E402
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


def _sympy_answers(A, b):
    """sympy's kernel of A and pivot-column solution of A x = b (or None)."""
    m, n = len(A), len(A[0])
    S = sympy.Matrix(m, n, [sympy.Rational(x.numerator, x.denominator) for r in A for x in r])
    kernel = [[_to_fraction(x) for x in v] for v in S.nullspace()]
    aug = S.row_join(sympy.Matrix(m, 1, [sympy.Rational(x.numerator, x.denominator)
                                         for x in b]))
    R, pivots = aug.rref()
    if n in pivots:
        return kernel, None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = _to_fraction(R[i, n])
    return kernel, sol


@st.composite
def _tall_systems(draw):
    """(A, full, rhs list): m x n with m 2 to 8 times n, sparse small
    rationals.  A full system has n triangular rows with a nonzero diagonal
    among shuffled random ones; otherwise one column is a combination of the
    others (or zero), so the rank is below n."""
    n = draw(st.integers(1, 6))
    m = n * draw(st.integers(2, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=5))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    full = draw(st.booleans())
    if full:
        for i in range(n):
            A[i][i] = draw(st.sampled_from([Fraction(-3), Fraction(1, 2), Fraction(1),
                                            Fraction(5, 3)]))
            for j in range(i):
                A[i][j] = Fraction(0)
        A = [A[i] for i in draw(st.permutations(range(m)))]
    else:
        j0 = draw(st.integers(0, n - 1))
        weights = [draw(entry) for _ in range(n)]
        for r in A:
            r[j0] = sum((w * x for j, (w, x) in enumerate(zip(weights, r)) if j != j0),
                        Fraction(0))
    x0 = [draw(entry) for _ in range(n)]
    spanned = [sum((a * x for a, x in zip(r, x0)), Fraction(0)) for r in A]
    perturbed = list(spanned)
    perturbed[draw(st.integers(0, m - 1))] += 1
    return A, full, [spanned, perturbed]


@given(_tall_systems())
def test_tall_systems_match_sympy_rref(system):
    A, full, rhs_list = system
    M = SparseMatrix({i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(A)},
                     len(A[0]))
    for b in rhs_list:
        kernel, sol = _sympy_answers(A, b)
        assert M.kernel() == kernel
        assert (kernel == []) if full else kernel
        assert M.solve({i: x for i, x in enumerate(b) if x}) == sol


def _counting_echelon(monkeypatch):
    """Record (rows given in order, rows taken) of every elimination."""
    runs = []
    echelon = deform._echelon

    def counting(order, take, ncols):
        pivots, taken = echelon(order, take, ncols)
        runs.append((len(order), taken))
        return pivots, taken

    monkeypatch.setattr(deform, "_echelon", counting)
    return runs


def test_full_rank_symmetry_system_stops_early(monkeypatch):
    """The ell = 7, cap 5 system of symmetry_space, [d_P; d_Q] on 90
    characteristics, has full column rank: the elimination stops once it
    has 90 pivots, long before its last row."""
    from jetbrackets import symmetry_space
    shapes = []

    class Recording(SparseMatrix):
        def __init__(self, rows, ncols):
            shapes.append((len(rows), ncols))
            super().__init__(rows, ncols)

    runs = _counting_echelon(monkeypatch)
    monkeypatch.setattr(deform, "SparseMatrix", Recording)
    assert symmetry_space(7, 5) == []
    assert shapes == [(564, 90)]
    ((given_rows, taken),) = runs
    assert given_rows == 564 and taken < 564


def test_inconsistent_row_that_is_never_taken(monkeypatch):
    # rows a and b give full rank; c is skipped and contradicts them
    M = SparseMatrix({"a": {0: Fraction(1)}, "b": {1: Fraction(2)},
                      "c": {0: Fraction(1), 1: Fraction(1, 3)}}, 2)
    runs = _counting_echelon(monkeypatch)
    assert M.solve({"a": Fraction(1), "b": Fraction(4), "c": Fraction(5)}) is None
    assert M.solve({"a": Fraction(1), "b": Fraction(4), "c": Fraction(5, 3)}) == \
        [Fraction(1), Fraction(2)]
    assert M.solve({"a": Fraction(1), "b": Fraction(4)}) is None
    assert runs == [(3, 2)] * 3


def test_rows_are_not_modified():
    # solve and kernel may be called on one matrix any number of times
    M = SparseMatrix({"a": {0: Fraction(2), 1: Fraction(1)}, "b": {1: Fraction(3)}}, 2)
    before = {k: dict(r) for k, r in M.rows.items()}
    assert M.solve({"a": Fraction(1)}) == [Fraction(1, 2), Fraction(0)]
    assert M.kernel() == []
    assert M.rows == before


def test_rhs_outside_the_row_labels_is_inconsistent():
    M = SparseMatrix({"a": {0: Fraction(1)}}, 1)
    assert M.solve({"z": Fraction(1)}) is None
    assert M.solve({"z": Fraction(0), "a": Fraction(5)}) == [Fraction(5)]


# ---------------------------------------------------------------------------
# The fraction-free kernel against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

def _ref_rref(rows, ncols):
    """Frozen copy of the Fraction RREF the integer kernel replaced."""
    where: dict = {}
    for i, row in enumerate(rows):
        for col in row:
            where.setdefault(col, set()).add(i)
    pivots = {}
    used = set()
    for col in range(ncols):
        hits = where.get(col)
        if not hits:
            continue
        cands = [i for i in hits if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        inv = Fraction(1) / prow[col]
        if inv != 1:
            for c in prow:
                prow[c] *= inv
        for i in list(hits):
            if i == p:
                continue
            row = rows[i]
            f = row[col]
            for c, x in prow.items():
                y = row.get(c)
                if y is None:
                    row[c] = -f * x
                    where.setdefault(c, set()).add(i)
                else:
                    y -= f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(i)
        pivots[col] = p
        used.add(p)
    return pivots


def _int_rref(rows, ncols):
    """Frozen copy of the column-driven integer Gauss-Jordan elimination that
    the row-incremental kernel replaced: pivots in column order, the pivot
    row of a column the shortest candidate, every row cross-multiplied and
    divided by its content.  Returns {pivot column: row index}."""
    where: dict = {}
    for i, row in enumerate(rows):
        for col in row:
            where.setdefault(col, set()).add(i)
    pivots = {}
    used = set()
    for col in range(ncols):
        hits = where.get(col)
        if not hits:
            continue
        cands = [i for i in hits if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        a = prow[col]
        for i in list(hits):
            if i == p:
                continue
            row = rows[i]
            f = row[col]
            g = gcd(a, f)
            if a < 0:
                g = -g
            s, t = a // g, f // g
            if s != 1:
                for c in row:
                    row[c] *= s
            for c, x in prow.items():
                y = row.get(c)
                if y is None:
                    row[c] = -t * x
                    where.setdefault(c, set()).add(i)
                else:
                    y -= t * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(i)
            h = gcd(*row.values())
            if h > 1:
                for c in row:
                    row[c] //= h
        pivots[col] = p
        used.add(p)
    return pivots


def _kernel_rref(rows, n):
    """The kernel's reduced pivot rows {pivot column: primitive integer row}
    of the rational rows, or None when a row reduces to entries at column n
    and beyond alone."""
    given = list(rows.values())
    pivots, _ = deform._echelon(deform._row_order(given),
                                lambda i: deform._primitive(given[i])[0], n)
    if pivots is not None:
        deform._back_substitute(pivots)
    return pivots


def _normalized(row, col):
    return {c: Fraction(x) / row[col] for c, x in row.items()}


def _ref_solve(rows, n, rhs):
    if any(v and key not in rows for key, v in rhs.items()):
        return None
    work = []
    for key, row in rows.items():
        row = dict(row)
        if rhs.get(key):
            row[n] = rhs[key]
        work.append(row)
    pivots = _ref_rref(work, n)
    if any(work[i] for i in range(len(work)) if i not in set(pivots.values())):
        return None
    sol = [Fraction(0)] * n
    for col, i in pivots.items():
        sol[col] = work[i].get(n, Fraction(0))
    return sol


def _ref_kernel(rows, n):
    work = [dict(row) for row in rows.values()]
    pivots = _ref_rref(work, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for col, i in pivots.items():
            if work[i].get(fc):
                v[col] = -work[i][fc]
        basis.append(v)
    return basis


def _rational_system(rng, m, n, big):
    """Seeded sparse rational rows with zero rows, duplicate (and scaled
    duplicate) rows and mixed denominators; ``big`` draws numerators and
    denominators above 2^64."""
    def entry():
        if big:
            num = rng.randint(2 ** 64, 2 ** 80) * rng.choice([-1, 1])
            return Fraction(num, rng.choice([1, 3, 2 ** 65 + 13, 7 ** 30]))
        return Fraction(rng.choice([-9, -4, -2, -1, 1, 2, 5, 12]),
                        rng.choice([1, 1, 2, 3, 4, 6, 10, 35]))
    rows = {}
    for i in range(m):
        r = rng.random()
        if r < 0.1:
            rows[i] = {}
        elif r < 0.3 and rows:
            src = rows[rng.choice(list(rows))]
            scale = entry()
            rows[i] = {c: x * scale for c, x in src.items()}
        else:
            rows[i] = {j: entry() for j in range(n) if rng.random() < 0.4}
    return rows


def _rhs(rng, rows, n, consistent):
    """A right-hand side in the row labels: M x0 for a random x0, or that
    plus a perturbation on one label (usually inconsistent)."""
    x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
    rhs = {key: sum((x * x0[c] for c, x in row.items()), Fraction(0))
           for key, row in rows.items()}
    if not consistent and rows:
        key = rng.choice(list(rows))
        rhs[key] += Fraction(rng.randint(1, 7), rng.randint(1, 4))
    return {k: v for k, v in rhs.items() if v}


def _assert_matches_reference(rows, n, rhs_list):
    """Pivot columns and normalized pivot rows (the reduced row echelon
    form), solutions and kernels of the kernel equal those of the frozen
    Fraction and integer eliminations; every pivot row is primitive;
    results are Fractions."""
    M = deform.SparseMatrix(rows, n)

    ref_rows = [dict(r) for r in rows.values()]
    ref_pivots = _ref_rref(ref_rows, n)
    ref = {col: _normalized(ref_rows[i], col) for col, i in ref_pivots.items()}
    int_rows = [dict(r) for r in M.rows.values()]
    int_pivots = _int_rref(int_rows, n)
    assert {col: _normalized(int_rows[i], col) for col, i in int_pivots.items()} == ref
    pivots = _kernel_rref(rows, n)
    assert sorted(pivots) == list(ref_pivots)
    assert {col: _normalized(row, col) for col, row in pivots.items()} == ref
    for row in pivots.values():
        assert all(type(x) is int for x in row.values())
        assert gcd(*row.values()) == 1

    kernel = M.kernel()
    assert kernel == _ref_kernel(rows, n)
    assert all(type(x) is Fraction for v in kernel for x in v)
    for rhs in rhs_list:
        got = M.solve(rhs)
        assert got == _ref_solve(rows, n, rhs)
        if got is not None:
            assert all(type(x) is Fraction for x in got)
        # the augmented system, eliminated as solve does, stays primitive
        aug = {key: dict(row) for key, row in rows.items()}
        for key, b in rhs.items():
            aug[key][n] = b
        aug_pivots = _kernel_rref(aug, n)
        # a row left with the right-hand side alone makes the system inconsistent
        assert aug_pivots is not None or got is None
        for row in (aug_pivots or {}).values():
            assert gcd(*row.values()) == 1


def _reference_cases():
    for seed in range(6):
        for m, n in ((1, 1), (4, 3), (7, 7), (10, 6), (6, 11)):
            for big in (False, True):
                yield seed, m, n, big


@pytest.mark.parametrize("seed,m,n,big", list(_reference_cases()))
def test_integer_kernel_matches_fraction_reference(seed, m, n, big):
    rng = random.Random(f"fraction-free/{seed}/{m}/{n}/{big}")
    rows = _rational_system(rng, m, n, big)
    rhs_list = [_rhs(rng, rows, n, True), _rhs(rng, rows, n, False), {}]
    _assert_matches_reference(rows, n, rhs_list)


def test_rows_become_primitive_integer_rows():
    M = deform.SparseMatrix({"a": {0: Fraction(2, 3), 2: Fraction(-4, 9)},
                             "b": {1: Fraction(6)}, "z": {}}, 3)
    assert M.rows == {"a": {0: 3, 2: -2}, "b": {1: 1}, "z": {}}
    assert M.solve({"a": Fraction(1, 3), "b": Fraction(3)}) == \
        [Fraction(1, 2), Fraction(1, 2), Fraction(0)]
    assert M.solve({"z": Fraction(1)}) is None


def test_explicit_zero_entries_are_dropped():
    # a stored zero would be taken as a pivot of its column
    M = deform.SparseMatrix({"a": {0: Fraction(0), 1: Fraction(1)},
                             "b": {0: Fraction(2), 1: Fraction(1)}}, 2)
    assert M.rows == {"a": {1: 1}, "b": {0: 2, 1: 1}}
    assert M.solve({"a": Fraction(1), "b": Fraction(3)}) == [Fraction(1), Fraction(1)]
    assert M.kernel() == []


def test_captured_tail_cocycle_slice_systems(monkeypatch):
    """The d_P slice systems of an ell = 6 tail cocycle, as slice_matrix
    builds them for primitive_solve's Y and X solves on the slice
    GradedSlice(6, 8), with their right-hand sides.  Y and X have the same
    theta-degree and degree, so both solves build one 392 x 387 system on
    the whole slice; on GradedSlice(7, 8), one 392 x 405 system, the solver
    gives the classes of the reference whole-slice solve."""
    from conftest import full_slice_solve
    from jetbrackets import (GradedSlice, canonical_class, dkdv_pencil,
                             enumerate_basis, primitive_solve)

    captured = []

    class Recording(deform.SparseMatrix):
        def __init__(self, rows, ncols):
            captured.append(({k: dict(r) for k, r in rows.items()}, ncols, []))
            super().__init__(rows, ncols)

        def solve(self, rhs):
            captured[-1][2].append(dict(rhs))
            return super().solve(rhs)

    pencil = dkdv_pencil()
    basis = enumerate_basis(GradedSlice(max_order=2, max_udeg=2), 0, 6)
    w = basis[3] * Fraction(-7, 4) + basis[11] * Fraction(5, 3)
    c1 = pencil.d_Q(pencil.d_P(canonical_class(w)))
    assert c1.theta_degree == 2 and not c1.is_zero()
    with monkeypatch.context() as m:
        m.setattr(deform, "SparseMatrix", Recording)
        Y6 = primitive_solve(c1, pencil.P, GradedSlice(6, 8))
        primitive_solve(pencil.d_Q(Y6), pencil.P, GradedSlice(6, 8))
    assert len(captured) == 2
    (rows_y, n_y, rhs_y), (rows_x, n_x, rhs_x) = captured
    assert len(rhs_y) == len(rhs_x) == 1
    assert (len(rows_y), n_y) == (392, 387)
    assert rows_x == rows_y and n_x == n_y
    _assert_matches_reference(rows_y, n_y, rhs_y + rhs_x)

    sl = GradedSlice(max_order=7, max_udeg=8)
    Y = primitive_solve(c1, pencil.P, sl, max_grows=0)
    Y_full, shapes = full_slice_solve([pencil.P], [c1], sl)
    assert shapes == [(392, 405)] and Y == Y_full
    rhs = pencil.d_Q(Y)
    X = primitive_solve(rhs, pencil.P, sl, max_grows=0)
    X_full, shapes = full_slice_solve([pencil.P], [rhs], sl)
    assert shapes == [(392, 405)] and X == X_full
