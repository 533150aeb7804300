"""Slice systems in integers: each row given as d times its rational row.

``slice_matrix`` gives the rows of bracket k as integer rows, dens[k] times
the rational rows, with dens[k] the lcm of the bracket's image and column
denominators, and returns dens; the solve of ``deform._solve_in_slices``
multiplies the block-k entries of its right-hand side by dens[k].  Integer
rows so given, with each right-hand side entry multiplied by its row's d,
must give the same primitive rows, the same kernel and the same solutions
(None on the same inconsistent right-hand sides) as the Fraction rows.  On
the slice systems of the engine no Fraction reaches the row scaling or the
elimination.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, strategies as st

from jetbrackets import (
    GradedSlice,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    enumerate_basis,
    primitive_solve,
    schouten_bracket,
    symmetry_space,
)
from jetbrackets import deform

PENCIL = dkdv_pencil()


def _over_denominators(rows, ncols, extra):
    """(matrix, d): the rational rows given as integer rows, row label times
    d[label], the lcm of its denominators times extra[label] (so not always
    the least)."""
    ints, dens = {}, {}
    for key, row in rows.items():
        d = lcm(*(x.denominator for x in row.values())) * extra[key]
        ints[key] = {c: int(x * d) for c, x in row.items()}
        dens[key] = d
    return deform.SparseMatrix(ints, ncols), dens


def _times(rhs, dens):
    """The right-hand side with each entry multiplied by its row's d."""
    return {key: b * dens[key] for key, b in rhs.items()}


@st.composite
def _systems(draw):
    """(rows, ncols, extra factors, right-hand sides): sparse small rational
    rows, some empty or with explicit zeros, some scaled copies of others;
    one right-hand side in the column span and one perturbed off it."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 9))
    entry = st.fractions(min_value=-7, max_value=7, max_denominator=6)
    rows = {}
    for i in range(m):
        if rows and draw(st.integers(0, 4)) == 0:
            src = rows[draw(st.sampled_from(sorted(rows)))]
            scale = draw(entry.filter(bool))
            rows[i] = {c: x * scale for c, x in src.items()}
        else:
            cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
            rows[i] = {c: draw(entry) for c in cols}
    extra = {key: draw(st.sampled_from([1, 1, 2, 3, 12])) for key in rows}
    x0 = [draw(entry) for _ in range(n)]
    spanned = {key: sum((x * x0[c] for c, x in row.items()), Fraction(0))
               for key, row in rows.items()}
    perturbed = dict(spanned)
    perturbed[draw(st.sampled_from(sorted(rows)))] += draw(entry.filter(bool))
    rhs_list = [{k: v for k, v in b.items() if v} for b in (spanned, perturbed)]
    return rows, n, extra, rhs_list


@given(_systems())
def test_integer_rows_over_denominators_mean_the_fraction_rows(system):
    rows, n, extra, rhs_list = system
    by_fractions = deform.SparseMatrix(rows, n)
    by_integers, dens = _over_denominators(rows, n, extra)
    assert list(by_integers.rows) == list(by_fractions.rows)
    assert by_integers.rows == by_fractions.rows
    assert by_integers.kernel() == by_fractions.kernel()
    for rhs in rhs_list:
        assert by_integers.solve(_times(rhs, dens)) == by_fractions.solve(rhs)


def test_an_inconsistent_right_hand_side_is_found_over_denominators():
    # x = 1/2 from the first row; the second row, 4/3 x as 4 x over 3, asks 2/3
    rows = {"a": {0: Fraction(2)}, "b": {0: Fraction(4, 3)}}
    M, dens = _over_denominators(rows, 1, {"a": 1, "b": 1})
    assert dens == {"a": 1, "b": 3}
    assert M.solve(_times({"a": Fraction(1), "b": Fraction(2, 3)}, dens)) == [Fraction(1, 2)]
    assert M.solve(_times({"a": Fraction(1), "b": Fraction(2)}, dens)) is None


def _integers_only(monkeypatch):
    """Patch the row scaling and the elimination step to refuse any entry
    that is not an int, and record the rows of every matrix built."""
    given_rows = []
    primitive, eliminate = deform._primitive, deform._eliminate

    def ints(row):
        assert all(type(x) is int for x in row.values()), row
        return row

    class Recording(deform.SparseMatrix):
        def __init__(self, rows, ncols):
            given_rows.extend(rows.values())
            super().__init__(rows, ncols)

    monkeypatch.setattr(deform, "_primitive", lambda row: primitive(ints(row)))
    monkeypatch.setattr(deform, "_eliminate",
                        lambda row, prow, col: eliminate(ints(row), ints(prow), col))
    monkeypatch.setattr(deform, "SparseMatrix", Recording)
    return given_rows


def test_no_fraction_reaches_the_elimination(monkeypatch):
    monkeypatch.setattr(deform, "_IMAGES", {})
    given_rows = _integers_only(monkeypatch)
    assert symmetry_space(7, 5) == []
    assert {D for _, D in deform._IMAGES.values()} == {1, 2, 4}
    assert given_rows and all(type(x) is int for row in given_rows for x in row.values())

    # a Laurent class of theta-degree 2 with rational coefficients, solved
    # against Q, whose images carry denominators
    del given_rows[:]
    monkeypatch.setattr(deform, "_IMAGES", {})
    sl = GradedSlice(max_order=3, max_udeg=2, laurent_depth=2)
    basis = enumerate_basis(sl, 1, 2)
    assert any(min(b.coefficient_layers(1)) < 0 for b in basis)
    y0 = canonical_class(basis[1] * Fraction(3, 2) - basis[-1] * Fraction(5, 7)
                         + SP.u(1, power=-2) * SP.u(2) ** 2 * SP.theta(0) * Fraction(1, 3))
    c = schouten_bracket(PENCIL.Q, y0)
    assert not c.is_zero()
    y = primitive_solve(c, PENCIL.Q, sl, max_grows=0)
    assert schouten_bracket(PENCIL.Q, y) == c
    assert given_rows and all(type(x) is int for row in given_rows for x in row.values())
    assert any(D > 1 for _, D in deform._IMAGES.values())
