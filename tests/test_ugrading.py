"""The u-count grading and the slice solve against the whole slice.

The u-count of a monomial is the sum of its even exponents (u_1^-1 counts -1,
theta factors 0).  d, N and the variational derivatives keep it and the
Schouten bracket lowers it by one, so d_P (P = theta theta_1) lowers it by one
and d_Q keeps it: every slice system is block-diagonal by u-count.  Every
solve here must give what the reference whole-slice solve of the test gives.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import full_slice_solve, rand_coeff
from jetbrackets import (
    GradedSlice,
    MultiVector,
    NoSolution,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    enumerate_basis,
    hydrodynamic_bivector,
    primitive_solve,
    quasi_trivialize,
    quasi_trivialize_from_generator,
    schouten_bracket,
)
from jetbrackets import deform, dkdv

PENCIL = dkdv_pencil()
P, Q = PENCIL.P, PENCIL.Q


def ucount(mono):
    return sum(e for _, e in mono[0])


def ucounts(p):
    return {ucount(m) for m in p.terms}


def the_monomial(b):
    ((mono, c),) = b.terms.items()
    assert c == 1
    return mono


slices = st.builds(GradedSlice, max_order=st.integers(0, 4), max_udeg=st.integers(0, 3),
                   laurent_depth=st.integers(0, 2))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@given(slices, st.integers(0, 2), st.integers(-1, 6))
def test_enumerated_monomials_are_canonical(slice_, theta_degree, degree):
    # built through the private constructor: each must equal, and hash like,
    # the monomial the public constructor normalizes from the same terms
    for b in enumerate_basis(slice_, theta_degree, degree):
        again = SP(b.terms)
        assert b == again and hash(b) == hash(again)
        assert len(b.terms) == 1


# ---------------------------------------------------------------------------
# The grading
# ---------------------------------------------------------------------------

@given(slices, st.integers(0, 2), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_d_P_lowers_and_d_Q_keeps_the_ucount(slice_, theta_degree, degree, pick):
    basis = enumerate_basis(slice_, theta_degree, degree)
    if not basis:
        return
    b = basis[pick % len(basis)]
    u = ucount(the_monomial(b))
    cls = canonical_class(b)
    assert ucounts(cls.rep) <= {u}
    assert ucounts(schouten_bracket(P, cls).rep) <= {u - 1}
    assert ucounts(schouten_bracket(Q, cls).rep) <= {u}


def test_bracket_ucounts():
    assert ucounts(P.rep) == {0} and ucounts(Q.rep) == {1}
    H, _ = hydrodynamic_bivector(SP.u(0) + SP.u(0) ** 2)
    assert ucounts(H.rep) == {1, 2}


# ---------------------------------------------------------------------------
# Solves against the reference whole-slice solve
# ---------------------------------------------------------------------------

def _ladder_cocycles():
    """Tail cocycles d_Q d_P class(w) of the qt-ladder shape: w a combination
    of two monomials of the (2, 2) slice in degree ell."""
    shape, value = random.Random("qt-ladder/shape"), random.Random("ugrading/values")
    out = {}
    for ell in range(3, 9):
        basis = enumerate_basis(GradedSlice(max_order=2, max_udeg=2), 0, ell)
        while True:
            w = SP.zero()
            for b in shape.sample(basis, min(2, len(basis))):
                w = w + b * rand_coeff(value)
            c1 = PENCIL.d_Q(PENCIL.d_P(canonical_class(w)))
            if not c1.is_zero():
                break
        out[ell] = c1
    return out


LADDER = _ladder_cocycles()


@pytest.mark.parametrize("ell", sorted(LADDER))
def test_quasi_trivialize_matches_the_whole_slice(ell):
    c1 = LADDER[ell]
    ell0 = dkdv._tail_degree(c1, None)
    # the slice and the two d_P solves of quasi_trivialize, on the whole slice
    sl = GradedSlice(max_order=max(ell0, 2), max_udeg=8)
    Y, _ = full_slice_solve([P], [c1], sl, 2)
    X, _ = full_slice_solve([P], [PENCIL.d_Q(Y)], sl, 2)
    want = dkdv._trivialize_pair(X._delta_theta(), Y._delta_theta(), ell0, c1)
    assert primitive_solve(c1, P, sl) == Y
    assert quasi_trivialize(c1).chars == want.chars


def _degree_zero_slice(c1):
    rep = c1.rep
    return GradedSlice(max_order=max(2, rep.order()), max_udeg=max(2, rep.max_u_power()),
                       laurent_depth=2)


def test_laurent_degree_zero_witness():
    # g = d(u_1^-1): its class is trivial through the joint [P, Q] system
    w, c1 = quasi_trivialize_from_generator(SP.u(1, power=-1).total_derivative())
    assert c1.homogeneity() == 1
    y, _ = full_slice_solve([P, Q], [MultiVector(SP(), 2), c1], _degree_zero_slice(c1), 1)
    assert y is not None
    assert w.chars[0] == y._delta_theta()
    assert quasi_trivialize(c1).chars == w.chars


def test_laurent_degree_zero_undecided():
    # g = 1/2 u^2 + d(u_1^-1): no witness on either slice, so NoSolution
    g = SP.u(0, power=2) * Fraction(1, 2) + SP.u(1, power=-1).total_derivative()
    c1 = PENCIL.d_P(canonical_class(g * SP.theta(0)))
    y, shapes = full_slice_solve([P, Q], [MultiVector(SP(), 2), c1], _degree_zero_slice(c1), 1)
    assert y is None and len(shapes) == 2
    with pytest.raises(NoSolution, match=r"laurent_depth=6\): "):
        quasi_trivialize_from_generator(g)


def test_no_solution_names_the_slice():
    # u^3 theta theta_1 = d_P(int u^4/4 theta dx): u^4 is beyond udeg 1
    th = SP.theta(0)
    c = canonical_class(SP.u(0) ** 3 * th * SP.theta(1))
    with pytest.raises(NoSolution, match=r"^no solution in slices up to GradedSlice\("
                                         r"max_order=2, max_udeg=1, laurent_depth=0\): "):
        primitive_solve(c, P, GradedSlice(2, 1), max_grows=0)


def test_mixed_bracket_searches_the_whole_slice(monkeypatch):
    # H = (u + u^2) d + ...: its terms have u-counts 1 and 2, so d_H mixes
    # u-count blocks; the solve builds the whole-slice system all the same
    H, _ = hydrodynamic_bivector(SP.u(0) + SP.u(0) ** 2)
    sl = GradedSlice(max_order=3, max_udeg=3)
    y0 = canonical_class((SP.u(0) ** 2 * SP.u(2) * Fraction(3, 2) - SP.u(1) ** 2) * SP.theta(0))
    c = schouten_bracket(H, y0)
    assert not c.is_zero() and schouten_bracket(H, c).is_zero()

    ncols = []

    class Recording(deform.SparseMatrix):
        def __init__(self, rows, n):
            ncols.append(n)
            super().__init__(rows, n)

    want, shapes = full_slice_solve([H], [c], sl)
    assert want is not None
    with monkeypatch.context() as m:
        m.setattr(deform, "SparseMatrix", Recording)
        got = primitive_solve(c, H, sl, max_grows=0)
    assert got == want
    # the whole slice, every column
    full = enumerate_basis(sl, 1, c.homogeneity() - 1)
    assert [shapes[0][1]] == [len(full)]
    assert ncols == [len(full)]
    with pytest.raises(NoSolution, match=r"max_udeg=1, laurent_depth=0\): "):
        primitive_solve(c, H, GradedSlice(3, 1), max_grows=0)
