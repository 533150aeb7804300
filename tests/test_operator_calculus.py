"""DiffOperator.apply, compose and adjoint against the per-t formulas they
replaced, and their cost counted in applications of d.

Each of the three methods reads its derivatives from one jet
(`algebra._jet`, the list p, d p, ..., d^n p) of a coefficient or of the
argument, so a del^j term costs j levels of `algebra._horner`, and
compose takes one jet per right-hand coefficient, up to the left operator's
order.  The formulas below are the ones before that change, kept here as the
reference: they call p.dx(t) afresh for every t, j^2/2 calls in all.
"""

from contextlib import contextmanager
from math import comb

import pytest

from conftest import rand_density
from jetbrackets import DiffOperator, SuperPolynomial as SP
from jetbrackets import algebra


def ref_apply(D, f):
    out = SP()
    for j, p in D.coeffs.items():
        out = out + p * f.dx(j)
    return out


def ref_compose(A, B):
    out: dict = {}
    for i, a in A.coeffs.items():
        for j, b in B.coeffs.items():
            for t in range(i + 1):
                c = a * b.dx(t) * comb(i, t)
                out[i + j - t] = out.get(i + j - t, SP()) + c
    return DiffOperator(out)


def ref_adjoint(D):
    out: dict = {}
    for j, p in D.coeffs.items():
        sign = -1 if j & 1 else 1
        for t in range(j + 1):
            c = p.dx(t) * (comb(j, t) * sign)
            out[j - t] = out.get(j - t, SP()) + c
    return DiffOperator(out)


@contextmanager
def counted():
    """Count the applications of d: the levels of `algebra._horner`, one
    per power of d it applies."""
    calls = [0]
    inner = algebra._horner

    def counting(pieces, top, y=None):
        calls[0] += top
        return inner(pieces, top, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_horner", counting)
        yield calls


def test_a_del_300_term_costs_300_derivatives():
    D = DiffOperator({300: SP.u(299)})
    with counted() as calls:
        adj = D.adjoint()
    assert calls[0] <= 300
    with counted() as calls:
        want = ref_adjoint(D)
    assert calls[0] == 45150  # sum of t over t = 0..300
    assert adj == want

    f = SP.u(0) * SP.u(1)
    with counted() as calls:
        got = D.apply(f)
    assert calls[0] <= 300
    assert got == ref_apply(D, f)

    B = DiffOperator({0: SP.u(0), 2: SP.u(3)})
    with counted() as calls:
        got = D.compose(B)
    assert calls[0] <= 2 * 300
    assert got == ref_compose(D, B)


def test_compose_takes_one_jet_per_right_hand_coefficient():
    # a left operator of orders {2, 5, 7}: one jet of length 7 per coefficient
    # of B, where a fresh run per pair of coefficients took 2 + 5 + 7 = 14
    A = DiffOperator({2: SP.u(1), 5: SP.u(0), 7: SP.u(2)})
    B = DiffOperator({0: SP.u(0), 1: SP.u(3), 4: SP.u(1) * SP.u(0)})
    with counted() as calls:
        got = A.compose(B)
    assert calls[0] == 7 * len(B.coeffs)
    assert got == ref_compose(A, B)


def _operator(rng, orders, laurent=0):
    return DiffOperator({j: rand_density(rng, 0, max_order=2, terms=1, laurent=laurent)
                         for j in range(orders)})


@pytest.mark.parametrize("laurent", [0, 2])
def test_random_operators_match_the_per_t_formulas(rng, laurent):
    for _ in range(20):
        A = _operator(rng, rng.randint(1, 4), laurent)
        B = _operator(rng, rng.randint(1, 3), laurent)
        f = rand_density(rng, 0, laurent=laurent)
        assert A.adjoint() == ref_adjoint(A)
        assert A.compose(B) == ref_compose(A, B)
        assert A.apply(f) == ref_apply(A, f)
        # sparse orders, out of insertion order
        C = DiffOperator({5: A.coeffs.get(0, SP.u(2)), 2: SP.u(3), 7: SP.u(0) * SP.u(0)})
        assert C.adjoint() == ref_adjoint(C)
        assert C.compose(A) == ref_compose(C, A)
        assert C.apply(f) == ref_apply(C, f)
