"""The canonical representative first, the theta_0 part of delta_theta on
demand.

A class of theta-degree k >= 1 is named by rep = theta delta_theta a / k, and
theta kills every theta_0 term of delta_theta a.  At the last Horner level
such a term comes from a level-1 term theta_0 x only, whose derivative
theta_1 x + theta_0 d(x) has one term without theta_0.  So `canonical_class`
builds rep from theta_1 x alone and keeps x in the class; delta_theta is
k (rep less its theta_0) + theta_0 d(x), formed when a bracket reads it.

The reference is the Horner loop `_variational` ran before the split, kept
here: the filing, then one step of d per level, the zeros dropped after
each.  rep must equal theta ref / k as a list of items sorted by key (a
theta pass on groups inserts its keys in another order), on polynomial
and Laurent densities of theta-degree 1 to 4, with the derivative tables
cold and warm; the
delta_theta read later must equal ref.  The sum of two classes adds their
representatives, since N / k is a linear projection; it must be the class of
the summed densities at every theta-degree, and a sum that cancels the zero
class of theta-degree 0.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetbrackets import MultiVector, SuperPolynomial as SP, canonical_class, parse_density
from jetbrackets import algebra
from jetbrackets.algebra import _THETA, _WIDE, _derive_key, _file, _make, _masks, _theta_moves

from conftest import densities


def ref_step(out, terms):
    """out + d(terms), the derivative step before the fused kernel, without
    its table: for each term E theta^t, d(E) theta^t first, then E d(theta^t)."""
    get = out.get
    for m, c in terms.items():
        t = m & (_THETA if m < _WIDE else _masks(m)[0])
        for step, mult in _derive_key(m - t):
            out[m + step] = get(m + step, 0) + c * mult
        for step in _theta_moves(t) if t else ():
            out[m + step] = get(m + step, 0) + c
    return {m: c for m, c in out.items() if c} if 0 in out.values() else out


def ref_variational(a):
    """delta_theta a as p_0 + d(p_1 + d(...)) on the pieces of one filing."""
    pieces = _file(a._nums, True, 0)
    acc: dict = {}
    if pieces:
        top = max(pieces)
        acc = pieces[top]
        for j in range(top - 1, -1, -1):
            acc = ref_step(pieces.get(j, {}), acc)
    return _make(acc, a._D)


def items(p):
    return sorted(algebra._numerators(p)[0].items()), p._D


@contextmanager
def cold_tables():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_DERIV_CACHE", {})
        mp.setattr(algebra, "_FILE_CACHE", {})
        mp.setattr(algebra, "_ITEMS", {})
        yield


def check_class(a):
    k = a.theta_degree()
    ref = ref_variational(a)
    with cold_tables():
        for _ in range(2):  # cold, then warm
            c = canonical_class(a)
            assert c.theta_degree == k
            assert items(c.rep) == items(SP.theta(0) * ref / k)
            # delta_theta waits exactly when a theta_0 part does
            assert (c._dtheta is None) == bool(c._y)
            assert c._delta_theta() == ref
    return c


# ---------------------------------------------------------------------------
# The deferred delta_theta against the reference
# ---------------------------------------------------------------------------

@given(densities(1, 4, laurent=False).filter(bool))
def test_polynomial_classes_match_the_reference(a):
    check_class(a)


@given(densities(1, 4, laurent=True).filter(bool))
def test_laurent_classes_match_the_reference(a):
    check_class(a)


@pytest.mark.parametrize("text, waits", [
    # a level-1 term theta_0 theta_1 x, whose theta_1 x is 0
    ("u*theta*theta_1*theta_2", True),
    # no level-1 term has theta_0, so nothing waits
    ("u_1^2*theta_1*theta_2", False),
    ("u*theta*theta_2 + u_3*theta_1*theta_3", True),
    ("u_1^-1*u_2*theta*theta_1*theta_3", True),
    ("u*u_1*theta*theta_1*theta_2*theta_4", True),
])
def test_seeded_classes_match_the_reference(text, waits):
    c = check_class(parse_density(text, hat="u_1^-" in text))
    assert bool(c._y) == waits


def test_an_exact_density_gives_the_zero_class_and_delta_theta():
    # theta_0 u_2 + theta_1 u_1 = d(theta_0 u_1) and d(u theta_0 theta_2):
    # rep and delta_theta vanish
    a, b = SP.theta(0) * SP.u(2), SP.theta(1) * SP.u(1)
    for p in (a + b, (SP.u(0) * SP.theta(0) * SP.theta(2)).total_derivative()):
        assert check_class(p).is_zero()
    for p in (a, b, a - b):
        check_class(p)


# ---------------------------------------------------------------------------
# Sums add representatives
# ---------------------------------------------------------------------------

SCALARS = st.sampled_from([1, -1, 2, Fraction(-3, 2), Fraction(5, 7)])


@given(st.integers(0, 3), st.booleans(), st.data())
def test_a_sum_of_classes_is_the_class_of_the_summed_densities(k, laurent, data):
    a = data.draw(densities(k, k, laurent=laurent))
    b = data.draw(densities(k, k, laurent=laurent))
    c = data.draw(SCALARS)
    A, B = canonical_class(a), canonical_class(b)
    s, want = A + B.scale(c), canonical_class(a + b * c)
    assert s == want
    assert s.rep == want.rep
    if k and not s.is_zero():
        assert s._delta_theta() == want._delta_theta()


@given(st.integers(1, 3), st.booleans(), st.data())
def test_a_sum_that_cancels_is_the_zero_class_of_theta_degree_0(k, laurent, data):
    a = data.draw(densities(k, k, laurent=laurent).filter(bool))
    c = data.draw(SCALARS)
    A = canonical_class(a)
    # a density plus a total derivative is the same class
    B = canonical_class(a + (SP.u(0) * a).total_derivative())
    for z in (A - B, A.scale(c) - B.scale(c), A + B.scale(-1)):
        assert z.is_zero()
        if not A.is_zero():
            assert z.theta_degree == 0
        assert z == canonical_class(SP()) == MultiVector(SP(), k)
        assert z._delta_theta() == 0
