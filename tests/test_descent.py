"""Formal integration by top-order descent, and the e/S/E systems of a pair
from one filing sweep, against the formulas they replaced.

For theta-degree k >= 1 the kernel of d is 0, so an exact density has one
antiderivative: the descent (`algebra._integrate`) must return exactly the g
of the higher-Euler homotopy (1/k) sum_j d^j (theta delta_{j+1,theta} a)
(Olver, Applications of Lie Groups to Differential Equations, ch. 5), which
`integrate_x` used before and which is kept here as the reference.  A
density that is not exact raises NotExact with its canonical residue
(1/k) N(a).  For theta-degree 0 the same descent returns g and the
canonical residue r with a = d(g) + r; both must equal those of the
theta-free descent over `.terms` views that it replaced, kept here as
`_decompose_even`, and so must the AlgebraError of a power past the exponent
range.  The e/S/E systems are compared with their defining sums, also
kept here: every partial derivative and every power of d recomputed per
term.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import densities
from jetbrackets import (
    AlgebraError,
    NotExact,
    SuperPolynomial as SP,
    build_eSE,
    canonical_class,
    decompose_total_derivative,
    higher_variational_theta,
    integrate_x,
    verify_SE_equivalence,
)
from jetbrackets.algebra import _E_MAX, _U1_MAX, _U1_MIN, _integrate
from jetbrackets.variational import _antidiff_u


# ---------------------------------------------------------------------------
# References: the replaced formulas
# ---------------------------------------------------------------------------

def _witness_from_N(a, k):
    """For theta-degree k >= 1 with N(a) = 0, an explicit g with d(g) = a,
    namely (1/k) sum_j d^j (theta delta_{j+1,theta} a)."""
    theta = SP.theta()
    layers = [theta * higher_variational_theta(a, level=j + 1) for j in range(a.order())]
    # sum_j d^j layer_j = layer_0 + d(layer_1 + d(layer_2 + ...))
    acc = None
    for layer in reversed(layers):
        acc = layer if acc is None else layer + acc.total_derivative()
    return (acc if acc is not None else SP()) / k


def _decompose_even(a):
    """Descent for theta-free densities: a = d(g) + residue with a canonical
    residue.  Linear in a, and exact inputs reduce to residue 0."""
    g = SP()
    residue = SP()
    work = a
    while work:
        n = work.order()
        if n == 0:
            residue = residue + work
            break
        if n == 1:
            # exact order-1 densities are exactly the d(G(u)) = u_1 G'(u): the
            # u_1-linear part integrates, everything else is irreducible
            p = work.coefficient_layers(1).get(1)
            if p:
                anti, blocked = _antidiff_u(p, 0)
                if blocked:
                    raise AssertionError("antiderivative in u cannot be blocked")
                g = g + anti
                work = work - anti.total_derivative()
            residue = residue + work
            break
        # order n >= 2: terms nonlinear in u_n are irreducible; the linear
        # ones, p u_n, are d of the u_{n-1}-antiderivative of p up to lower
        # order, so this step removes every u_n
        top = (1, n)
        moved = SP({(even, odd): c for (even, odd), c in work.terms.items()
                    if dict(even).get(top, 0) > 1})
        residue = residue + moved
        work = work - moved
        p = work.coefficient_layers(n).get(1)
        if p:
            anti, blocked = _antidiff_u(p, n - 1)
            if blocked:
                blocked_term = SP.u(n) * blocked
                residue = residue + blocked_term
                work = work - blocked_term
            if anti:
                g = g + anti
                work = work - anti.total_derivative()
    return g, residue


def ref_e_data(f, g, n):
    half = Fraction(1, 2)
    e = []
    for j in range(n + 1):
        Fj = f.partial_u(j)
        Gj = SP()
        for l in range(0, n - j + 1):
            dg = g.partial_u(j + l)
            if dg:
                Gj = Gj + SP.u(l) * dg * (half * (comb(j + l, l) + comb(j + l + 1, l)))
        if j == 0:
            Gj = Gj - g * half
        e.append(Fj - Gj)
    return e


def ref_s_system(e, n):
    S = []
    for k in range(n + 1):
        Sk = e[k]
        for j in range(k, n + 1):
            t = e[j].dx(j - k) * comb(j + 1, k + 1)
            Sk = Sk + (-t if j & 1 else t)
        S.append(Sk)
    return S


def ref_e_system(e, n):
    m = n // 2
    E = []
    for l in range(m + 1):
        El = SP()
        for j in range(2 * l, m + l + 1):
            t = e[j].dx(j - 2 * l) * (comb(2 * m - j, m - l) * comb(j + 1, 2 * l + 1))
            El = El + (-t if j & 1 else t)
        E.append(El)
    return E


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def odd_densities(draw, max_order=8):
    """A density of theta-degree 1-3 and order <= max_order, polynomial or
    Laurent in u_1 (drawn), over mixed denominators."""
    laurent = draw(st.booleans())
    k = draw(st.integers(1, 3))
    a = SP()
    for _ in range(draw(st.integers(1, 4))):
        m = SP.const(Fraction(draw(st.integers(-7, 7).filter(bool)),
                              draw(st.sampled_from([1, 2, 3, 5, 6]))))
        for _ in range(draw(st.integers(0, 3))):
            m = m * SP.u(draw(st.integers(0, max_order)))
        if laurent and draw(st.booleans()):
            m = m * SP.u(1, power=-draw(st.integers(1, 3)))
        for j in draw(st.lists(st.integers(0, max_order), min_size=k, max_size=k, unique=True)):
            m = m * SP.theta(j)
        a = a + m
    return a


def _edge_power(k, below):
    """u_k^E with E the largest exponent of u_k allowed, or one less."""
    return SP.u(k, power=(_U1_MAX if k == 1 else _E_MAX) - below)


@st.composite
def even_densities(draw):
    """A theta-free density of order <= 5, polynomial or Laurent in u_1
    (drawn), over mixed denominators, plus d(h) for a drawn h, plus terms
    u_k^E u_{k+1} whose antiderivative power E + 1 is just in or just past
    the exponent range, and u_1^-1 u_2, whose antiderivative is log u_1."""
    laurent = draw(st.booleans())

    def density():
        a = SP()
        for _ in range(draw(st.integers(0, 4))):
            m = SP.const(Fraction(draw(st.integers(-7, 7).filter(bool)),
                                  draw(st.sampled_from([1, 2, 3, 5, 6]))))
            for _ in range(draw(st.integers(0, 3))):
                m = m * SP.u(draw(st.integers(0, 5)))
            if laurent and draw(st.booleans()):
                m = m * SP.u(1, power=-draw(st.integers(1, 3)))
            a = a + m
        return a

    a = density() + density().total_derivative()
    extra = draw(st.sampled_from(["none", "edge", "log"]))
    if extra == "edge":
        k = draw(st.integers(0, 4))
        m = _edge_power(k, draw(st.integers(0, 1))) * SP.u(k + 1)
        if k != 1 and laurent and draw(st.booleans()):
            m = m * SP.u(1, power=-1)
        a = a + m * draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    elif extra == "log":
        a = a + SP.u(1, power=-1) * SP.u(2) * draw(st.sampled_from([1, SP.u(0), Fraction(2, 3)]))
    return a


def _outcome(f):
    """f(), or the type and message of the AlgebraError it raises."""
    try:
        return f()
    except AlgebraError as exc:
        return type(exc), str(exc)


@st.composite
def even_pairs(draw):
    """(f, g, n): theta-free f and g of order <= n, Laurent in u_1 when drawn
    (u_1 has order 1, so only for n >= 1)."""
    n = draw(st.integers(0, 6))
    laurent = n >= 1 and draw(st.booleans())

    def density():
        a = SP()
        for _ in range(draw(st.integers(0, 3))):
            m = SP.const(Fraction(draw(st.integers(-5, 5).filter(bool)),
                                  draw(st.sampled_from([1, 2, 3]))))
            for _ in range(draw(st.integers(0, 3))):
                m = m * SP.u(draw(st.integers(0, n)))
            if laurent and draw(st.booleans()):
                m = m * SP.u(1, power=-draw(st.integers(1, 2)))
            a = a + m
        return a

    return density(), density(), n


# ---------------------------------------------------------------------------
# integrate_x
# ---------------------------------------------------------------------------

class TestDescent:
    @given(odd_densities())
    def test_integrates_exact_densities_exactly(self, g):
        a = g.total_derivative()
        assert integrate_x(a) == g
        if a:
            assert _witness_from_N(a, a.theta_degree()) == g

    @given(odd_densities(max_order=6))
    def test_inexact_densities_raise_with_the_canonical_residue(self, a):
        r = canonical_class(a).rep
        if not r:
            assert integrate_x(a).total_derivative() == a
            return
        g, rest = _integrate(a)
        assert rest and g.total_derivative() + rest == a
        with pytest.raises(NotExact) as err:
            integrate_x(a)
        assert err.value.residue == r
        assert str(err.value) == f"density is not a total derivative (residue {r})"

    @given(densities(max_theta_degree=0), odd_densities(max_order=6),
           odd_densities(max_order=6))
    def test_decompose_splits_off_the_canonical_residue(self, a0, a1, a2):
        for a in (a0 + a1, a1 + a2, a0 + a1 + a2):
            g, r = decompose_total_derivative(a)
            assert g.total_derivative() + r == a
            for k, comp in a.theta_components().items():
                if k:
                    rk = canonical_class(comp).rep
                    assert r.theta_components().get(k, SP()) == rk
                    assert g.theta_components().get(k, SP()) == _witness_from_N(comp - rk, k)

    def test_stalls(self):
        u, u1, u2, th = SP.u(0), SP.u(1), SP.u(2), SP.theta
        for a in (th(0) * u,                              # order 0
                  th(1) * th(2),                          # theta_n with theta_{n-1}
                  th(0) * u2 * u2,                        # nonlinear in u_n
                  th(0) * u2 * SP.u(1, power=-1),         # log u_1
                  u * th(2) * u2,                         # theta_n with u_n
                  th(0) * SP.u(1, power=_U1_MAX) * u2,    # u_1^8192 / 8192
                  th(0) * SP.u(2, power=_E_MAX) * SP.u(3)):
            g, rest = _integrate(a)
            assert rest and g.total_derivative() + rest == a
            with pytest.raises(NotExact) as err:
                integrate_x(a)
            assert err.value.residue == canonical_class(a).rep
        # u_1^-1 is integrable where it is not the variable integrated in
        g = th(0) * SP.u(1, power=-1) * SP.u(3) * u2
        assert integrate_x(g.total_derivative()) == g
        assert integrate_x(th(0) * u1 + th(1) * u) == th(0) * u


class TestThetaFreeDescent:
    @given(even_densities())
    def test_matches_the_descent_it_replaced(self, a):
        want = _outcome(lambda: _decompose_even(a))
        assert _outcome(lambda: _integrate(a)) == want
        if want[0] is not AlgebraError:
            g, r = want
            assert g.total_derivative() + r == a
            assert canonical_class(a).rep == r

    @pytest.mark.parametrize("a", [
        SP.u(1, power=-1) * SP.u(2),                      # log u_1
        SP.u(0) * SP.u(1, power=-1) * SP.u(2) + SP.u(3),
        _edge_power(0, 0) * SP.u(1),                      # u^16384 / 16384
        _edge_power(0, 1) * SP.u(1),
        _edge_power(1, 0) * SP.u(2),                      # u_1^8192 / 8192
        _edge_power(1, 1) * SP.u(2),
        _edge_power(2, 0) * SP.u(3) * SP.u(1, power=-1),
        SP.u(1, power=_U1_MIN) * SP.u(2),
        SP.u(2) * _edge_power(3, 0) * SP.u(5),            # d of the antiderivative
        _edge_power(2, 0) * SP.u(3) * SP.u(3),            # nonlinear: a residue
    ], ids=str)
    def test_pinned_cases_match_the_descent_it_replaced(self, a):
        assert _outcome(lambda: _integrate(a)) == _outcome(lambda: _decompose_even(a))

    def test_builds_no_terms_view(self):
        u, u1, u2, u3 = SP.u(0), SP.u(1), SP.u(2), SP.u(3)
        inexact = u * u2 * u2 + u1 ** 3 + SP.u(1, power=-1) * u2 * Fraction(2, 3)
        exact = (u * u1 * u3 + SP.u(1, power=-2) * u2).total_derivative()

        def no_view(self):
            raise AssertionError("a .terms view was built")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SP, "terms", property(no_view))
            for a in (inexact, exact, inexact + exact):
                g, r = decompose_total_derivative(a)
                assert canonical_class(a).rep == r
                assert g.total_derivative() + r == a
            assert integrate_x(exact).total_derivative() == exact


# ---------------------------------------------------------------------------
# The e/S/E systems
# ---------------------------------------------------------------------------

class TestSystems:
    @given(even_pairs())
    def test_build_eSE_matches_the_defining_sums(self, pair):
        f, g, n = pair
        e, S, E = build_eSE(f, g, n)
        want_e = ref_e_data(f, g, n)
        assert e == want_e
        assert S == ref_s_system(want_e, n)
        assert E == (ref_e_system(want_e, n) if n % 2 == 0 else None)

    @given(even_pairs())
    def test_se_equivalence_holds_on_arbitrary_e_data(self, pair):
        f, g, n = pair
        n += n % 2
        e = ref_e_data(f, g, n)
        assert verify_SE_equivalence(e, n)
        assert verify_SE_equivalence(e[: n // 2], n)

    def test_order_above_the_declared_one_is_refused(self):
        with pytest.raises(AlgebraError, match="larger than declared"):
            build_eSE(SP.u(3), SP(), 2)
