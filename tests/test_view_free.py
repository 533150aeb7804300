"""The antiderivative in u_k, the hierarchy lift and the operator read-off on
packed keys, against the formulas over `.terms` views that they replaced,
kept here as references; and the engine paths that must build no `.terms`
view at all.

`algebra._antidiff_u(p, k)` must give the same antiderivative and the same
blocked u_1^-1 part as the old body, or raise the same AlgebraError for a
new power past the exponent range.  `bivector_to_operator` reads D_j as
partial_theta(j) of the carried delta_theta and must agree with the old
term-by-term read-off, operator or error.  Every Hamiltonian H_n is
c_n u^(n+2) with c_{n+1} = (n + 3/2) / (n + 3) c_n and c_{-1} = 4/3, so the
hierarchy lift is one antiderivative in u.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import densities
from jetbrackets import (
    AlgebraError,
    DiffOperator,
    EvolutionaryVF,
    MultiVector,
    NontrivialAtDegreeZero,
    NotExact,
    SkewnessError,
    SuperPolynomial as SP,
    canonical_class,
    hierarchy,
    operator_to_bivector,
    quasi_trivialize,
)
from jetbrackets.algebra import _E_MAX, _U1_MAX, _U1_MIN, _antidiff_u
from jetbrackets.dkdv import dkdv_pencil
from jetbrackets.variational import _make_class, antidiff_square, bivector_to_operator

u, u1, u2, u3 = SP.u(0), SP.u(1), SP.u(2), SP.u(3)
inv = SP.u(1, power=-1)
th, th1 = SP.theta(0), SP.theta(1)


# ---------------------------------------------------------------------------
# References: the replaced formulas
# ---------------------------------------------------------------------------

def ref_antidiff_u(p, k):
    """(antiderivative in u_k, blocked u_1^-1 terms), term by term over the
    `.terms` view, through the validating constructor."""
    good: dict = {}
    blocked: dict = {}
    coord = (1, k)
    for (even, odd), c in p.terms.items():
        e = next((ee for co, ee in even if co == coord), 0)
        if e == -1:
            blocked[(even, odd)] = c
        else:
            # the constructor merges the new factor into the power of u_k
            good[(even + ((coord, 1),), odd)] = c / (e + 1)
    return SP(good), SP(blocked)


def ref_bivector_to_operator(B):
    """The operator read off delta_theta B = sum_j D_j theta_j term by term."""
    if B.theta_degree != 2:
        raise AlgebraError("only theta-degree-2 classes correspond to operators")
    coeffs: dict = {}
    for (even, odd), c in B._delta_theta().terms.items():
        if len(odd) != 1:
            raise AlgebraError("not a bivector density")
        coeffs.setdefault(odd[0][1], {})[(even, ())] = c
    D = DiffOperator({j: SP(t) for j, t in coeffs.items()})
    if not D.is_skew_adjoint():
        raise SkewnessError("reconstructed operator is not skew-adjoint")
    if operator_to_bivector(D) != B:
        raise AlgebraError("bivector does not come from a differential operator")
    return D


def hierarchy_coefficients(n):
    """c_{-1}, ..., c_n of H_m = c_m u^(m+2)."""
    c = [Fraction(4, 3)]
    for m in range(-1, n):
        c.append(c[-1] * (m + Fraction(3, 2)) / (m + 3))
    return c


def _outcome(f):
    """f(), or the type and message of the AlgebraError it raises."""
    try:
        return f()
    except AlgebraError as exc:
        return type(exc), str(exc)


def _edge_power(k, below):
    """u_k^E with E the largest exponent of u_k allowed, or one less."""
    return SP.u(k, power=(_U1_MAX if k == 1 else _E_MAX) - below)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def antidiff_inputs(draw):
    """(p, k), k = 0..3: a drawn density, polynomial or Laurent, plus in two
    draws of three a blocked term u_1^-1 m or a range-edge term u_j^E m."""
    k = draw(st.integers(0, 3))
    p = draw(densities())
    m = draw(st.sampled_from([SP.const(1), u, u2 * th, Fraction(-2, 3) * u3]))
    extra = draw(st.sampled_from(["none", "blocked", "edge"]))
    if extra == "blocked":
        p = p + inv * m
    elif extra == "edge":
        j = draw(st.sampled_from([k, k, 0, 1, 2]))
        p = p + _edge_power(j, draw(st.integers(0, 1))) * m
    return p, k


@st.composite
def bivectors(draw):
    """A theta-degree-2 class: from a drawn skew-adjoint operator D - D*
    (polynomial or Laurent coefficients), or the class of a drawn density."""
    if draw(st.booleans()):
        D = DiffOperator({j: draw(densities(max_theta_degree=0))
                          for j in range(draw(st.integers(0, 3)) + 1)})
        S = D - D.adjoint()
        return operator_to_bivector(S) if not S.is_zero() else canonical_class(th * SP.theta(1))
    return canonical_class(draw(densities(min_theta_degree=2, max_theta_degree=2)))


# ---------------------------------------------------------------------------
# The antiderivative in u_k
# ---------------------------------------------------------------------------

class TestAntiderivative:
    @given(antidiff_inputs())
    def test_matches_the_terms_formula(self, case):
        p, k = case
        want = _outcome(lambda: ref_antidiff_u(p, k))
        assert _outcome(lambda: _antidiff_u(p, k)) == want
        if not isinstance(want[0], type):
            h, blocked = want
            assert h.partial_u(k) == p - blocked
            assert not blocked or k == 1

    @pytest.mark.parametrize("p, k", [
        (SP(), 0),
        (SP.const(Fraction(3, 4)), 2),                    # 3/4 u_2
        (inv * u2 + u1 * u2 * Fraction(1, 6), 1),         # u_1^-1 u_2 is blocked
        (inv * th, 0),
        (SP.u(1, power=-3) * u3 + inv, 1),                # -1/2 u_1^-2 u_3 + blocked
        (SP.u(1, power=_U1_MIN) * u2, 1),                 # u_1^-8191 / -8191
        (_edge_power(1, 1) * th, 1),                      # u_1^8191 / 8191
        (_edge_power(1, 0) * u2, 1),                      # u_1^8192: past the range
        (_edge_power(0, 0) + u, 0),                       # u^16384: past the range
        (_edge_power(3, 0) * Fraction(2, 5), 3),
        (_edge_power(3, 0) * u2, 2),                      # the edge is on u_3
    ], ids=str)
    def test_pinned_cases_match_the_terms_formula(self, p, k):
        assert _outcome(lambda: _antidiff_u(p, k)) == _outcome(lambda: ref_antidiff_u(p, k))

    def test_range_errors(self):
        with pytest.raises(AlgebraError, match=r"^u_1\^8192 leaves the supported exponent range"):
            _antidiff_u(_edge_power(1, 0), 1)
        with pytest.raises(AlgebraError, match=r"^u_2\^16384 leaves the supported exponent range"):
            _antidiff_u(_edge_power(2, 0) * u, 2)


# ---------------------------------------------------------------------------
# The bivector read-off and the hierarchy lift
# ---------------------------------------------------------------------------

class TestReadOff:
    @given(bivectors())
    def test_matches_the_terms_read_off(self, B):
        want = _outcome(lambda: ref_bivector_to_operator(B))
        assert _outcome(lambda: bivector_to_operator(B)) == want
        if isinstance(want, DiffOperator):
            assert operator_to_bivector(want) == B

    def test_round_trip_of_a_skew_operator(self):
        D = DiffOperator({3: u * inv, 2: (u * inv).total_derivative() * Fraction(3, 2),
                          1: u2 * 4, 0: u3 * 2})
        D = D - D.adjoint()
        assert bivector_to_operator(operator_to_bivector(D)) == D

    # the first three are wrong classes, built past the public constructor
    @pytest.mark.parametrize("B", [
        _make_class(u * SP.theta(1) * SP.theta(2), 2),   # an AlgebraError on both
        _make_class(u * th, 2),                           # not a bivector density
        _make_class(th * th1 * SP.theta(2), 2),
        MultiVector(SP(), 2),                             # the zero operator
        canonical_class(u * th),                          # theta-degree 1
    ], ids=str)
    def test_pinned_classes_match_the_terms_read_off(self, B):
        assert _outcome(lambda: bivector_to_operator(B)) \
            == _outcome(lambda: ref_bivector_to_operator(B))

    def test_hierarchy_is_the_closed_recursion(self):
        H = hierarchy(30)
        c = hierarchy_coefficients(30)
        assert [h.rep for h in H] == [u ** (m + 1) * cm for m, cm in enumerate(c)]


# ---------------------------------------------------------------------------
# No `.terms` view
# ---------------------------------------------------------------------------

def _tail_class(w):
    """c1 = d_Q d_P int w dx, trivial by construction."""
    pen = dkdv_pencil()
    return pen.d_Q(pen.d_P(canonical_class(w)))


def test_builds_no_terms_view():
    pen = dkdv_pencil()
    trivial0 = canonical_class(th * th1 * Fraction(5, 2))
    nontrivial0 = canonical_class(u * th * th1)
    degree2 = pen.d_P(canonical_class((u1 * u).total_derivative() * th))
    # degree ell 3..6 from w of degree ell - 1, and a Laurent tail in degree 6
    tails = [_tail_class(w) for w in (u1 * u1, u1 * u2, u2 * u2, u2 * u3, inv * u2 ** 3)]
    D = DiffOperator({1: u * inv, 0: (u * inv).total_derivative() / 2})

    def no_view(self):
        raise AssertionError("a .terms view was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SP, "terms", property(no_view))
        w = quasi_trivialize(trivial0)
        assert w.chars == (SP.const(-5),)
        assert isinstance(quasi_trivialize(nontrivial0), NontrivialAtDegreeZero)
        for c1 in (degree2, *tails):
            w = quasi_trivialize(c1)
            assert isinstance(w, EvolutionaryVF) and pen.d_Q(w.as_class()) == c1
        assert hierarchy(6)[-1].rep == u ** 8 * hierarchy_coefficients(6)[-1]
        h = antidiff_square(u * u2 + SP.u(1, power=-3), 1)
        assert h.partial_u(1).partial_u(1) == u * u2 + SP.u(1, power=-3)
        with pytest.raises(NotExact, match="requires a logarithm"):
            antidiff_square(SP.u(1, power=-2), 1)
        assert bivector_to_operator(operator_to_bivector(D)) == D
