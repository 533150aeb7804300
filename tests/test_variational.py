from fractions import Fraction
from math import comb

import pytest

from jetbrackets import (
    AlgebraError,
    DiffOperator,
    NotExact,
    SuperPolynomial as SP,
    bivector_to_operator,
    canonical_class,
    decompose_total_derivative,
    higher_variational_theta,
    higher_variational_u,
    integrate_x,
    normalize_N,
    operator_to_bivector,
    variational_derivative,
    vf_from_density,
)
from hypothesis import given, strategies as st

from jetbrackets.algebra import SkewnessError
from jetbrackets.variational import OperatorMatrix
from conftest import rand_density


u = SP.u(0)
u1 = SP.u(1)
u2 = SP.u(2)
th = SP.theta(0)
th1 = SP.theta(1)
th2 = SP.theta(2)


class TestVariationalDerivative:
    def test_kills_total_derivative(self):
        assert variational_derivative(u * u1).is_zero()

    def test_u2_over_u1_is_null(self):
        w = SP.u(2, hat=True) * SP.u(1, power=-1, hat=True)
        assert variational_derivative(w).is_zero()

    def test_higher_level_example(self):
        assert variational_derivative(u1 * u1 / 2, level=1) == u1

    def test_delta_kills_d_randomized(self, rng):
        for _ in range(30):
            a = rand_density(rng, rng.randint(0, 2), max_order=5, hat=True)
            d = a.total_derivative()
            assert higher_variational_u(d).is_zero()
            assert higher_variational_theta(d).is_zero()

    def test_reconstruction_identity(self, rng):
        # partial_{theta_i} = sum_{j>=i} C(j,i) d^{j-i} delta_{j,theta}
        for _ in range(15):
            a = rand_density(rng, rng.randint(1, 3), max_order=3)
            for i in range(0, 4):
                acc = SP.zero(1, a.hat)
                for j in range(i, a.order() + 1):
                    t = higher_variational_theta(a, 1, j)
                    if t:
                        acc = acc + t.dx(j - i) * comb(j, i)
                assert acc == a.partial_theta(i)


class TestNormalization:
    def test_theta_theta1(self):
        assert normalize_N(th * th1) == 2 * (th * th1)

    def test_kills_total_derivatives(self):
        d = (u * th).total_derivative()
        assert normalize_N(d).is_zero()

    def test_third_order_operator_form(self):
        # (1/2) N (s theta_1 theta_2) = -theta (s d^3 + 3/2 u_1 s' d^2
        #                                        + 1/2 (u_2 s' + u_1^2 s'') d) theta
        for s in (SP.const(1), u, u ** 3):
            sp = s.partial_u(0)
            spp = sp.partial_u(0)
            lhs = normalize_N(s * th1 * th2) / 2
            rhs = -(s * th * SP.theta(3)
                    + Fraction(3, 2) * u1 * sp * th * th2
                    + (u2 * sp + u1 * u1 * spp) / 2 * th * th1)
            assert lhs == rhs

    def test_nf_minus_kf_is_exact(self, rng):
        for hat in (False, True):
            for _ in range(15):
                k = rng.randint(1, 3)
                F = rand_density(rng, k, max_order=4, hat=hat)
                if F.is_zero():
                    continue
                w = integrate_x(normalize_N(F) - F * k)
                assert w.total_derivative() == normalize_N(F) - F * k


class TestIntegrateX:
    def test_simple(self):
        assert integrate_x(u * u1) == u * u / 2

    def test_hierarchy_step_density(self):
        got = integrate_x(u * u * u1 * Fraction(3, 4))
        assert got == u ** 3 / 4

    def test_log_obstruction(self):
        w = SP.u(2, hat=True) * SP.u(1, power=-1, hat=True)
        with pytest.raises(NotExact) as err:
            integrate_x(w)
        assert err.value.residue == w

    def test_laurent_exact(self):
        # u_2 u_1^{-2} = d(-u_1^{-1})
        w = SP.u(2, hat=True) * SP.u(1, power=-2, hat=True)
        assert integrate_x(w).total_derivative() == w

    def test_witness_on_random_exact_densities(self, rng):
        for _ in range(30):
            g = rand_density(rng, rng.randint(0, 3), max_order=3, hat=True)
            d = g.total_derivative()
            w = integrate_x(d)
            assert w.total_derivative() == d

    def test_decompose_residue_is_class_invariant(self, rng):
        for _ in range(20):
            a = rand_density(rng, 0, max_order=3, hat=True)
            b = rand_density(rng, 0, max_order=2, hat=True)
            _g1, r1 = decompose_total_derivative(a)
            _g2, r2 = decompose_total_derivative(a + b.total_derivative())
            assert r1 == r2


class TestCanonicalClass:
    def test_normalized_representative(self):
        assert canonical_class(u1 * th * th1).rep == u1 * th * th1

    def test_zero_classes(self):
        assert canonical_class(u * u1).is_zero()
        assert canonical_class(SP.theta(2)).is_zero()

    def test_invariance_under_exact_shifts(self, rng):
        for _ in range(25):
            k = rng.randint(0, 3)
            a = rand_density(rng, k, max_order=3, hat=True)
            b = rand_density(rng, k, max_order=2, hat=True)
            lhs = canonical_class(a + b.total_derivative())
            assert lhs == canonical_class(a)
            assert canonical_class(b.total_derivative()).is_zero()

    def test_mixed_theta_degree_rejected(self):
        with pytest.raises(AlgebraError):
            canonical_class(th + th * th1)


class TestEvolutionaryVF:
    def test_translation(self):
        X = vf_from_density(u1 * th)
        assert X.chars[0] == u1

    def test_integration_by_parts(self):
        # -g'(u) theta_1 has characteristic u_1 g''(u); take g = u^3
        g = u ** 3
        X = vf_from_density(-(g.partial_u(0)) * th1)
        assert X.chars[0] == u1 * g.partial_u(0).partial_u(0)

    def test_total_derivative_coefficient(self):
        s = u * u
        X = vf_from_density(s.total_derivative() * th1)
        assert X.chars[0] == -(2 * u * u1).total_derivative()

    def test_apply_is_derivation(self, rng):
        from jetbrackets import EvolutionaryVF
        X = EvolutionaryVF(u * u1)
        for _ in range(10):
            a = rand_density(rng, 0, max_order=3)
            b = rand_density(rng, 0, max_order=3)
            assert X.apply(a * b) == X.apply(a) * b + a * X.apply(b)

    def test_commutes_with_total_derivative(self, rng):
        from jetbrackets import EvolutionaryVF
        X = EvolutionaryVF(u * u * u1)
        for _ in range(10):
            a = rand_density(rng, 0, max_order=3)
            assert X.apply(a.total_derivative()) == X.apply(a).total_derivative()


class TestOperatorDictionary:
    def test_first_structure(self):
        B = operator_to_bivector(DiffOperator.d(1))
        assert B.rep == th * th1 / 2

    def test_second_structure(self):
        B = operator_to_bivector(DiffOperator({1: u, 0: u1 / 2}))
        assert B.rep == u * th * th1 / 2

    def test_third_order_family(self):
        # class of (1/2) s theta_1 theta_2 maps to the operator
        # -(s d^3 + 3/2 u_1 s' d^2 + 1/2 (u_2 s' + u_1^2 s'') d)
        for s in (SP.const(1), u, u ** 3):
            sp = s.partial_u(0)
            spp = sp.partial_u(0)
            B = canonical_class(s * th1 * th2 / 2)
            D = bivector_to_operator(B).single()
            expected = DiffOperator({
                3: -s,
                2: -(Fraction(3, 2) * u1 * sp),
                1: -((u2 * sp + u1 * u1 * spp) / 2),
            })
            assert D == expected
            assert operator_to_bivector(expected) == B

    def test_non_skew_rejected(self):
        with pytest.raises(SkewnessError):
            operator_to_bivector(DiffOperator({1: u, 0: u1}))

    def test_round_trip_random_skew(self, rng):
        # random skew-adjoint operators of order <= 4
        for _ in range(12):
            A = DiffOperator({j: rand_density(rng, 0, max_order=2, terms=1)
                              for j in range(rng.randint(1, 5))})
            D = A - A.adjoint()
            if D.is_zero():
                continue
            assert D.order() <= 4
            assert bivector_to_operator(operator_to_bivector(D)).single() == D

    def test_round_trip_q2(self):
        # a two-component hydrodynamic operator: h = [[0,1],[1,0]] times d
        one = SP.const(1, q=2)
        zero = SP.zero(q=2)
        d = DiffOperator({1: one}, q=2)
        z = DiffOperator({}, q=2)
        M = OperatorMatrix([[z, d], [d, z]])
        B = operator_to_bivector(M)
        assert bivector_to_operator(B) == M

    def test_round_trip_q2_with_order_zero(self):
        one = SP.const(1, q=2)
        u2v = SP.u(1, alpha=2, q=2)
        d12 = DiffOperator({1: one, 0: u2v}, q=2)
        M = OperatorMatrix([[DiffOperator({}, q=2), d12],
                            [-(d12.adjoint()), DiffOperator({}, q=2)]])
        assert M.is_skew_adjoint()
        B = operator_to_bivector(M)
        assert bivector_to_operator(B) == M


# ---------------------------------------------------------------------------
# Differential test of the integer kernel against the Fraction formulas
# ---------------------------------------------------------------------------

def _ref_nested_alternating(pieces):
    acc = None
    for p in reversed(pieces):
        acc = p if acc is None else p - acc.total_derivative()
    return acc


def _ref_delta(a, odd, alpha, level):
    """sum_j (-1)^j C(level+j, level) d^j partial_{level+j}, one Fraction
    polynomial per partial derivative, summed by Horner."""
    top = a.order() - level
    if top < 0:
        return SP.zero(a.q, a.hat)
    partial = a.partial_theta if odd else a.partial_u
    return _ref_nested_alternating(
        [partial(level + j, alpha) * comb(level + j, level) for j in range(top + 1)])


def _ref_normalize_N(a):
    out = SP.zero(a.q, a.hat)
    for alpha in range(1, a.q + 1):
        d = _ref_delta(a, True, alpha, 0)
        if d:
            out = out + SP.theta(0, alpha, a.q, a.hat) * d
    return out


_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10])


@st.composite
def densities(draw, min_theta_degree=0, max_theta_degree=3):
    """A density of uniform theta-degree (up to 3) over q = 1 or 2, hat
    (Laurent in u_1) or not, with coefficients over mixed denominators."""
    q = draw(st.sampled_from([1, 2]))
    hat = q == 1 and draw(st.booleans())
    k = draw(st.integers(min_theta_degree, max_theta_degree))
    a = SP.zero(q, hat)
    for _ in range(draw(st.integers(0, 5))):
        num = draw(st.integers(-7, 7).filter(bool))
        m = SP.const(Fraction(num, draw(_DENOMINATORS)), q, hat)
        for _ in range(draw(st.integers(0, 3))):
            m = m * SP.u(draw(st.integers(0, 4)), draw(st.integers(1, q)), 1, q, hat)
        if hat and draw(st.booleans()):
            m = m * SP.u(1, 1, -draw(st.integers(1, 3)), q, hat)
        odd = draw(st.lists(st.tuples(st.integers(1, q), st.integers(0, 4)),
                            min_size=k, max_size=k, unique=True))
        for alpha, j in odd:
            m = m * SP.theta(j, alpha, q, hat)
        a = a + m
    return a


def _assert_same(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


class TestKernelAgainstFractionFormulas:
    @given(densities())
    def test_higher_variational_derivatives(self, a):
        for alpha in range(1, a.q + 1):
            for level in range(4):
                _assert_same(higher_variational_u(a, alpha, level),
                             _ref_delta(a, False, alpha, level))
                _assert_same(higher_variational_theta(a, alpha, level),
                             _ref_delta(a, True, alpha, level))

    @given(densities())
    def test_normalize_N(self, a):
        _assert_same(normalize_N(a), _ref_normalize_N(a))

    @given(densities(min_theta_degree=1))
    def test_canonical_class(self, a):
        if not a:
            return
        k = a.theta_degree()
        got = canonical_class(a)
        assert got.theta_degree == k
        _assert_same(got.rep, _ref_normalize_N(a) / k)

    @given(densities())
    def test_total_derivatives_are_null(self, a):
        d = a.total_derivative()
        for alpha in range(1, a.q + 1):
            assert higher_variational_u(d, alpha).is_zero()
            assert higher_variational_theta(d, alpha).is_zero()
        assert normalize_N(d).is_zero()

    @given(densities())
    def test_no_zero_coefficients(self, a):
        # the d(a) part cancels inside the kernel's rounds; no zero entry
        # may be left behind
        b = a + a.total_derivative() * Fraction(1, 3)
        outs = [normalize_N(b)]
        for alpha in range(1, b.q + 1):
            for level in range(3):
                outs.append(higher_variational_u(b, alpha, level))
                outs.append(higher_variational_theta(b, alpha, level))
        for p in outs:
            assert all(c != 0 for c in p.terms.values())

    def test_cross_component_cancellation(self):
        # theta1 delta_theta1 a and theta2 delta_theta2 a meet on the same
        # monomials and cancel there
        u2 = SP.u(0, 2, 1, 2)
        t = [[SP.theta(j, alpha, 2) for j in range(2)] for alpha in (1, 2)]
        a = u2 * t[0][0] * t[1][1] - u2 * t[0][1] * t[1][0]
        n = normalize_N(a)
        _assert_same(n, _ref_normalize_N(a))
        assert all(c != 0 for c in n.terms.values())


def _ref_vf_chars(a):
    """The characteristics as vf_from_density built them before it called the
    kernel: sum_j (-1)^j d^j partial_{theta_alpha,j} a for every alpha."""
    chars = []
    for alpha in range(1, a.q + 1):
        c = SP.zero(a.q, a.hat)
        for j in range(a.order() + 1):
            f = a.partial_theta(j, alpha)
            if f:
                f = f.dx(j)
                c = c + (-f if j & 1 else f)
        chars.append(c)
    return chars


class TestVectorFieldAgainstPartialThetaLoop:
    @given(densities(min_theta_degree=1, max_theta_degree=1))
    def test_characteristics(self, a):
        if not a:
            return
        X = vf_from_density(a)
        want = _ref_vf_chars(a)
        assert len(X.chars) == len(want) == a.q
        for got, w in zip(X.chars, want):
            _assert_same(got, w)
