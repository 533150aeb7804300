import random
from fractions import Fraction
from math import gcd

import pytest

from jetbrackets import (
    AlgebraError,
    DiffOperator,
    SuperPolynomial as SP,
    UndefinedGrading,
    adjoint,
    canonical_class,
    grading_info,
    higher_variational_theta,
    higher_variational_u,
    normalize_N,
    schouten_bracket,
)
from hypothesis import given, strategies as st

from conftest import (
    assert_same,
    densities,
    rand_coeff,
    rand_density,
    ref_add,
    ref_dx,
    ref_mul,
    ref_partial_theta,
    ref_partial_u,
    ref_scale,
    ref_total_derivative,
)


u = SP.u(0)
u1 = SP.u(1)
u2 = SP.u(2)
th = SP.theta(0)
th1 = SP.theta(1)
th2 = SP.theta(2)


class TestProduct:
    def test_koszul_sorting_sign(self):
        assert SP.theta(1) * SP.theta(0) == -(th * th1)

    def test_laurent_cancellation(self):
        assert SP.u(1) * SP.u(1, power=-1) == SP.const(1)

    def test_sorted_even_permutation(self):
        assert (th * th1) * th2 == th * th1 * th2
        assert ((th * th1) * th2).terms == {((), ((1, 0), (1, 1), (1, 2))): Fraction(1)}

    def test_square_of_odd_vanishes(self):
        assert (th1 * th1).is_zero()
        assert ((th + th1) * (th + th1)).is_zero()

    def test_polynomial_and_laurent_operands_compute(self):
        inv = SP.u(1, power=-1)
        assert (u1 * u2) * inv == u2
        assert (u + inv) - inv == u
        assert (u1 + inv) * (u1 - inv) == u1 ** 2 - SP.u(1, power=-2)
        assert DiffOperator({1: u, 0: inv}).apply(u1) == u * u2 + 1

    def test_constants_hash_like_their_numbers(self):
        assert len({SP(), 0}) == 1
        assert len({SP.const(3), 3, Fraction(3)}) == 1
        assert hash(SP.const(Fraction(-1, 2))) == hash(Fraction(-1, 2))
        assert {SP.const(3): "three"}[3] == "three"
        assert hash(u) == hash(SP.u(0))

    @pytest.mark.parametrize("op", [
        lambda a: a * 1.5, lambda a: a + "x", lambda a: a - 1.5,
        lambda a: 1.5 * a, lambda a: "x" + a, lambda a: 1.5 - a, lambda a: a + None,
    ], ids=["a*1.5", "a+str", "a-1.5", "1.5*a", "str+a", "1.5-a", "a+None"])
    def test_foreign_operands_raise_type_error(self, op):
        # NotImplemented from the ring operations lets Python raise TypeError
        with pytest.raises(TypeError):
            op(u)

    def test_laurent_only_for_u1_in_hat_mode(self):
        with pytest.raises(AlgebraError):
            SP.u(2, power=-1)  # wrong jet
        with pytest.raises(AlgebraError):
            SP.u(0, power=-2)  # wrong jet
        assert SP.u(1, power=-3).degree() == -3

    def test_graded_commutativity_random(self, rng):
        for _ in range(40):
            ka, kb = rng.randint(0, 3), rng.randint(0, 3)
            a = rand_density(rng, ka)
            b = rand_density(rng, kb)
            sign = 1 if (ka * kb) % 2 == 0 else -1
            assert a * b == (b * a) * sign

    def test_associativity_random(self, rng):
        for _ in range(25):
            a = rand_density(rng, rng.randint(0, 2))
            b = rand_density(rng, rng.randint(0, 2))
            c = rand_density(rng, rng.randint(0, 2))
            assert (a * b) * c == a * (b * c)


class TestDerivations:
    def test_total_derivative_basics(self):
        assert u.total_derivative() == u1
        assert (th * u1).total_derivative() == th1 * u1 + th * u2

    def test_total_derivative_laurent(self):
        u1inv = SP.u(1, power=-1)
        expected = -(SP.u(2) * SP.u(1, power=-2))
        assert u1inv.total_derivative() == expected

    def test_left_odd_partial(self):
        assert (th * th1).partial_theta(1) == -th
        assert (th * th1).partial_theta(0) == th1

    def test_even_partials(self):
        assert (u ** 3 / 6).partial_u(0) == u * u / 2
        got = SP.u(1, power=-1).partial_u(1)
        assert got == -SP.u(1, power=-2)

    def test_leibniz_random(self, rng):
        for _ in range(25):
            ka = rng.randint(0, 2)
            a = rand_density(rng, ka)
            b = rand_density(rng, rng.randint(0, 2))
            prod = (a * b).total_derivative()
            assert prod == a.total_derivative() * b + a * b.total_derivative()

    def test_graded_leibniz_odd_partial(self, rng):
        for _ in range(25):
            ka = rng.randint(0, 2)
            a = rand_density(rng, ka)
            b = rand_density(rng, rng.randint(0, 2))
            k = rng.randint(0, 3)
            lhs = (a * b).partial_theta(k)
            sign = 1 if ka % 2 == 0 else -1
            rhs = a.partial_theta(k) * b + (a * b.partial_theta(k)) * sign
            assert lhs == rhs

    def test_partial_commutes_with_total(self, rng):
        # d_{u_k} o d = d o d_{u_k} + d_{u_{k-1}} for k >= 1
        for _ in range(25):
            a = rand_density(rng, rng.randint(0, 2), max_order=3)
            k = rng.randint(1, 4)
            lhs = a.total_derivative().partial_u(k)
            rhs = a.partial_u(k).total_derivative() + a.partial_u(k - 1)
            assert lhs == rhs

    def test_negative_power_of_d_rejected(self):
        with pytest.raises(AlgebraError, match="nonnegative"):
            u.dx(-1)


class TestDerivationsAgainstFractionLoops:
    """The kernel wrappers against the frozen Fraction loops, on Laurent and
    polynomial densities; order 5 is absent from every draw."""

    @given(densities())
    def test_partials(self, a):
        for k in range(6):
            assert_same(a.partial_u(k), ref_partial_u(a, k))
            assert_same(a.partial_theta(k), ref_partial_theta(a, k))

    @given(densities())
    def test_total_derivative_and_powers(self, a):
        assert_same(a.total_derivative(), ref_total_derivative(a))
        for n in range(4):
            assert_same(a.dx(n), ref_dx(a, n))

    @given(densities())
    def test_total_derivative_is_the_chain_rule(self, a):
        # d = sum over coordinates of (lifted coordinate) * (partial by it)
        want = SP.zero()
        for k in range(6):
            want = want + SP.u(k + 1) * ref_partial_u(a, k)
            want = want + SP.theta(k + 1) * ref_partial_theta(a, k)
        assert_same(a.total_derivative(), want)


def assert_canonical(p):
    """p holds integer numerators over a positive denominator with no common
    factor and no zero numerator, and its `terms` view has normal nested
    keys and rebuilds p."""
    nums, D = p._nums, p._D
    assert type(D) is int and D > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(D, *nums.values()) == 1
    terms = p.terms
    for even, odd in terms:
        assert all(e != 0 for _, e in even)
        assert [co for co, _ in even] == sorted({co for co, _ in even})
        assert list(odd) == sorted(set(odd))
    assert SP(terms) == p


class TestRingAgainstFractionLoops:
    """Every ring operation against the frozen Fraction loops, through the
    `terms` view, on polynomial and Laurent densities, and every result in
    the canonical integer form."""

    @given(st.integers(0, 2 ** 32), st.integers(0, 2))
    def test_operations(self, seed, laurent):
        rng = random.Random(seed)
        a = rand_density(rng, rng.randint(0, 3), max_order=4, terms=3, laurent=laurent)
        b = rand_density(rng, rng.randint(0, 3), max_order=4, terms=3, laurent=laurent)
        c = rand_coeff(rng)
        n = rng.randint(-3, 3) or 2
        A, B = a.terms, b.terms
        cases = [
            (a + b, ref_add(A, B)), (a - b, ref_add(A, B, -1)), (-a, ref_scale(A, -1)),
            (a + c, ref_add(A, {((), ()): c})), (c - a, ref_add({((), ()): c}, A, -1)),
            (a * b, ref_mul(A, B)), (b * a, ref_mul(B, A)),
            (a * c, ref_scale(A, c)), (n * a, ref_scale(A, n)), (a * 0, {}),
            (a / c, ref_scale(A, 1 / c)), (a / n, ref_scale(A, Fraction(1, n))),
        ]
        cases += [(a.dx(k), ref_dx(a, k).terms) for k in range(4)]
        for k in range(6):
            cases.append((a.partial_u(k), ref_partial_u(a, k).terms))
            cases.append((a.partial_theta(k), ref_partial_theta(a, k).terms))
        for got, want in cases:
            assert got.terms == want
            assert_canonical(got)
        assert_canonical(a)
        assert_canonical(b)


class TestNormalForm:
    """The public constructor normalizes, so equality and hashing are
    structural."""

    def test_zero_coefficient_is_dropped(self):
        z = SP({((), ()): Fraction(0)})
        assert not z and z == 0 and z.is_zero()
        assert SP({((((1, 0), 1),), ()): 0, ((), ()): 2}) == 2

    def test_odd_factors_sorted_with_koszul_sign(self):
        assert SP({((), ((1, 1), (1, 0))): 1}) == -th * th1
        assert SP({((), ((1, 2), (1, 0), (1, 1))): 1}) == th * th1 * th2
        assert SP({((), ((1, 1), (1, 1))): 1}) == 0

    def test_even_factors_sorted_and_merged(self):
        assert SP({((((1, 1), 1), ((1, 0), 1)), ()): 1}) == u * u1
        assert SP({((((1, 0), 1), ((1, 0), 2)), ()): 1}) == u ** 3
        assert SP({((((1, 1), 1), ((1, 1), -1)), ()): 1}) == 1

    def test_zero_exponent_is_dropped(self):
        assert SP({((((1, 0), 0),), ()): 1}) == 1
        assert SP({((((1, 0), 0),), ((1, 0),)): 3}) == th * 3

    def test_repeated_keys_after_normalization_add_up(self):
        p = SP({((), ((1, 0), (1, 1))): 1, ((), ((1, 1), (1, 0))): Fraction(1, 2)})
        assert p == th * th1 / 2

    def test_invalid_input_rejected(self):
        for bad in ({((((1, 3), -1),), ()): 1},    # only u_1 is inverted
                    {((((1, -1), 1),), ()): 1},    # negative index
                    {((), ((1, -2),)): 1},
                    {((((2, 0), 1),), ()): 1}):    # a second dependent variable
            with pytest.raises(AlgebraError):
                SP(bad)
        for bad in (1.5, "1", None):
            with pytest.raises(TypeError):
                SP({((), ()): bad})
        with pytest.raises(TypeError):
            SP.const(0.5)

    def test_terms_is_a_fresh_view(self):
        p = u * th / 3 + 1
        view = p.terms
        view[((), ())] = Fraction(7)
        view.clear()
        assert p == u * th / 3 + 1 and len(p.terms) == 2
        assert all(type(c) is Fraction for c in p.terms.values())

    def test_equal_polynomials_hash_equal(self):
        pairs = [
            (SP({((((1, 1), 1), ((1, 0), 1)), ()): 1}), u * u1),
            (SP({((), ((1, 1), (1, 0))): 1}), -th * th1),
            ((u * 6 + u1 * 4) / 4, u * Fraction(3, 2) + u1),
            (SP({((((1, 0), 0),), ()): Fraction(3, 6)}), Fraction(1, 2)),
            (SP({((), ()): 4}), 4),
            ((u + 1) - u, 1),
            (SP({((), ()): Fraction(0)}), 0),
        ]
        for p, q in pairs:
            assert p == q and hash(p) == hash(q)


class TestScalarRing:
    def test_only_one_component(self):
        for make in (lambda: SP.zero(2), lambda: SP.const(1, 2), lambda: SP.zero(True)):
            with pytest.raises(AlgebraError, match="one dependent variable"):
                make()

    def test_positional_q_of_one_still_accepted(self):
        # the benchmark's workloads build their densities this way: the
        # positional q accepts only 1, and hat is accepted and ignored
        from jetbrackets import MultiVector
        assert SP.zero(1, True) == SP.zero()
        assert SP.const(3, 1, True) == SP.const(3)
        assert SP.u(0, hat=True) == SP.u(0) and SP.theta(2, hat=True) == SP.theta(2)
        assert SP.u(1, power=-1, hat=False) == SP.u(1, power=-1, hat=True)
        B = canonical_class(th * th1)
        assert isinstance(B, MultiVector) and B.to_hat() is B

    def test_stale_positional_arguments_fail(self):
        # a leftover q or alpha argument must not bind to hat, power or level
        from jetbrackets import GradedSlice, enumerate_basis, higher_variational_theta
        for stale in (lambda: SP({}, 1, False), lambda: SP.u(0, 1),
                      lambda: SP.theta(0, 1), lambda: DiffOperator({}, 1, False),
                      lambda: higher_variational_theta(th * th1, 1),
                      lambda: enumerate_basis(GradedSlice(), 0, 1, 1, False)):
            with pytest.raises(TypeError):
                stale()


class TestGrading:
    def test_examples(self):
        p = SP.u(2) ** 2 * SP.u(1, power=-2)
        assert grading_info(p) == (2, 0, 2)
        assert grading_info(u * th * th1) == (1, 2, 1)
        assert grading_info(u + u1) == ("inhomogeneous", 0, 1)

    def test_zero_has_no_grading(self):
        with pytest.raises(UndefinedGrading):
            grading_info(SP.zero())

    def test_degree_additivity(self, rng):
        for _ in range(25):
            a = rand_density(rng, rng.randint(0, 2), terms=1)
            b = rand_density(rng, rng.randint(0, 2), terms=1)
            if (a * b).is_zero():
                continue
            assert (a * b).degree() == a.degree() + b.degree()
            assert (a * b).theta_degree() == a.theta_degree() + b.theta_degree()


class TestDiffOperator:
    def test_adjoint_of_d(self):
        assert adjoint(DiffOperator.d(1)) == DiffOperator({1: SP.const(-1)})
        D3 = DiffOperator.d(3)
        assert adjoint(D3) == DiffOperator({3: SP.const(-1)})

    def test_adjoint_q_operator(self):
        Dq = DiffOperator({1: u, 0: u1 / 2})
        assert adjoint(Dq) == DiffOperator({1: -u, 0: -(u1 / 2)})
        assert Dq.is_skew_adjoint()

    def test_adjoint_involution_random(self, rng):
        for _ in range(20):
            D = DiffOperator({j: rand_density(rng, 0, max_order=2, terms=1)
                              for j in range(rng.randint(1, 4))})
            assert adjoint(adjoint(D)) == D

    def test_adjoint_antimultiplicative_random(self, rng):
        for _ in range(12):
            A = DiffOperator({j: rand_density(rng, 0, max_order=2, terms=1)
                              for j in range(rng.randint(1, 3))})
            B = DiffOperator({j: rand_density(rng, 0, max_order=2, terms=1)
                              for j in range(rng.randint(1, 3))})
            assert adjoint(A.compose(B)) == adjoint(B).compose(adjoint(A))

    def test_compose_is_application(self, rng):
        for _ in range(10):
            A = DiffOperator({j: rand_density(rng, 0, terms=1) for j in range(2)})
            B = DiffOperator({j: rand_density(rng, 0, terms=1) for j in range(3)})
            f = rand_density(rng, 0)
            assert A.compose(B).apply(f) == A.apply(B.apply(f))

    def test_rejects_odd_coefficients(self):
        with pytest.raises(AlgebraError):
            DiffOperator({1: th})

    def test_rejects_mixed_coefficients(self):
        with pytest.raises(AlgebraError, match="free of odd coordinates"):
            DiffOperator({0: u + th})

    def test_addition_with_numbers_and_foreign_operands(self):
        D = DiffOperator.d(1)
        assert 1 + D == D + 1 == DiffOperator({1: 1, 0: 1})
        assert Fraction(1, 2) + D - Fraction(1, 2) == D
        for bad in (lambda: D + 1.5, lambda: D + u, lambda: 1.5 + D, lambda: u + D,
                    lambda: D - u, lambda: D + None):
            with pytest.raises(TypeError):
                bad()

    def test_rejects_negative_orders(self):
        with pytest.raises(AlgebraError, match="nonnegative"):
            DiffOperator.d(-1)
        with pytest.raises(AlgebraError, match="nonnegative"):
            DiffOperator({1: u, -2: u1})



def _polynomial(p):
    """No exponent of p is negative (only u_1 may carry one)."""
    return all(e > 0 for (even, _odd) in p.terms for _co, e in even)


class TestPolynomialSubring:
    """The polynomials are a subring closed under every operation, so one
    ring with u_1 inverted serves polynomial and Laurent inputs alike."""

    @given(densities(laurent=False), densities(laurent=False))
    def test_operations_never_invert_u1(self, a, b):
        outs = [a * b, b * a]
        outs += [a.dx(n) for n in range(4)]
        for k in range(6):
            outs += [a.partial_u(k), a.partial_theta(k)]
        for level in range(3):
            outs += [higher_variational_u(a, level=level),
                     higher_variational_theta(a, level=level)]
        outs.append(normalize_N(a))
        A, B = canonical_class(a), canonical_class(b)
        outs += [A.rep, B.rep, schouten_bracket(A, B).rep]
        assert all(_polynomial(p) for p in [a, b])
        for p in outs:
            assert _polynomial(p), p
