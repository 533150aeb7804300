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
from jetbrackets import variational
from jetbrackets.variational import MultiVector, _make_class
from conftest import (
    assert_same,
    densities,
    rand_density,
    ref_dx,
    ref_partial_theta,
    ref_partial_u,
    ref_total_derivative,
)


@st.composite
def skew_operators(draw):
    """A random skew-adjoint operator A - A^* of order <= 3, Laurent
    coefficients included."""
    coeff = densities(max_theta_degree=0, laurent=draw(st.booleans()))
    A = DiffOperator({j: draw(coeff) for j in range(draw(st.integers(0, 4)))})
    return A - A.adjoint()


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
        w = SP.u(2) * SP.u(1, power=-1)
        assert variational_derivative(w).is_zero()

    def test_higher_level_example(self):
        assert variational_derivative(u1 * u1 / 2, level=1) == u1

    def test_delta_kills_d_randomized(self, rng):
        for _ in range(30):
            a = rand_density(rng, rng.randint(0, 2), max_order=5, laurent=1)
            d = a.total_derivative()
            assert higher_variational_u(d).is_zero()
            assert higher_variational_theta(d).is_zero()

    def test_reconstruction_identity(self, rng):
        # partial_{theta_i} = sum_{j>=i} C(j,i) d^{j-i} delta_{j,theta}
        for _ in range(15):
            a = rand_density(rng, rng.randint(1, 3), max_order=3)
            for i in range(0, 4):
                acc = SP.zero()
                for j in range(i, a.order() + 1):
                    t = higher_variational_theta(a, level=j)
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
        for laurent in (0, 1):
            for _ in range(15):
                k = rng.randint(1, 3)
                F = rand_density(rng, k, max_order=4, laurent=laurent)
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
        w = SP.u(2) * SP.u(1, power=-1)
        with pytest.raises(NotExact) as err:
            integrate_x(w)
        assert err.value.residue == w

    def test_laurent_exact(self):
        # u_2 u_1^{-2} = d(-u_1^{-1})
        w = SP.u(2) * SP.u(1, power=-2)
        assert integrate_x(w).total_derivative() == w

    def test_witness_on_random_exact_densities(self, rng):
        for _ in range(30):
            g = rand_density(rng, rng.randint(0, 3), max_order=3, laurent=1)
            d = g.total_derivative()
            w = integrate_x(d)
            assert w.total_derivative() == d

    def test_decompose_residue_is_class_invariant(self, rng):
        for _ in range(20):
            a = rand_density(rng, 0, max_order=3, laurent=1)
            b = rand_density(rng, 0, max_order=2, laurent=1)
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
            a = rand_density(rng, k, max_order=3, laurent=1)
            b = rand_density(rng, k, max_order=2, laurent=1)
            lhs = canonical_class(a + b.total_derivative())
            assert lhs == canonical_class(a)
            assert canonical_class(b.total_derivative()).is_zero()

    def test_mixed_theta_degree_rejected(self):
        with pytest.raises(AlgebraError):
            canonical_class(th + th * th1)


class TestPublicConstructor:
    def test_an_exact_density_gives_the_zero_class(self):
        # u_1 theta + u theta_1 = d(u theta)
        c = MultiVector(u1 * th + u * th1, 1)
        assert c.is_zero()
        assert c == canonical_class(u1 * th + u * th1)
        assert c.theta_degree == 1

    def test_the_representative_is_canonical(self):
        c = MultiVector(u * th1 * th2, 2)
        assert c.rep == canonical_class(u * th1 * th2).rep
        assert c.rep != u * th1 * th2

    @given(densities(), densities(), st.booleans(), st.integers(0, 3))
    def test_the_canonical_class_or_refused(self, a, b, mixed, k):
        if mixed:
            a = a + b
        try:
            c = MultiVector(a, k)
        except AlgebraError:
            assert a and a.theta_degree() != k
            return
        assert c == canonical_class(a)
        assert c.theta_degree == k
        assert c.is_zero() or c.rep.theta_degree() == k

    def test_a_zero_class_takes_no_derivative(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a zero class was differentiated")

        monkeypatch.setattr(variational, "_variational", refuse)
        monkeypatch.setattr(variational, "_theta_pass", refuse)
        monkeypatch.setattr(variational, "_integrate", refuse)
        for k in range(4):
            z = MultiVector(SP(), k)
            assert z.is_zero() and z.theta_degree == k


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

    def test_mixed_characteristic_rejected(self):
        from jetbrackets import EvolutionaryVF
        with pytest.raises(AlgebraError, match="characteristics must be even"):
            EvolutionaryVF(u + th)

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
            D = bivector_to_operator(B)
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
            assert bivector_to_operator(operator_to_bivector(D)) == D

    def test_zero_operator_round_trip(self):
        # the zero operator's bivector is the zero class of theta-degree 0,
        # and every zero class, of any theta-degree, reads back as it
        B = operator_to_bivector(DiffOperator.zero())
        assert B.is_zero() and B.theta_degree == 0
        for k in (0, 1, 2, 3):
            assert bivector_to_operator(MultiVector(SP(), k)) == DiffOperator.zero()
        assert bivector_to_operator(B) == DiffOperator.zero()

    def test_non_canonical_representative_rejected(self):
        with pytest.raises(AlgebraError):
            # past the public constructor, which would store the canonical rep
            bivector_to_operator(_make_class(u * th1 * th2, 2))

    @given(skew_operators())
    def test_round_trip_from_random_skew_operator(self, D):
        assert D.is_skew_adjoint()
        assert bivector_to_operator(operator_to_bivector(D)) == D

    @given(densities(min_theta_degree=2, max_theta_degree=2))
    def test_round_trip_from_random_class(self, a):
        B = canonical_class(a)
        D = bivector_to_operator(B)
        assert isinstance(D, DiffOperator)
        assert operator_to_bivector(D) == B


# ---------------------------------------------------------------------------
# Differential test of the integer kernel against the Fraction formulas
# ---------------------------------------------------------------------------

def _ref_nested_alternating(pieces):
    acc = None
    for p in reversed(pieces):
        acc = p if acc is None else p - ref_total_derivative(acc)
    return acc


def _ref_delta(a, odd, level):
    """sum_j (-1)^j C(level+j, level) d^j partial_{level+j}, one Fraction
    polynomial per partial derivative, summed by Horner."""
    top = a.order() - level
    if top < 0:
        return SP.zero()
    partial = ref_partial_theta if odd else ref_partial_u
    return _ref_nested_alternating(
        [partial(a, level + j) * comb(level + j, level) for j in range(top + 1)])


def _ref_normalize_N(a):
    out = SP.zero()
    d = _ref_delta(a, True, 0)
    if d:
        out = out + SP.theta(0) * d
    return out


class TestKernelAgainstFractionFormulas:
    @given(densities())
    def test_higher_variational_derivatives(self, a):
        for level in range(4):
            assert_same(higher_variational_u(a, level=level), _ref_delta(a, False, level))
            assert_same(higher_variational_theta(a, level=level), _ref_delta(a, True, level))

    def test_negative_level_rejected(self):
        for delta in (higher_variational_u, higher_variational_theta):
            with pytest.raises(AlgebraError, match="nonnegative"):
                delta(u * u1, level=-1)

    @given(densities())
    def test_normalize_N(self, a):
        assert_same(normalize_N(a), _ref_normalize_N(a))

    @given(densities(min_theta_degree=1))
    def test_canonical_class(self, a):
        if not a:
            return
        k = a.theta_degree()
        got = canonical_class(a)
        assert got.theta_degree == k
        assert_same(got.rep, _ref_normalize_N(a) / k)

    @given(densities())
    def test_total_derivatives_are_null(self, a):
        d = a.total_derivative()
        assert higher_variational_u(d).is_zero()
        assert higher_variational_theta(d).is_zero()
        assert normalize_N(d).is_zero()

    @given(densities())
    def test_no_zero_coefficients(self, a):
        # the d(a) part cancels inside the kernel's rounds; no zero entry
        # may be left behind
        b = a + a.total_derivative() * Fraction(1, 3)
        outs = [normalize_N(b)]
        for level in range(3):
            outs.append(higher_variational_u(b, level=level))
            outs.append(higher_variational_theta(b, level=level))
        for p in outs:
            assert all(c != 0 for c in p.terms.values())


def _ref_vf_char(a):
    """The characteristic as vf_from_density built it before it called the
    kernel: sum_j (-1)^j d^j partial_{theta_j} a."""
    c = SP.zero()
    for j in range(a.order() + 1):
        f = ref_partial_theta(a, j)
        if f:
            f = ref_dx(f, j)
            c = c + (-f if j & 1 else f)
    return c


class TestVectorFieldAgainstPartialThetaLoop:
    @given(densities(min_theta_degree=1, max_theta_degree=1))
    def test_characteristics(self, a):
        if not a:
            return
        X = vf_from_density(a)
        assert len(X.chars) == 1
        assert_same(X.chars[0], _ref_vf_char(a))
