from fractions import Fraction

import pytest

from jetbrackets import (
    AlgebraError,
    DiffOperator,
    Pencil,
    SuperPolynomial as SP,
    are_compatible,
    canonical_class,
    differential_dH,
    hydrodynamic_bivector,
    is_hamiltonian,
    operator_to_bivector,
    poisson_bracket_functionals,
    schouten_bracket,
    vf_from_density,
)
from jetbrackets.algebra import SkewnessError
from conftest import rand_density


u = SP.u(0)
u1 = SP.u(1)
th = SP.theta(0)
th1 = SP.theta(1)

P_OP = DiffOperator.d(1)
Q_OP = DiffOperator({1: u, 0: u1 / 2})
P = operator_to_bivector(P_OP)
Q = operator_to_bivector(Q_OP)


def sgn(e):
    return 1 if e % 2 == 0 else -1


class TestBracketBasics:
    def test_pencil_brackets_vanish(self):
        assert schouten_bracket(P, P).is_zero()
        assert schouten_bracket(P, Q).is_zero()
        assert schouten_bracket(Q, Q).is_zero()

    def test_translation_field_is_p_invariant(self):
        X = canonical_class(u1 * th)
        assert schouten_bracket(P, X).is_zero()

    def test_degree_bookkeeping(self, rng):
        # the bracket sends V^{k1} x V^{k2} to V^{k1+k2-1} and adds the
        # homogeneity degrees (the <l>-containment in shifted grading)
        from conftest import rand_homogeneous
        for _ in range(25):
            ka, kb = rng.randint(1, 3), rng.randint(1, 3)
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            a = canonical_class(rand_homogeneous(rng, ka, da))
            b = canonical_class(rand_homogeneous(rng, kb, db))
            res = schouten_bracket(a, b)
            if res.is_zero():
                continue
            assert res.theta_degree == ka + kb - 1
            assert res.homogeneity() == da + db

    def test_antisymmetry_random(self, rng):
        for _ in range(40):
            ka, kb = rng.randint(0, 3), rng.randint(0, 3)
            a = canonical_class(rand_density(rng, ka))
            b = canonical_class(rand_density(rng, kb))
            assert schouten_bracket(a, b) == \
                schouten_bracket(b, a).scale(-sgn((ka - 1) * (kb - 1)))

    def test_graded_jacobi_random(self, rng):
        for _ in range(40):
            ka, kb = rng.randint(1, 3), rng.randint(1, 3)
            kc = rng.randint(0, 2)
            a = canonical_class(rand_density(rng, ka))
            b = canonical_class(rand_density(rng, kb))
            c = canonical_class(rand_density(rng, kc))
            lhs = schouten_bracket(a, schouten_bracket(b, c))
            rhs = schouten_bracket(schouten_bracket(a, b), c) + \
                schouten_bracket(b, schouten_bracket(a, c)).scale(sgn((ka - 1) * (kb - 1)))
            assert lhs == rhs

    def test_polynomial_and_laurent_classes_bracket(self):
        # a polynomial P and a Laurent a need no conversion; the bracket is
        # graded skew, [[P, a]] = -[[a, P]] for a vector field a
        a = canonical_class(SP.u(1, power=-1) * th)
        Pa = schouten_bracket(P, a)
        assert Pa == canonical_class(SP.u(1, power=-3) * SP.u(2) * th * th1 * (-2))
        assert Pa == schouten_bracket(a, P).scale(-1)


class TestDifferentials:
    def test_dq_of_linear_field(self):
        # d_Q int(h theta) = int (u h' - h/2) theta theta_1 for h = u: Q itself
        got = differential_dH(Q, canonical_class(u * th))
        assert got == canonical_class(u * th * th1 / 2)
        # and for h = 1 the value is -(1/2) theta theta_1
        got1 = differential_dH(Q, canonical_class(th))
        assert got1 == canonical_class(-(th * th1) / 2)

    def test_dp_of_functional(self):
        got = differential_dH(P, canonical_class(u * u / 2))
        assert vf_from_density(got.rep).chars[0] == u1

    def test_dp_of_translation(self):
        assert differential_dH(P, canonical_class(u1 * th)).is_zero()

    def test_squares_vanish_on_pencil_members(self, rng):
        pencil = Pencil.make(P, Q)
        for lam in (1, -2, Fraction(5, 3)):
            H = pencil.member(lam)
            for _ in range(8):
                a = canonical_class(rand_density(rng, rng.randint(0, 2)))
                assert differential_dH(H, differential_dH(H, a)).is_zero()

    def test_dp_dq_anticommute(self, rng):
        pencil = Pencil.make(P, Q)
        for _ in range(25):
            a = canonical_class(rand_density(rng, rng.randint(0, 2)))
            lhs = pencil.d_P(pencil.d_Q(a))
            rhs = pencil.d_Q(pencil.d_P(a)).scale(-1)
            assert lhs == rhs


class TestHamiltonianCertificates:
    def test_constant_third_order(self):
        assert is_hamiltonian(operator_to_bivector(DiffOperator.d(3)))

    def test_pencil_pair(self):
        assert is_hamiltonian(Q)
        assert are_compatible(P, Q)

    def test_zero_operator_is_hamiltonian_and_compatible(self):
        # the zero operator's bivector is the zero class, of theta-degree 0
        Z = operator_to_bivector(DiffOperator({}))
        assert Z.is_zero() and Z.theta_degree == 0
        assert is_hamiltonian(Z)
        assert are_compatible(Z, P) and are_compatible(Q, Z) and are_compatible(Z, Z)
        with pytest.raises(AlgebraError, match="property of bivectors"):
            is_hamiltonian(canonical_class(u * th))
        with pytest.raises(AlgebraError, match="property of bivectors"):
            are_compatible(Z, canonical_class(u * th))

    def test_non_skew_rejected_upfront(self):
        with pytest.raises(SkewnessError):
            operator_to_bivector(DiffOperator({1: u, 0: u1}))

    def test_hamcond_equivalence_finite_sample(self, rng):
        # [[D,D]] = 0 iff Jacobi of {.,.}_D on cubic functionals
        # iff d_D d_D = 0 on a basket of multivectors
        functionals = [canonical_class(u ** 3 / 6), canonical_class(u * u1 * u1),
                       canonical_class(u ** 2 * Fraction(1, 3))]
        basket = [canonical_class(u * th), canonical_class(u1 * th * th1),
                  canonical_class(u ** 2)]
        candidates = [
            operator_to_bivector(DiffOperator.d(1)),
            operator_to_bivector(Q_OP),
            operator_to_bivector(DiffOperator({3: u, 2: Fraction(3, 2) * u1,
                                               1: SP.u(2) / 2})),
        ]
        for _ in range(2):
            A = DiffOperator({j: rand_density(rng, 0, max_order=1, terms=1)
                              for j in range(rng.randint(1, 3))})
            D = A - A.adjoint()
            if not D.is_zero() and D.order() <= 3:
                candidates.append(operator_to_bivector(D))
        for B in candidates:
            ham = schouten_bracket(B, B).is_zero()
            D = None
            from jetbrackets import bivector_to_operator
            D = bivector_to_operator(B)
            jac = True
            for F in functionals:
                for G in functionals:
                    for H in functionals:
                        t = poisson_bracket_functionals(
                            poisson_bracket_functionals(F, G, D), H, D) + \
                            poisson_bracket_functionals(
                                poisson_bracket_functionals(G, H, D), F, D) + \
                            poisson_bracket_functionals(
                                poisson_bracket_functionals(H, F, D), G, D)
                        jac = jac and t.is_zero()
            dd = all(differential_dH(B, differential_dH(B, a)).is_zero()
                     for a in basket)
            assert ham == jac == dd


class TestPoissonBracketFunctionals:
    def test_hierarchy_involution_seed(self):
        H0 = canonical_class(u ** 2 * Fraction(1, 3))
        H1 = canonical_class(u ** 3 / 6)
        assert poisson_bracket_functionals(H0, H1, P_OP).is_zero()

    def test_casimir(self, rng):
        Hm1 = canonical_class(u * Fraction(4, 3))
        for _ in range(10):
            F = canonical_class(rand_density(rng, 0, max_order=3))
            assert poisson_bracket_functionals(Hm1, F, P_OP).is_zero()

    def test_antisymmetry_diagonal(self):
        F = canonical_class(u * u / 2)
        assert poisson_bracket_functionals(F, F, Q_OP).is_zero()

    def test_antisymmetry_random(self, rng):
        for _ in range(10):
            F = canonical_class(rand_density(rng, 0, max_order=2))
            G = canonical_class(rand_density(rng, 0, max_order=2))
            lhs = poisson_bracket_functionals(F, G, Q_OP)
            rhs = poisson_bracket_functionals(G, F, Q_OP)
            assert lhs == rhs.scale(-1)


class TestHydrodynamic:
    def test_constant_metric(self):
        B, op = hydrodynamic_bivector(1)
        assert op == DiffOperator.d(1)
        assert B == P

    def test_linear_metric(self):
        B, op = hydrodynamic_bivector(u)
        assert op == Q_OP
        assert B == Q

    def test_degenerate(self):
        with pytest.raises(AlgebraError):
            hydrodynamic_bivector(0)

    def test_mixed_entry_rejected(self):
        with pytest.raises(AlgebraError, match="depend on u only"):
            hydrodynamic_bivector(u + th)

    def test_quadratic_metric_is_hamiltonian(self):
        B, op = hydrodynamic_bivector(u * u)
        assert op == DiffOperator({1: u * u, 0: u * u1})
        assert is_hamiltonian(B)

    def test_hat_coefficient_gives_hat_pair(self):
        B, op = hydrodynamic_bivector(SP.u(0))
        assert op == DiffOperator({1: SP.u(0), 0: SP.u(1) / 2})
        assert B == Q
