from fractions import Fraction

import pytest

from jetbrackets import (
    AlgebraError,
    Cochain,
    DiffOperator,
    EpsilonDeformation,
    GradedSlice,
    MCViolation,
    MultiVector,
    NoSolution,
    Pencil,
    SuperPolynomial as SP,
    bicomplex_d,
    biham_obstruction,
    canonical_class,
    homogenize,
    is_cocycle,
    mc_residual,
    miura_push,
    obstruction,
    operator_to_bivector,
    primitive_solve,
    reduce_to_tail,
    schouten_bracket,
)
from conftest import rand_density


u = SP.u(0)
u1 = SP.u(1)
th = SP.theta(0)

P = operator_to_bivector(DiffOperator.d(1))
Q = operator_to_bivector(DiffOperator({1: u, 0: u1 / 2}))
B3 = operator_to_bivector(DiffOperator({3: SP.const(Fraction(3, 2))}))
PENCIL = Pencil.make(P, Q)
ZERO_BIV = MultiVector(SP.zero(), 2)


class TestMCResidual:
    def test_undeformed(self):
        D = EpsilonDeformation(P, [], truncation=3)
        assert all(r.is_zero() for r in mc_residual(D))

    def test_kdv_second_structure(self):
        D = EpsilonDeformation(Q, [ZERO_BIV, B3], truncation=2)
        assert all(r.is_zero() for r in mc_residual(D, 4))

    def test_compatible_pair_as_deformation(self):
        D = EpsilonDeformation(P, [Q], truncation=1)
        assert all(r.is_zero() for r in mc_residual(D, 2))

    def test_nonzero_residual_detected(self):
        bad = canonical_class(u * u * th * SP.theta(3))
        D = EpsilonDeformation(P, [bad], truncation=1)
        res = mc_residual(D, 2)
        assert not res[0].is_zero()


class TestObstruction:
    def test_constant_coefficient_first_obstruction(self):
        D = EpsilonDeformation(Q, [B3], truncation=1)
        assert obstruction(D, 1).is_zero()

    def test_trivial_infinitesimal_obstruction_closed(self, rng):
        X = canonical_class(rand_density(rng, 1, max_order=2))
        H1 = schouten_bracket(P, X)
        D = EpsilonDeformation(P, [H1], truncation=1)
        ob = obstruction(D, 1)  # closure is asserted internally
        assert ob == schouten_bracket(H1, H1)

    def test_kdv_order_two_extension(self):
        D = EpsilonDeformation(Q, [B3], truncation=1)
        assert obstruction(D, 1).is_zero()  # so H_2 = 0 extends

    def test_mc_violation_raises(self):
        bad = canonical_class(u * u * th * SP.theta(3))
        D = EpsilonDeformation(P, [bad], truncation=1)
        with pytest.raises(MCViolation):
            obstruction(D, 1)

    def test_first_obstruction_can_be_nonzero(self):
        # class(u theta theta_3) is an infinitesimal deformation of P with
        # nonvanishing self-bracket
        H1 = canonical_class(u * th * SP.theta(3))
        D = EpsilonDeformation(P, [H1], truncation=1)
        assert all(r.is_zero() for r in mc_residual(D, 1))
        assert not obstruction(D, 1).is_zero()


class TestBicomplex:
    def test_matrix_form_on_vector_field(self, rng):
        a = canonical_class(rand_density(rng, 1, max_order=2))
        d = bicomplex_d(Cochain([a]), PENCIL)
        assert d[0] == PENCIL.d_P(a)
        assert d[1] == PENCIL.d_Q(a)

    def test_d_squared_zero(self, rng):
        for _ in range(10):
            a = canonical_class(rand_density(rng, rng.randint(0, 2), max_order=2))
            dd = bicomplex_d(bicomplex_d(Cochain([a]), PENCIL), PENCIL)
            assert dd.is_zero()

    def test_kdv_pair_is_closed(self):
        assert bicomplex_d(Cochain([ZERO_BIV, B3]), PENCIL).is_zero()


class TestBihamObstruction:
    def test_kdv_pair(self):
        P1 = EpsilonDeformation(P, [ZERO_BIV], 1)
        Q1 = EpsilonDeformation(Q, [B3], 1)
        triple = biham_obstruction(P1, Q1, PENCIL)
        assert triple.is_zero()

    def test_coboundary_pair(self, rng):
        a = canonical_class(rand_density(rng, 1, max_order=2))
        P1 = EpsilonDeformation(P, [PENCIL.d_P(a)], 1)
        Q1 = EpsilonDeformation(Q, [PENCIL.d_Q(a)], 1)
        triple = biham_obstruction(P1, Q1, PENCIL)  # closure asserted inside
        assert is_cocycle(triple, PENCIL)

    def test_zero_pair(self):
        P1 = EpsilonDeformation(P, [ZERO_BIV], 1)
        Q1 = EpsilonDeformation(Q, [ZERO_BIV], 1)
        assert biham_obstruction(P1, Q1, PENCIL).is_zero()

    def test_incompatible_pair_rejected(self):
        P1 = EpsilonDeformation(P, [canonical_class(u * u * th * SP.theta(3))], 1)
        Q1 = EpsilonDeformation(Q, [ZERO_BIV], 1)
        with pytest.raises(MCViolation):
            biham_obstruction(P1, Q1, PENCIL)


class TestMiura:
    def test_translation_fixes_p(self):
        D = EpsilonDeformation(P, [], 2)
        X = canonical_class(u1 * th)
        assert miura_push(D, X, 1, 2) == D

    def test_round_trip(self, rng):
        D = EpsilonDeformation(Q, [ZERO_BIV, B3], 2)
        X = canonical_class(rand_density(rng, 1, max_order=2))
        back = miura_push(miura_push(D, X, 1, 3), X.scale(-1), 1, 3)
        assert back == EpsilonDeformation(Q, [ZERO_BIV, B3], 3)

    def test_first_order_coefficient(self, rng):
        X = canonical_class(rand_density(rng, 1, max_order=2))
        D = EpsilonDeformation(P, [], 1)
        pushed = miura_push(D, X, 1, 1)
        assert pushed.term(1) == schouten_bracket(X, P).scale(-1)

    def test_mc_preserved(self, rng):
        for _ in range(5):
            X = canonical_class(rand_density(rng, 1, max_order=2))
            D = EpsilonDeformation(Q, [ZERO_BIV, B3], 2)
            pushed = miura_push(D, X, 1, 3)
            assert all(r.is_zero() for r in mc_residual(pushed, 3))

    def test_quasi_miura_allows_hat(self):
        X = canonical_class(SP.u(1, power=-1, hat=True) * SP.theta(0, hat=True))
        D = EpsilonDeformation(P, [], 1)
        pushed = miura_push(D, X, 1, 1)
        assert pushed.base.hat


class TestPrimitiveSolve:
    def test_construct_then_solve(self):
        F = canonical_class(u ** 3 / 6)
        c = PENCIL.d_P(F)
        y = primitive_solve(c, P, GradedSlice(max_order=2, max_udeg=4))
        assert PENCIL.d_P(y) == c

    def test_kernel_functionals(self):
        assert PENCIL.d_P(canonical_class(SP.const(1))).is_zero()
        assert PENCIL.d_P(canonical_class(u)).is_zero()
        z = primitive_solve(MultiVector(SP.zero(), 1), P,
                            GradedSlice(max_order=2, max_udeg=2))
        assert z.is_zero()

    def test_boundary_class_has_no_primitive(self):
        # int theta dx spans the degree-0 boundary group of d_P
        c = canonical_class(th)
        assert PENCIL.d_P(c).is_zero()
        with pytest.raises(NoSolution):
            primitive_solve(c, P, GradedSlice(max_order=3, max_udeg=4),
                            max_grows=1)

    def test_theta_theta1_is_exact(self):
        c = canonical_class(th * SP.theta(1))
        y = primitive_solve(c, P, GradedSlice(max_order=2, max_udeg=2))
        assert PENCIL.d_P(y) == c
        assert y == canonical_class(u * th)

    def test_non_cocycle_rejected(self):
        c = canonical_class(u * th * SP.theta(1))
        if not schouten_bracket(Q, c).is_zero():
            with pytest.raises(AlgebraError):
                primitive_solve(c, Q, GradedSlice(max_order=2, max_udeg=2))

    def test_solve_against_q(self, rng):
        F = canonical_class(u ** 3 / 6)
        c = PENCIL.d_Q(F)
        y = primitive_solve(c, Q, GradedSlice(max_order=2, max_udeg=4))
        assert PENCIL.d_Q(y) == c

    def test_alternating_differentials_on_one_slice(self):
        # the last slice system is memoized; a solve against Q right after
        # one against P on the same slice and grading must not reuse P's images
        c1 = PENCIL.d_Q(PENCIL.d_P(canonical_class(u * u1 * SP.u(2))))
        sl = GradedSlice(max_order=3, max_udeg=4)
        for H, d_H in ((P, PENCIL.d_P), (Q, PENCIL.d_Q), (P, PENCIL.d_P)):
            assert d_H(primitive_solve(c1, H, sl)) == c1


class TestReduceToTail:
    def test_coboundary_reduces_to_trivial_tail(self, rng):
        # the leading entry clears; the solver may differ from a by the
        # d_P-kernel, so the tail is d_Q(kernel) - cohomologous to zero,
        # certified here by producing an explicit trivializing witness
        from conftest import rand_homogeneous
        from jetbrackets import quasi_trivialize, EvolutionaryVF
        for _ in range(2):
            a = canonical_class(rand_homogeneous(rng, 1, rng.randint(1, 2)))
            cb = bicomplex_d(Cochain([a]), PENCIL)
            tail, chain = reduce_to_tail(cb, PENCIL,
                                         GradedSlice(max_order=4, max_udeg=5))
            assert tail[0].is_zero()
            assert cb[0] - tail[0] == PENCIL.d_P(chain[0])
            assert cb[1] - tail[1] == PENCIL.d_Q(chain[0])
            if not tail[1].is_zero():
                w = quasi_trivialize(tail[1])
                assert isinstance(w, EvolutionaryVF)

    def test_already_tail_form_unchanged(self):
        c1 = canonical_class(u * SP.theta(1) * SP.theta(2))
        c = Cochain([MultiVector(SP.zero(), 2), c1])
        tail, chain = reduce_to_tail(c, PENCIL, GradedSlice(max_order=3, max_udeg=3))
        assert tail == c and chain[0].is_zero()

    def test_difference_is_coboundary_of_chain(self, rng):
        from conftest import rand_homogeneous
        a = canonical_class(rand_homogeneous(rng, 1, 2))
        c = bicomplex_d(Cochain([a]), PENCIL)
        tail, chain = reduce_to_tail(c, PENCIL, GradedSlice(max_order=4, max_udeg=5))
        a0 = chain[0]
        assert a0 is not None
        assert c[0] - tail[0] == PENCIL.d_P(a0)
        assert c[1] - tail[1] == PENCIL.d_Q(a0)


class TestGradedSlice:
    def test_enumeration_respects_bounds(self):
        from jetbrackets import enumerate_basis
        sl = GradedSlice(max_order=4, max_udeg=2, laurent_depth=2)
        basis = enumerate_basis(sl, 2, 3, 1, True)
        assert basis
        for b in basis:
            assert b.degree() == 3
            assert b.theta_degree() == 2
            assert b.order() <= 4
            assert b.max_u_power() <= 2
            layers = b.coefficient_layers(1)
            assert min(layers) >= -2

    def test_enumeration_is_complete_for_small_slice(self):
        # brute-force count of theta-free degree-2 monomials with
        # u-power <= 1 and order <= 2: u_2, u u_2, u_1^2, u u_1^2
        from jetbrackets import enumerate_basis
        sl = GradedSlice(max_order=2, max_udeg=1)
        basis = enumerate_basis(sl, 0, 2, 1, False)
        got = sorted(str(b) for b in basis)
        assert got == sorted(["u_2", "u*u_2", "u_1^2", "u*u_1^2"])

    def test_enumeration_distinct(self):
        from jetbrackets import enumerate_basis
        sl = GradedSlice(max_order=3, max_udeg=2, laurent_depth=1)
        basis = enumerate_basis(sl, 1, 2, 1, True)
        keys = [next(iter(b.terms)) for b in basis]
        assert len(keys) == len(set(keys))


class TestHomogenize:
    def test_already_homogeneous_unchanged(self):
        # the KdV family is graded with the eps^k term of degree k + 1
        D = EpsilonDeformation(Q, [ZERO_BIV, B3], 2)
        H = homogenize(D, 1, GradedSlice(max_order=4, max_udeg=4))
        assert H == D

    def test_stray_term_removed(self):
        # degree-4 stray in the eps^2 slot of a p = 1 deformation
        Z = canonical_class(u1 ** 3 * th)
        stray = PENCIL.d_Q(Z)
        assert not stray.is_zero() and stray.homogeneity() == 4
        D = EpsilonDeformation(Q, [ZERO_BIV, B3 + stray], 2)
        H = homogenize(D, 1, GradedSlice(max_order=4, max_udeg=4))
        comps = H.term(2).rep.homogeneous_components()
        assert list(comps) == [3]
        assert H.term(2) == B3

    def test_inhomogeneous_first_correction_rejected(self):
        bad = B3 + operator_to_bivector(DiffOperator({1: u ** 3,
                                                      0: (u ** 3).total_derivative() / 2}))
        D = EpsilonDeformation(Q, [bad], 1)
        with pytest.raises(AlgebraError):
            homogenize(D, 1, GradedSlice(max_order=3, max_udeg=3))
