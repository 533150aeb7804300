from fractions import Fraction

import pytest

from jetbrackets import (
    AlgebraError,
    Cochain,
    DiffOperator,
    EpsilonDeformation,
    EvolutionaryVF,
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
    vf_from_density,
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

    def test_sparse_series_matches_every_pair(self):
        # the residual brackets only nonzero corrections; the sum over every
        # pair, zero ones included, is the definition
        H1 = canonical_class(u * th * SP.theta(3))
        bad = canonical_class(u * u * th * SP.theta(3))
        D = EpsilonDeformation(P, [H1, ZERO_BIV, bad, B3, ZERO_BIV, Q], truncation=7)
        res = mc_residual(D, 9)
        assert len(res) == 9 and sum(not r.is_zero() for r in res) >= 3
        for k, r in enumerate(res, 1):
            inner = MultiVector(SP.zero(), 3)
            for i in range(1, k):
                inner = inner + schouten_bracket(D.term(i), D.term(k - i))
            assert r == schouten_bracket(P, D.term(k)) + inner.scale(Fraction(1, 2))


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

    def test_sparse_series_matches_every_pair(self):
        # orders 1 and 3 carry Q and a d_P-cocycle, order 2 is zero: an
        # order-3 deformation of P whose obstruction sums [[H_1, H_3]] and
        # [[H_3, H_1]] and skips every pair with H_2
        H3 = canonical_class(u * th * SP.theta(3))
        D = EpsilonDeformation(P, [Q, ZERO_BIV, H3], truncation=3)
        ob = obstruction(D, 3)
        assert not ob.is_zero()
        want = MultiVector(SP.zero(), 3)
        for i in range(1, 4):
            want = want + schouten_bracket(D.term(i), D.term(4 - i))
        assert ob == want


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


class TestTruncation:
    def test_corrections_beyond_truncation_rejected(self):
        # eps^2 Q cannot survive a truncation at eps^1
        with pytest.raises(AlgebraError, match="exceed the truncation"):
            EpsilonDeformation(P, [Q, Q], 1)

    def test_negative_truncation_rejected(self):
        with pytest.raises(AlgebraError, match="truncation must be at least 0"):
            EpsilonDeformation(P, [], -1)

    def test_terms_beyond_truncation_are_zero(self):
        D = EpsilonDeformation(P, [Q], 3)
        assert D.term(1) == Q
        assert all(D.term(k).is_zero() for k in (2, 3, 4))


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
        X = canonical_class(SP.u(1, power=-1) * SP.theta(0))
        D = EpsilonDeformation(P, [], 1)
        pushed = miura_push(D, X, 1, 1)
        assert pushed.term(1) == canonical_class(
            SP.u(1, power=-3) * SP.u(2) * th * SP.theta(1) * (-2))

    @pytest.mark.parametrize("make", [
        lambda: canonical_class(SP.zero()),
        lambda: canonical_class(u1 - u1),
        lambda: EvolutionaryVF(SP.zero()),
        lambda: vf_from_density(SP.zero()),
    ], ids=["zero-class", "cancelled-class", "zero-field", "field-of-zero-density"])
    def test_zero_generator_is_the_identity(self, make):
        # exp(0) = 1: canonical_class(0) has theta-degree 0, yet it is the
        # zero vector field
        X = make()
        D = EpsilonDeformation(Q, [ZERO_BIV, B3], 2)
        assert miura_push(D, X, 1, 3) == D
        assert miura_push(D, X, 1, 3).truncation == 3

    @pytest.mark.parametrize("weight", [0, -1])
    def test_nonpositive_weight_rejected(self, weight):
        # the series loop steps by the weight, so weight <= 0 never ends
        D = EpsilonDeformation(P, [], 1)
        with pytest.raises(AlgebraError, match="weight"):
            miura_push(D, canonical_class(u1 * th), weight, 1)

    def test_negative_truncation_rejected(self):
        D = EpsilonDeformation(P, [], 1)
        with pytest.raises(AlgebraError, match="truncation must be at least 0"):
            miura_push(D, canonical_class(u1 * th), 1, -1)


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

    def test_no_solution_names_the_last_slice_tried(self):
        # u^3 theta theta_1 = d_P(int u^4/4 theta dx) needs u^4: beyond udeg 1
        c = canonical_class(u ** 3 * th * SP.theta(1))
        with pytest.raises(NoSolution, match=r"up to GradedSlice\(max_order=2, max_udeg=1,"):
            primitive_solve(c, P, GradedSlice(2, 1), max_grows=0)
        assert primitive_solve(c, P, GradedSlice(2, 1), max_grows=1) == canonical_class(u ** 4 * th / 4)
        # int theta dx has no primitive: one growth of (3, 4) is (5, 10)
        with pytest.raises(NoSolution, match=r"up to GradedSlice\(max_order=5, max_udeg=10,"):
            primitive_solve(canonical_class(th), P, GradedSlice(3, 4), max_grows=1)

    def test_negative_max_grows_rejected(self):
        # no slice would be tried, and NoSolution would name one never searched
        c = canonical_class(u ** 3 * th * SP.theta(1))
        with pytest.raises(AlgebraError, match="max_grows must be at least 0, got -1"):
            primitive_solve(c, P, GradedSlice(3, 2), max_grows=-1)
        assert PENCIL.d_P(primitive_solve(c, P, GradedSlice(3, 4), max_grows=0)) == c

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

    def test_hat_cocycle_with_polynomial_structure(self):
        # a Laurent cocycle against the polynomial P: the slice's Laurent
        # depth admits the u_1^-1 primitive
        a = canonical_class(SP.u(2) * SP.u(1, power=-1) * th)
        c = PENCIL.d_P(a)
        assert min(c.rep.coefficient_layers(1)) < 0
        y = primitive_solve(c, P, GradedSlice(3, 2, 2))
        assert min(y.rep.coefficient_layers(1)) < 0 and PENCIL.d_P(y) == c

    def test_theta_degree_zero_class_rejected(self):
        # int u dx is d_P-closed, but a primitive would have theta-degree -1
        c = canonical_class(u)
        assert PENCIL.d_P(c).is_zero()
        with pytest.raises(AlgebraError, match="theta-degree at least 1, got 0"):
            primitive_solve(c, P, GradedSlice())

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
        basis = enumerate_basis(sl, 2, 3)
        assert basis
        for b in basis:
            assert b.degree() == 3
            assert b.theta_degree() == 2
            assert b.order() <= 4
            assert b.max_u_power() <= 2
            layers = b.coefficient_layers(1)
            assert min(layers) >= -2
        # the Laurent depth alone admits u_1^-1: there is no separate mode
        assert min(min(b.coefficient_layers(1)) for b in basis) == -2

    def test_enumeration_is_complete_for_small_slice(self):
        # brute-force count of theta-free degree-2 monomials with
        # u-power <= 1 and order <= 2: u_2, u u_2, u_1^2, u u_1^2
        from jetbrackets import enumerate_basis
        sl = GradedSlice(max_order=2, max_udeg=1)
        basis = enumerate_basis(sl, 0, 2)
        got = sorted(str(b) for b in basis)
        assert got == sorted(["u_2", "u*u_2", "u_1^2", "u*u_1^2"])

    def test_negative_theta_degree_rejected(self):
        from jetbrackets import enumerate_basis
        with pytest.raises(AlgebraError, match="got -1"):
            enumerate_basis(GradedSlice(), -1, 3)

    @pytest.mark.parametrize("fields", [(-1, 2, 0), (2, -1, 0), (2, 2, -1)])
    def test_negative_fields_rejected(self, fields):
        # GradedSlice(2, 2, -1) enumerated monomials all forced to carry u_1
        name = ("max_order", "max_udeg", "laurent_depth")[fields.index(-1)]
        with pytest.raises(AlgebraError, match=f"{name} must be at least 0, got -1"):
            GradedSlice(*fields)
        GradedSlice(0, 0, 0).grown()

    def test_enumeration_distinct(self):
        from jetbrackets import enumerate_basis
        sl = GradedSlice(max_order=3, max_udeg=2, laurent_depth=1)
        basis = enumerate_basis(sl, 1, 2)
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
