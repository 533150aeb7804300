from fractions import Fraction

import pytest

from jetbrackets import (
    AlgebraError,
    Cochain,
    CocyclePair,
    DiffOperator,
    EvolutionaryVF,
    MultiVector,
    NontrivialAtDegreeZero,
    SuperPolynomial as SP,
    binomial_identity_check,
    build_eSE,
    canonical_class,
    dkdv_pencil,
    hierarchy,
    hierarchy_flow,
    higher_variational_u,
    poisson_bracket_functionals,
    psi_check,
    psi_density,
    psi_residual,
    quasi_step,
    quasi_trivialize,
    quasi_trivialize_from_generator,
    symmetry_check,
    symmetry_space,
    verify_SE_equivalence,
)
from conftest import rand_coeff, rand_density


u = SP.u(0)
u1 = SP.u(1)
u2 = SP.u(2)
th = SP.theta(0)
uh = SP.u(0, hat=True)
u1h = SP.u(1, hat=True)
u2h = SP.u(2, hat=True)
u1inv = SP.u(1, power=-1, hat=True)

P_OP = DiffOperator.d(1)
Q_OP = DiffOperator({1: u, 0: u1 / 2})
QH_OP = DiffOperator({1: uh, 0: u1h / 2}, 1, True)


class TestPencil:
    def test_certified(self):
        pen = dkdv_pencil()
        assert pen.certified
        assert pen.P.rep == th * SP.theta(1) / 2
        assert pen.Q.rep == u * th * SP.theta(1) / 2


class TestHierarchy:
    def test_first_hamiltonians(self):
        H = hierarchy(3)
        assert H[0].rep == u * Fraction(4, 3)
        assert H[1].rep == u ** 2 / 3
        assert H[2].rep == u ** 3 / 6
        # continuation computed by running the recursion by hand:
        # (u d + u_1/2)(u^2/2) = (5/4) u^2 u_1 = d((5/12) u^3)
        assert H[3].rep == u ** 4 * Fraction(5, 48)
        assert H[4].rep == u ** 5 * Fraction(7, 96)

    def test_flow_of_h1_is_dispersionless_kdv(self):
        H = hierarchy(1)
        assert hierarchy_flow(H[2]).chars[0] == u * u1

    def test_casimir_flow_vanishes(self):
        H = hierarchy(0)
        assert hierarchy_flow(H[0]).is_zero()

    def test_recursion_relation(self):
        H = hierarchy(3)
        for n in range(1, len(H)):
            lhs = P_OP.apply(higher_variational_u(H[n].rep))
            rhs = Q_OP.apply(higher_variational_u(H[n - 1].rep))
            assert lhs == rhs

    def test_involution_both_brackets(self):
        H = hierarchy(3)
        for a in range(len(H)):
            for b in range(len(H)):
                assert poisson_bracket_functionals(H[a], H[b], P_OP).is_zero()
                assert poisson_bracket_functionals(H[a], H[b], Q_OP).is_zero()

    def test_flows_commute(self):
        flows = [hierarchy_flow(H) for H in hierarchy(3)]
        for X in flows:
            for Y in flows:
                assert X.commutator(Y).is_zero()


class TestSymmetries:
    def test_translation_and_dilations(self):
        for d in range(6):
            assert symmetry_check(EvolutionaryVF(u1 * u ** d))

    def test_constant_characteristic_is_not_a_symmetry(self):
        assert not symmetry_check(EvolutionaryVF(SP.const(1)))
        assert not symmetry_check(EvolutionaryVF(u))

    def test_degree_one_space(self):
        basis = symmetry_space(1, max_udeg=5)
        assert sorted(str(b) for b in basis) == \
            sorted(str(u1 * u ** d) for d in range(6))

    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_higher_degrees_empty(self, ell):
        assert symmetry_space(ell, max_udeg=6) == []


class TestESE:
    def test_zero_pair(self):
        z = SP.zero(1, True)
        e, S, E = build_eSE(z, z, 4)
        assert all(x.is_zero() for x in e + S + E)

    def test_n2_packing(self, rng):
        # S_0 = E_0 + 3 d^2 E_1 with E_0 = 2 e_0 - 2 d e_1, E_1 = e_2
        f = rand_density(rng, 0, max_order=2, hat=True)
        g = rand_density(rng, 0, max_order=2, hat=True)
        e, S, E = build_eSE(f, g, 2)
        assert E[0] == e[0] * 2 - e[1].total_derivative() * 2
        assert E[1] == e[2]
        assert S[0] == E[0] + E[1].dx(2) * 3

    def test_s0_u2_coefficient_for_f_equals_ug(self):
        # f = u g with g = u_1^3: the u_2-part of S_0 (which is
        # -l(l-1) u_1^{l-2} (s - u t) in general) collapses, leaving
        # 2 (1 - l)((s - u t)' + t/2) u_1^l = -6 u_1^3
        g = u1h ** 3
        f = uh * g
        _e, S, _E = build_eSE(f, g, 1)
        assert S[0].partial_u(2).is_zero()
        assert S[0] == u1h ** 3 * (-6)
        assert S[1].is_zero()
        # a generic pair of the same shape does carry a u_2-coefficient
        _e2, S2, _E2 = build_eSE(uh * uh * g, g, 1)
        assert not S2[0].partial_u(2).is_zero()

    def test_top_entry(self, rng):
        # e_j = delta_{j,n}-type data: S_n = 2 E_m = 2 e_n
        n = 4
        e = [SP.zero(1, True)] * n + [rand_density(rng, 0, max_order=2, hat=True)]
        assert verify_SE_equivalence(e, n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_equivalence_random(self, rng, n):
        for _ in range(4):
            e = [rand_density(rng, 0, max_order=3, hat=True, terms=2)
                 for _ in range(n + 1)]
            assert verify_SE_equivalence(e, n)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_short_e(self, rng, n):
        # entries e_j missing from the end of the list count as zero
        e = [rand_density(rng, 0, max_order=3, hat=True, terms=2) for _ in range(n)]
        for k in range(1, n + 1):
            assert verify_SE_equivalence(e[:k], n)

    def test_odd_n_rejected(self, rng):
        e = [rand_density(rng, 0, hat=True) for _ in range(4)]
        with pytest.raises(AlgebraError):
            verify_SE_equivalence(e, 3)
        _e, _S, E = build_eSE(u1h, u1h, 3)
        assert E is None

    def test_packed_density_identity(self, rng):
        # ties the coefficient systems to the bracket engine:
        # N(density of d_P int(f theta) - d_Q int(g theta)) = sum_k theta
        # theta_{k+1} S_k, for arbitrary pairs (no cocycle condition needed)
        pen = dkdv_pencil()
        thh = SP.theta(0, hat=True)
        for _ in range(6):
            n = rng.choice([2, 3, 4])
            f = rand_density(rng, 0, max_order=n, hat=True)
            g = rand_density(rng, 0, max_order=n, hat=True)
            F = canonical_class(f * thh)
            G = canonical_class(g * thh)
            lhs = (pen.d_P(F) - pen.d_Q(G)).rep * 2
            _e, S, _E = build_eSE(f, g, n)
            rhs = SP.zero(1, True)
            for k in range(n + 1):
                rhs = rhs + thh * SP.theta(k + 1, hat=True) * S[k]
            assert lhs == rhs

    def test_step4_identity(self, rng):
        # for f, g of order <= n-1: [u_n] E_{m-1} = -n d^2_{n-1}(f - u g)
        n = 6
        f = rand_density(rng, 0, max_order=5, hat=True, terms=3)
        g = rand_density(rng, 0, max_order=5, hat=True, terms=3)
        _e, _S, E = build_eSE(f, g, n)
        lhs = E[2].coefficient_layers(6).get(1, SP.zero(1, True))
        diff = f - uh * g
        assert lhs == diff.partial_u(5).partial_u(5) * (-n)


class TestBinomialIdentity:
    def test_hand_values(self):
        # alpha=2, beta=3: 1 + 9 = C(5,3)
        assert binomial_identity_check(2, 3)

    def test_beta_zero(self):
        assert binomial_identity_check(7, 0)

    def test_exhaustive_small_range(self):
        assert all(binomial_identity_check(a, b)
                   for a in range(13) for b in range(13))


def coboundary_pair(rng, laurent=2):
    """Pair (f, g) = (K delta_u b, -d delta_u b) from a random b in
    A-hat[3] linear in u_3; satisfies the constraint system at order 6."""
    b = SP.zero(1, True)
    for _ in range(3):
        m = SP.const(rand_coeff(rng), 1, True)
        for _ in range(rng.randint(0, 2)):
            m = m * SP.u(rng.randint(0, 2), hat=True)
        if rng.random() < 0.6:
            m = m * SP.u(1, power=-rng.randint(1, laurent), hat=True)
        if rng.random() < 0.7:
            m = m * SP.u(3, hat=True)
        b = b + m
    db = higher_variational_u(b)
    return QH_OP.apply(db), -db.total_derivative()


class TestQuasiStep:
    def test_coboundary_round_trip(self, rng):
        ran = 0
        for _ in range(6):
            f, g = coboundary_pair(rng)
            pair = CocyclePair(f, g, 6)
            assert pair.verify()
            if max(f.order(), g.order()) < 5:
                continue
            ran += 1
            _a, _b, _c, new = quasi_step(pair)
            assert new.n == 4
            assert new.f.order() <= 4 and new.g.order() <= 4
            assert new.verify()
        assert ran >= 3

    def test_returned_densities_reproduce_the_move(self, rng):
        for _ in range(3):
            f, g = coboundary_pair(rng)
            if max(f.order(), g.order()) < 5:
                continue
            pair = CocyclePair(f, g, 6)
            a, b, c, new = quasi_step(pair)
            m = 3
            assert a.order() <= m and b.order() <= m and c.order() <= m
            da = higher_variational_u(a)
            db = higher_variational_u(b)
            dc = higher_variational_u(c)
            assert new.f == f + da.total_derivative() + QH_OP.apply(db)
            assert new.g == g - db.total_derivative() + QH_OP.apply(dc)

    def test_zero_top_data_passes_through(self):
        g = u1h ** 2
        f = uh * g + u1h ** 2 * uh
        pair0 = CocyclePair(f - uh * g, SP.zero(1, True), 6)
        # build an honest low-order pair instead: f = u g + u_1^2 p with g = d(u_1 p)
        p = uh
        g = (u1h * p).total_derivative()
        f = uh * g + u1h ** 2 * p
        pair = CocyclePair(f, g, 6)
        assert pair.verify()
        _a, _b, _c, new = quasi_step(pair)
        assert new.f == f and new.g == g

    def test_rejects_non_cocycle(self, rng):
        f = rand_density(rng, 0, max_order=6, hat=True)
        pair = CocyclePair(f, SP.zero(1, True), 6)
        if not pair.verify():
            with pytest.raises(AlgebraError):
                quasi_step(pair)

    def test_rejects_bad_order(self, rng):
        f, g = coboundary_pair(rng)
        with pytest.raises(AlgebraError):
            quasi_step(CocyclePair(f, g, 5))
        with pytest.raises(AlgebraError):
            quasi_step(CocyclePair(SP.zero(1, True), SP.zero(1, True), 4))


class TestQuasiTrivialize:
    @pytest.mark.parametrize("pdens", [SP.const(1), u, u ** 2])
    def test_degree_two_family(self, pdens):
        pen = dkdv_pencil()
        g = (u1 * pdens).total_derivative()
        witness, c1 = quasi_trivialize_from_generator(g)
        assert isinstance(witness, EvolutionaryVF)
        # the witness is d_P int (u_2/u_1) h dx with h' = (2/3) p
        e = pdens.max_u_power()
        h = uh ** (e + 1) * Fraction(2, 3 * (e + 1))
        carrier = u2h * u1inv * h
        expected = higher_variational_u(carrier).total_derivative()
        assert witness.chars[0] == expected
        wcls = witness.as_class()
        assert pen.d_P(wcls).is_zero()
        assert pen.d_Q(wcls) == c1.to_hat()

    def test_degree_one_generator_gives_zero_witness(self):
        s = u ** 2
        g = s.partial_u(0) * u1  # u_1 s'(u) = d(s)
        witness, c1 = quasi_trivialize_from_generator(g)
        assert c1.is_zero()
        assert witness.is_zero()

    def test_degree_zero_nontrivial(self):
        c1 = canonical_class(u * th * SP.theta(1))
        res = quasi_trivialize(c1)
        assert isinstance(res, NontrivialAtDegreeZero)
        assert not res

    def test_degree_zero_constant_is_trivial(self):
        pen = dkdv_pencil()
        c1 = canonical_class(th * SP.theta(1) * Fraction(5, 2))
        w = quasi_trivialize(c1)
        assert isinstance(w, EvolutionaryVF)
        assert pen.d_Q(w.as_class()) == c1.to_hat()

    @pytest.mark.parametrize("ell", [3, 4, 5])
    def test_higher_degree_coboundaries(self, rng, ell):
        # honest nonzero tail cocycles: c1 = d_Q d_P int w dx, trivialized by
        # construction; the witness must satisfy both halves exactly
        from conftest import rand_homogeneous
        pen = dkdv_pencil()
        produced = 0
        for _ in range(6):
            w = rand_homogeneous(rng, 0, ell, max_order=2, max_udeg=2, terms=2)
            T = pen.d_P(canonical_class(w))
            c1 = pen.d_Q(T)
            if c1.is_zero():
                continue
            produced += 1
            witness = quasi_trivialize(c1)
            assert isinstance(witness, EvolutionaryVF)
            wcls = witness.as_class()
            assert pen.d_P(wcls).is_zero()
            assert pen.d_Q(wcls) == c1.to_hat()
            if produced >= 2:
                break
        assert produced >= 1

    def test_deep_reduction_chain(self):
        # a degree-6 cocycle whose generator sits at order 5: the downward
        # induction passes through orders 6 and 4 before the endgame
        pen = dkdv_pencil()
        w = canonical_class(SP.u(2) ** 2 * u1)
        c1 = pen.d_Q(pen.d_P(w))
        assert not c1.is_zero() and c1.homogeneity() == 7
        witness = quasi_trivialize(c1)
        cls = witness.as_class()
        assert pen.d_P(cls).is_zero()
        assert pen.d_Q(cls) == c1.to_hat()

    def test_tail_cochain_entry_point(self):
        pen = dkdv_pencil()
        c1 = canonical_class(-(u * SP.theta(1) * SP.theta(2)))
        c = Cochain([MultiVector(SP.zero(), 2), c1])
        witness = quasi_trivialize(c, 2)
        assert pen.d_Q(witness.as_class()) == c1.to_hat()

    def test_non_cocycle_rejected(self):
        c1 = canonical_class(u ** 2 * th * SP.theta(3))
        with pytest.raises(AlgebraError):
            quasi_trivialize(c1)

    def test_non_tail_rejected(self):
        bad = Cochain([canonical_class(th * SP.theta(1)),
                       canonical_class(th * SP.theta(1))])
        with pytest.raises(AlgebraError):
            quasi_trivialize(bad)

    def test_odd_generator_rejected(self):
        # g theta vanishes for g = theta: no zero witness may come back
        with pytest.raises(AlgebraError, match="theta-degree 0, got 1"):
            quasi_trivialize_from_generator(th)

    def test_mixed_generator_rejected(self):
        # the theta part of u + theta must not be dropped into a "trivial"
        with pytest.raises(AlgebraError, match="theta-degree 0, got mixed"):
            quasi_trivialize_from_generator(u + th)

    def test_inhomogeneous_generator_rejected(self):
        g = (u1 * u).total_derivative() + u1 ** 3 * u
        with pytest.raises(AlgebraError, match="homogeneous"):
            quasi_trivialize_from_generator(g)


class TestPsi:
    def test_identity_holds(self):
        assert psi_check()

    def test_sign_control(self):
        assert not psi_check(psi_density() * (-1))

    def test_source_control(self):
        assert not psi_check(source=0)

    def test_literal_minus_source_form_misses_by_two_u3(self):
        # with the u_3 source subtracted instead of added the residual is
        # exactly -2 u_3: the identity is sign-critical
        res = psi_residual(source=-1)
        assert res == SP.u(3, hat=True) * (-2)

    def test_psi_lives_in_order_three_hat(self):
        psi = psi_density()
        assert psi.order() == 3 and psi.hat
        assert psi.degree() == 2
