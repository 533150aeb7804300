"""Acceptance suite: one test per criterion, exact arithmetic throughout
(every tolerance is zero).  Each test prints a pass/fail line; running the
module directly executes all criteria in order.
"""

import random
import time
from fractions import Fraction

from jetbrackets import (
    CocyclePair,
    DiffOperator,
    EpsilonDeformation,
    EvolutionaryVF,
    MultiVector,
    NontrivialAtDegreeZero,
    SuperPolynomial as SP,
    binomial_identity_check,
    canonical_class,
    dkdv_pencil,
    hierarchy,
    hierarchy_flow,
    higher_variational_u,
    integrate_x,
    mc_residual,
    normalize_N,
    operator_to_bivector,
    poisson_bracket_functionals,
    psi_check,
    psi_density,
    psi_residual,
    quasi_step,
    quasi_trivialize,
    schouten_bracket,
    symmetry_check,
    symmetry_space,
    verify_SE_equivalence,
)
from conftest import rand_density


u = SP.u(0)
u1 = SP.u(1)
u2 = SP.u(2)
th = SP.theta(0)
u1inv = SP.u(1, power=-1)

P_OP = DiffOperator.d(1)
Q_OP = DiffOperator({1: u, 0: u1 / 2})


def _report(num, label, ok, t0=None):
    took = f" [{time.time() - t0:.2f}s]" if t0 is not None else ""
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {label}{took}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_pencil_certification():
    t0 = time.time()
    P = operator_to_bivector(P_OP)
    Q = operator_to_bivector(Q_OP)
    ok = (schouten_bracket(P, P).is_zero()
          and schouten_bracket(P, Q).is_zero()
          and schouten_bracket(Q, Q).is_zero())
    elapsed = time.time() - t0
    _report(1, "pencil certification [[P,P]] = [[P,Q]] = [[Q,Q]] = 0", ok, t0)
    assert elapsed < 1.0


def test_criterion_02_kdv_deformation():
    t0 = time.time()
    P = operator_to_bivector(P_OP)
    Q = operator_to_bivector(Q_OP)
    B3 = operator_to_bivector(DiffOperator({3: SP.const(Fraction(3, 2))}))
    zero2 = MultiVector(SP.zero(), 2)
    DQ = EpsilonDeformation(Q, [zero2, B3], 2)
    DP = EpsilonDeformation(P, [], 2)
    single = all(r.is_zero() for r in mc_residual(DQ, 4))
    halves_pp = all(r.is_zero() for r in mc_residual(DP, 4))
    halves_qq = single
    mixed = True
    for k in range(1, 5):
        acc = MultiVector(SP.zero(), 3)
        for i in range(0, k + 1):
            acc = acc + schouten_bracket(DP.term(i), DQ.term(k - i))
        mixed = mixed and acc.is_zero()
    _report(2, "KdV deformation Q + (3/2) eps^2 d^3: MC and all three "
               "bihamiltonian components vanish through eps^4",
            single and halves_pp and halves_qq and mixed, t0)


def test_criterion_03_psi_check():
    t0 = time.time()
    # the transfer identity for the quasi-Miura seed, with the source sign
    # verified against independent computation (see the decisions ledger):
    # D_t psi - u d(psi) - u_1 psi + u_3 = 0 for psi = -(1/2)(u_3/u_1 - u_2^2/u_1^2)
    ok = psi_check()
    sign_control = not psi_check(psi_density() * (-1))
    source_control = not psi_check(source=0)
    # the literal form with the opposite source sign misses by exactly -2 u_3
    defect = psi_residual(source=-1) == SP.u(3) * (-2)
    elapsed = time.time() - t0
    _report(3, "psi-check identity (verified source sign; literal-form "
               "defect pinned to -2 u_3)",
            ok and sign_control and source_control and defect, t0)
    assert elapsed < 1.0


def test_criterion_04_hierarchy():
    t0 = time.time()
    H = hierarchy(3)
    values = (H[0].rep == u * Fraction(4, 3)
              and H[1].rep == u ** 2 / 3
              and H[2].rep == u ** 3 / 6
              and not H[3].is_zero() and not H[4].is_zero())
    involution = all(
        poisson_bracket_functionals(H[a], H[b], OP).is_zero()
        for a in range(5) for b in range(5) for OP in (P_OP, Q_OP))
    flows = [hierarchy_flow(x) for x in H]
    commute = all(X.commutator(Y).is_zero() for X in flows for Y in flows)
    elapsed = time.time() - t0
    _report(4, "hierarchy H_{-1}..H_3 with involution and commuting flows",
            values and involution and commute, t0)
    assert elapsed < 10.0


def test_criterion_05_normalization_theorem():
    t0 = time.time()
    rng = random.Random(5)
    ok = True
    for i in range(100):
        k = rng.randint(1, 3)
        F = rand_density(rng, k, max_order=4, terms=2, laurent=1 - i % 2)
        if F.is_zero():
            continue
        target = normalize_N(F) - F * k
        w = integrate_x(target)
        ok = ok and w.total_derivative() == target
    _report(5, "normalization theorem: integrate_x(NF - kF) succeeds on 100 "
               "random densities (Laurent and polynomial)", ok, t0)


def test_criterion_06_jacobi_and_anticommutation():
    t0 = time.time()
    rng = random.Random(6)

    def sgn(e):
        return 1 if e % 2 == 0 else -1

    ok = True
    for _ in range(100):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        kc = rng.randint(0, 2)
        a = canonical_class(rand_density(rng, ka, max_order=3, terms=2))
        b = canonical_class(rand_density(rng, kb, max_order=3, terms=2))
        c = canonical_class(rand_density(rng, kc, max_order=3, terms=2))
        lhs = schouten_bracket(a, schouten_bracket(b, c))
        rhs = schouten_bracket(schouten_bracket(a, b), c) + \
            schouten_bracket(b, schouten_bracket(a, c)).scale(sgn((ka - 1) * (kb - 1)))
        ok = ok and lhs == rhs
    pen = dkdv_pencil()
    for _ in range(50):
        a = canonical_class(rand_density(rng, rng.randint(0, 2), max_order=3))
        ok = ok and pen.d_P(pen.d_Q(a)) == pen.d_Q(pen.d_P(a)).scale(-1)
    _report(6, "graded Jacobi on 100 random triples; d_P d_Q = -d_Q d_P on 50",
            ok, t0)


def test_criterion_07_binomial_and_packing():
    t0 = time.time()
    binom = all(binomial_identity_check(a, b)
                for a in range(13) for b in range(13))
    rng = random.Random(7)
    pack = True
    count = 0
    while count < 50:
        for n in (2, 4, 6, 8):
            e = [rand_density(rng, 0, max_order=2, laurent=1, terms=2)
                 for _ in range(n + 1)]
            pack = pack and verify_SE_equivalence(e, n)
            count += 1
    _report(7, "binomial lemma exhaustively <= 12; S-through-E packing "
               "identity on 50 random e-datasets", binom and pack, t0)


def test_criterion_08_symmetries():
    t0 = time.time()
    checks = all(symmetry_check(EvolutionaryVF(u1 * u ** d)) for d in range(6))
    dims = all(len(symmetry_space(ell, max_udeg=6)) == 0 for ell in (2, 3, 4, 5))
    _report(8, "symmetries: u_1 u^d are symmetries; joint kernel empty in "
               "degrees 2..5 (u-power cap 6)", checks and dims, t0)


def test_criterion_09_quasi_trivialization_degree_two():
    t0 = time.time()
    pen = dkdv_pencil()
    ok = True
    for pdens, h in ((SP.const(1), u * Fraction(2, 3)),
                     (u, u ** 2 * Fraction(1, 3)),
                     (u * u, u ** 3 * Fraction(2, 9))):
        b0 = EvolutionaryVF(
            higher_variational_u(u2 * u1inv * h).total_derivative())
        cls = b0.as_class()
        target = canonical_class(
            -(pdens * SP.theta(1) * SP.theta(2)))
        ok = ok and pen.d_P(cls).is_zero() and pen.d_Q(cls) == target
        # and the engine recovers an equivalent witness from the generator
        from jetbrackets import quasi_trivialize_from_generator
        w, c1 = quasi_trivialize_from_generator((u1 * pdens).total_derivative())
        ok = ok and pen.d_Q(w.as_class()) == c1
    elapsed = time.time() - t0
    _report(9, "degree-2 quasi-trivialization witnesses d_P int (u_2/u_1) h dx "
               "with h' = (2/3) p for p in {1, u, u^2}", ok, t0)
    assert elapsed < 5.0


def test_criterion_10_quasi_step_round_trip():
    t0 = time.time()
    rng = random.Random(10)
    done = 0
    ok = True
    while done < 10:
        b = SP.u(3) * rand_density(rng, 0, max_order=2, terms=2, laurent=2)
        b = b + rand_density(rng, 0, max_order=2, terms=1, laurent=2)
        db = higher_variational_u(b)
        f, g = Q_OP.apply(db), -db.total_derivative()
        if max(f.order(), g.order()) < 5:
            continue
        pair = CocyclePair(f, g, 6)
        if not pair.verify():
            ok = False
            break
        _a, _b, _c, new = quasi_step(pair)
        ok = ok and new.f.order() <= 4 and new.g.order() <= 4 and new.verify()
        done += 1
    elapsed = time.time() - t0
    _report(10, "quasi-step on 10 random order-6 coboundary pairs: order "
                "drops to <= 4 and the S-system stays zero", ok and done == 10, t0)
    assert elapsed < 60.0


def test_criterion_11_normal_form_dictionary():
    t0 = time.time()
    th1, th2, th3 = SP.theta(1), SP.theta(2), SP.theta(3)
    ok = True
    for s in (SP.const(1), u, u ** 3):
        sp = s.partial_u(0)
        spp = sp.partial_u(0)
        lhs = normalize_N(s * th1 * th2) / 2
        rhs = -(s * th * th3
                + Fraction(3, 2) * u1 * sp * th * th2
                + (SP.u(2) * sp + u1 * u1 * spp) / 2 * th * th1)
        ok = ok and lhs == rhs
    _report(11, "(1/2) N (s theta_1 theta_2) equals the third-order operator "
                "density for s in {1, u, u^3}", ok, t0)


def test_criterion_12_degree_zero_nontriviality():
    t0 = time.time()
    res = quasi_trivialize(canonical_class(u * th * SP.theta(1)))
    _report(12, "degree-0 class s(u) theta theta_1 with s = u is reported "
                "nontrivial", isinstance(res, NontrivialAtDegreeZero), t0)


ALL = [
    test_criterion_01_pencil_certification,
    test_criterion_02_kdv_deformation,
    test_criterion_03_psi_check,
    test_criterion_04_hierarchy,
    test_criterion_05_normalization_theorem,
    test_criterion_06_jacobi_and_anticommutation,
    test_criterion_07_binomial_and_packing,
    test_criterion_08_symmetries,
    test_criterion_09_quasi_trivialization_degree_two,
    test_criterion_10_quasi_step_round_trip,
    test_criterion_11_normal_form_dictionary,
    test_criterion_12_degree_zero_nontriviality,
]


if __name__ == "__main__":
    failures = 0
    for fn in ALL:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"  -> {exc}")
    raise SystemExit(1 if failures else 0)
