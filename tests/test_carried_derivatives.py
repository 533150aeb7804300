"""The variational derivatives a class carries.

Every `MultiVector` holds delta_theta rep and delta_u rep, filled on first
use or when the class is built (`scale`, a vector field's class).  A class
of theta-degree k >= 1 made by `canonical_class`, a bracket or `+` carries
the theta_0 part y of its delta_theta instead, and derives delta_theta =
k (rep less its theta_0) + theta_0 d(y) from it in one kernel pass when a
bracket first reads it.  A carried derivative must equal a fresh
differentiation of the representative, on polynomial and Laurent densities
and through every way a class is made; a zero sum keeps theta-degree 0; and
each class is differentiated at most once per variable however often it is
bracketed.  The count tests build their own pencil, so they do not depend on
what earlier tests computed.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, strategies as st

from jetbrackets import (
    DiffOperator,
    EvolutionaryVF,
    MultiVector,
    Pencil,
    SuperPolynomial as SP,
    canonical_class,
    higher_variational_theta,
    higher_variational_u,
    operator_to_bivector,
    schouten_bracket,
)
from jetbrackets import variational

from conftest import densities, rand_density

SCALARS = st.sampled_from([0, 1, -1, 2, Fraction(-3, 2), Fraction(5, 7)])


def _assert_carried(c: MultiVector):
    """Stored derivatives equal fresh ones; missing ones are computed equal."""
    for slot, compute, fresh in (("_dtheta", c._delta_theta, higher_variational_theta),
                                 ("_du", c._delta_u, higher_variational_u)):
        stored = getattr(c, slot)
        want = fresh(c.rep)
        if stored is not None:
            assert stored == want
        assert compute() == want
        assert getattr(c, slot) == want


def _same_degree_pair(draw, k=None):
    if k is None:
        k = draw(st.integers(0, 3))
    return (canonical_class(draw(densities(k, k))),
            canonical_class(draw(densities(k, k))))


@given(st.data())
def test_canonical_classes_carry_their_derivatives(data):
    a = data.draw(densities())
    c = canonical_class(a)
    if c.theta_degree >= 1:
        # rep is built at once; delta_theta waits for its first read exactly
        # when a theta_0 part does
        assert (c._dtheta is None) == bool(c._y)
        assert c._delta_theta() == higher_variational_theta(a)
    else:
        assert c._dtheta == 0  # theta-degree 0 has delta_theta = 0
    _assert_carried(c)


@given(st.data())
def test_sums_differences_and_multiples_carry_their_derivatives(data):
    a, b = _same_degree_pair(data.draw)
    c, d = data.draw(SCALARS), data.draw(SCALARS)
    for x in (a + b, a - b, a.scale(c), a.scale(c) + b.scale(d), -a):
        _assert_carried(x)
    # once delta_u is known too, scale carries both
    a._delta_u(), b._delta_u()
    for x in (a.scale(c), b.scale(d), a.scale(c) - b.scale(d)):
        _assert_carried(x)
    # the sum equals the old definition, the class of the summed densities
    for x, y in ((a, b), (a, b.scale(-1)), (a.scale(c), b.scale(d))):
        s, ref = x + y, canonical_class(x.rep + y.rep)
        assert s == ref
        if not (x.is_zero() or y.is_zero()):
            assert (s.rep, s.theta_degree) == (ref.rep, ref.theta_degree)


@given(st.data())
def test_zero_sums_keep_theta_degree_zero(data):
    a, _ = _same_degree_pair(data.draw, data.draw(st.integers(1, 3)))
    c = data.draw(SCALARS.filter(bool))
    for z in (a - a, a + (-a), a.scale(c) + a.scale(-c), a.scale(c) - a.scale(c)):
        if not a.is_zero():
            assert z.theta_degree == 0
        assert z.is_zero()
        assert z == MultiVector(SP(), 0) == MultiVector(SP(), 3) == canonical_class(SP())
        assert (z == a) == a.is_zero()
        _assert_carried(z)


@given(st.randoms(use_true_random=False), st.integers(0, 2), st.integers(1, 2), st.booleans())
def test_brackets_and_their_sums_carry_their_derivatives(rng, ka, kb, laurent):
    # small densities: a bracket of a bracket of the strategy's densities
    # takes seconds
    def small(k):
        return canonical_class(rand_density(rng, k, max_order=2, laurent=laurent))

    a, b, b2 = small(ka), small(kb), small(kb)
    ab, ab2 = schouten_bracket(a, b), schouten_bracket(a, b2)
    for x in (ab, ab2, ab + ab2, ab - ab2.scale(2), schouten_bracket(ab, b)):
        _assert_carried(x)
    # a bracket read twice reads the derivatives it stored the first time
    assert schouten_bracket(a, b) == ab


@given(densities(0, 0), densities(0, 0))
def test_operators_and_vector_fields_carry_their_derivatives(f, g):
    # f d + f_1/2 is skew-adjoint for every f
    B = operator_to_bivector(DiffOperator({1: f, 0: f.total_derivative() / 2}))
    X = EvolutionaryVF(g).as_class()
    for x in (B, X, schouten_bracket(X, B), B.scale(3) + B):
        _assert_carried(x)


# ---------------------------------------------------------------------------
# How often the derivation kernel runs
# ---------------------------------------------------------------------------

def _count_kernel(monkeypatch):
    """Record (a, odd) for each pass over a density a: odd false for a
    delta_u pass of `_variational`, odd true for a theta pass."""
    calls = []
    kernel, theta_pass = variational._variational, variational._theta_pass

    def counting(a, level):
        calls.append((a, False))
        return kernel(a, level)

    def counting_pass(a, level, y=None):
        calls.append((a, True))
        return theta_pass(a, level, y)

    monkeypatch.setattr(variational, "_variational", counting)
    monkeypatch.setattr(variational, "_theta_pass", counting_pass)
    return calls


def _count_reads(monkeypatch):
    """Record the terms of each kernel pass over the theta_0 part a class
    carries, the one pass that reading its delta_theta takes."""
    reads = []
    kernel = variational._horner

    def counting(pieces, top, y=None):
        assert (top, y, list(pieces)) == (1, None, [1])
        reads.append(pieces[1])
        return kernel(pieces, top, y)

    monkeypatch.setattr(variational, "_horner", counting)
    return reads


def _fresh_pencil_classes():
    """A fresh P and Q of the dKdV pencil, not the process-wide pencil."""
    u = SP.u(0)
    return (operator_to_bivector(DiffOperator.d(1)),
            operator_to_bivector(DiffOperator({1: u, 0: SP.u(1) / 2})))


def test_pencil_make_differentiates_each_structure_once(monkeypatch):
    calls = _count_kernel(monkeypatch)
    P, Q = _fresh_pencil_classes()
    pencil = Pencil.make(P, Q)
    assert pencil.certified
    counts = Counter(calls)
    for H in (P, Q):
        # delta_theta comes from canonical_class, delta_u from the first bracket
        assert counts[(H.rep, True)] <= 1
        assert counts[(H.rep, False)] == 1
    for H in (P, Q):
        assert H._dtheta is not None and H._du is not None


def test_d_P_then_d_Q_differentiate_a_class_once(monkeypatch):
    pencil = Pencil.make(*_fresh_pencil_classes())
    u, th = SP.u(0), SP.theta(0)
    for density in (u ** 2 * SP.u(2) * th,                                 # t = 1
                    u * th * SP.theta(2) + SP.u(1, power=-1) * th * SP.theta(1),  # t = 2, Laurent
                    u ** 3 * SP.u(2)):                                     # t = 0
        calls = _count_kernel(monkeypatch)
        c = canonical_class(density)
        first, second = pencil.d_P(c), pencil.d_Q(c)
        counts = Counter(calls)
        assert not c.is_zero()
        # delta_theta once at most (canonical_class), delta_u once (d_P), of
        # the density or the representative
        assert sum(n for (a, odd), n in counts.items() if odd and a in (density, c.rep)) <= 1
        assert sum(n for (a, odd), n in counts.items() if not odd and a in (density, c.rep)) == 1
        # besides c, only the two images are put in canonical form
        assert len(calls) <= 2 + 2
        calls.clear()
        assert (pencil.d_P(c), pencil.d_Q(c)) == (first, second)
        assert len(calls) <= 2


def test_delta_u_comes_from_the_smaller_density(monkeypatch):
    # theta_3 u u_1 has one term, its representative -theta d^3(u u_1) four
    large = SP.u(0) * SP.u(1) * SP.theta(3)
    small = SP.u(0) * SP.u(2) * SP.theta(0)  # one term, its own representative
    want = {p: higher_variational_u(p) for p in (large, small)}
    a, b = canonical_class(large), canonical_class(small)
    assert a._src is large and b._src is None
    calls = _count_kernel(monkeypatch)
    assert (a._delta_u(), b._delta_u()) == (want[large], want[small])
    assert calls == [(large, False), (b.rep, False)]
    assert a._src is None
    assert (a._delta_u(), b._delta_u()) == (want[large], want[small])
    assert len(calls) == 2


def test_sums_and_multiples_are_not_differentiated_again(monkeypatch):
    a = canonical_class(SP.u(0) * SP.u(2) * SP.theta(0) * SP.theta(1))
    b = canonical_class(SP.u(1) ** 2 * SP.theta(0) * SP.theta(3))
    calls, reads = _count_kernel(monkeypatch), _count_reads(monkeypatch)
    s = a + b.scale(Fraction(2, 3)) - a.scale(4)
    assert calls == [] and reads == []
    # the sum carries the sum of the theta_0 parts, read in one pass
    assert s._y == a._y + b._y * Fraction(2, 3) - a._y * 4
    got = s._delta_theta()
    assert calls == [] and reads == [s._y._nums]
    assert got == higher_variational_theta(s.rep)


def test_a_brackets_canonical_form_is_counted(monkeypatch):
    # the bracket reaches the kernel through the variational module, so the
    # counts above include the canonical form of its density
    _, Q = _fresh_pencil_classes()
    c = canonical_class(SP.u(0) ** 2 * SP.u(2) * SP.theta(0))
    for x in (Q, c):
        x._delta_theta(), x._delta_u()
    calls, reads = _count_kernel(monkeypatch), _count_reads(monkeypatch)
    image = schouten_bracket(Q, c)
    assert not image.is_zero()
    assert [odd for _, odd in calls] == [True]
    assert reads == [] and image._dtheta is None
    got = image._delta_theta()
    assert len(calls) == 1 and reads == [image._y._nums]
    assert got == higher_variational_theta(calls[0][0])


def test_a_jacobi_triples_outer_results_leave_their_theta_0_part_underived(monkeypatch):
    # the three outer brackets of a Jacobi triple are only compared, so the
    # last level of the theta passes of their canonical forms runs no
    # derivative entry that keeps theta_0: their level-0 output has no
    # theta_0 key, and the level-1 terms with theta_0 wait in y until
    # delta_theta is read
    u, th = SP.u, SP.theta
    a = canonical_class(u(0) * u(2) * th(0) * th(1) + u(1) ** 2 * th(0) * th(2))
    b = canonical_class(u(0) ** 2 * th(1) * th(3))
    c = canonical_class(u(1) * u(2) * th(2) - u(0) * th(1))
    S = schouten_bracket
    bc, ab, ac = S(b, c), S(a, b), S(a, c)
    for x in (bc, ab, ac):  # operands of the outer brackets
        x._delta_theta(), x._delta_u()
    passes, kernel = [], variational._theta_pass

    def recording(a, level, y=None):
        out = kernel(a, level, y)
        passes.append((y, out))
        return out

    monkeypatch.setattr(variational, "_theta_pass", recording)
    calls, reads = _count_kernel(monkeypatch), _count_reads(monkeypatch)
    outer = [S(a, bc), S(ab, c), S(b, ac)]
    assert len(calls) == len(passes) == 3 and reads == []
    assert all(y is not None and not any(m & 1 for m in out) for y, out in passes)
    assert sum(len(y) for y, _ in passes) > 0  # the split saved work
    assert all(x.theta_degree == 3 and x._dtheta is None for x in outer)
    got = [x._delta_theta() for x in outer]
    # one pass over each stored part, and no differentiation
    assert reads == [x._y._nums for x in outer] and len(calls) == 3
    assert got == [higher_variational_theta(x.rep) for x in outer]


def test_a_vector_field_class_is_read_off_its_characteristic(monkeypatch):
    # delta_theta (f theta) = f: as_class differentiates nothing, and gives
    # the class canonical_class builds from the density f theta
    for f in (SP.u(0) ** 2 * SP.u(3), SP.u(1, power=-2) * SP.u(2) ** 2 - SP.u(0), SP()):
        want = canonical_class(f * SP.theta(0))
        calls = _count_kernel(monkeypatch)
        X = EvolutionaryVF(f).as_class()
        assert calls == []
        assert (X.rep, X.theta_degree) == (want.rep, want.theta_degree)
        assert X._dtheta == f
        _assert_carried(X)
