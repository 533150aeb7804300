"""The contracting homotopy of d_P and the quasi-trivialization built on it.

For P = d, d_P on densities is the odd derivation D_P = sum_k theta_{k+1}
partial_{u_k}: d_P(class a) = -class(D_P a).  The pair (u_k, theta_{k+1})
of a monomial has the weight w_k = e_k + [theta_{k+1} present], and K m =
u_k partial_{theta_{k+1}} m / w_k, k the first pair of nonzero weight, is a
contracting homotopy: D_P K + K D_P = 1 on monomials of nonzero weight.
The d_P primitive y = K(a - d(K b)), a = -rep(c), b = integrate_x(D_P a),
is checked exactly on drawn closed classes, against the whole-slice solver up
to ker d_P, and on the Laurent cocycles that the slice search could not
trivialize.  Quasi-trivialization builds no slice and no linear system.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import densities, full_slice_solve
from jetbrackets import (
    EvolutionaryVF,
    GradedSlice,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    enumerate_basis,
    quasi_trivialize,
    quasi_trivialize_from_generator,
)
from jetbrackets import algebra, cli, deform, dkdv
from jetbrackets._koszul import _contract as K, _koszul_dP as D_P

PENCIL = dkdv_pencil()
P = PENCIL.P


def monomials(p):
    return [SP({m: 1}) for m in p.terms]


def weights(mono):
    """The pair weights w_k = e_k + [theta_{k+1}], k = 0..order, of a
    monomial in the `terms` format."""
    (even, odd), = mono.terms
    exps = {k: e for (_, k), e in even}
    thetas = {k for _, k in odd}
    return [exps.get(k, 0) + (k + 1 in thetas) for k in range(mono.order() + 1)]


# ---------------------------------------------------------------------------
# D_P and K
# ---------------------------------------------------------------------------

@given(densities())
def test_D_P_squares_to_zero(a):
    assert D_P(D_P(a)).is_zero()


@given(densities())
def test_K_is_a_contracting_homotopy(a):
    for m in monomials(a):
        if any(weights(m)):
            assert D_P(K(m)) + K(D_P(m)) == m
        else:
            assert K(m).is_zero()


def test_weight_zero_monomials():
    # 1, theta_0, u_1^-1 theta_2 and theta_0 u_1^-1 theta_2: the cohomology
    th0, inv = SP.theta(0), SP.u(1, power=-1) * SP.theta(2)
    for m in (SP.const(1), th0, inv, th0 * inv):
        assert not any(weights(m)) and K(m).is_zero() and D_P(m).is_zero()
    # the first nonzero pair decides: u_1^-1 theta_2 u_3 has w = (0, 0, 0, 1)
    m = inv * SP.u(3)
    assert weights(m) == [0, 0, 0, 1]
    assert K(m).is_zero() and D_P(K(m)) + K(D_P(m)) == m


def test_D_P_and_K_on_single_monomials():
    u, u1, u2 = SP.u(0), SP.u(1), SP.u(2)
    th, th1, th2 = SP.theta(0), SP.theta(1), SP.theta(2)
    # theta_{k+1} multiplies on the left and jumps the odd factors below it
    assert D_P(u ** 2 * th) == -(u * th * th1 * 2)
    assert D_P(u1 * u2) == th2 * u2 + u1 * SP.theta(3)
    # K m = u_0 partial_{theta_1} m / (e_0 + 1): a left derivative
    assert K(u * th * th1) == -(u ** 2 * th) / 2
    assert K(SP.u(1, power=-3) * th2) == SP.u(1, power=-2) / -2


@given(densities())
def test_d_P_is_minus_D_P(a):
    assume(a.theta_degree() is not None)
    assert PENCIL.d_P(canonical_class(a)) == canonical_class(D_P(a)).scale(-1)


@given(densities())
def test_D_P_commutes_with_d(a):
    assert D_P(a.total_derivative()) == D_P(a).total_derivative()


def test_kernels_keep_the_exponent_range():
    with pytest.raises(algebra.AlgebraError, match="exponent range"):
        D_P(SP.u(1, power=-8192))
    with pytest.raises(algebra.AlgebraError, match="exponent range"):
        K(SP.u(0, power=16383) * SP.theta(1))


# ---------------------------------------------------------------------------
# The d_P primitive
# ---------------------------------------------------------------------------

@st.composite
def closed_classes(draw, laurent):
    """(c, slice): c = d_P class(x) != 0 of homogeneity 2..8, x drawn from
    the slice, theta-degree 0..2, Laurent in u_1 when laurent is set."""
    t = draw(st.integers(0, 2))
    h = draw(st.integers(2, 8))
    sl = GradedSlice(max_order=3, max_udeg=2, laurent_depth=1 if laurent else 0)
    basis = enumerate_basis(sl, t, h - 1)
    assume(basis)
    picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    if laurent:
        assume(any(e < 0 for b in picks for (even, _odd) in b.terms for _k, e in even))
    x = SP.zero()
    for b in picks:
        x = x + b * Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    c = PENCIL.d_P(canonical_class(x))
    assume(not c.is_zero())
    return c, sl


@pytest.mark.parametrize("laurent", [False, True])
@settings(max_examples=30)
@given(data=st.data())
def test_primitive_is_exact_and_agrees_with_the_slice(laurent, data):
    c, sl = data.draw(closed_classes(laurent))
    y = dkdv._d_P_primitive(c)
    assert PENCIL.d_P(y) == c
    # the whole-slice solve finds a primitive too; the two differ by ker d_P
    want, _ = full_slice_solve([P], [c], sl)
    assert want is not None
    assert PENCIL.d_P(y - want).is_zero()


# the Laurent tail cocycles d_Q d_P int w dx that the capped slice search
# answered with NoSolution
_inv = SP.u(1, power=-1)
LAURENT_W = {
    "u_1^-1 u_2^2": _inv * SP.u(2) ** 2,
    "u u_1^-2 u_2 u_3": SP.u(0) * _inv ** 2 * SP.u(2) * SP.u(3),
    "u_1^-2 u_2^3": _inv ** 2 * SP.u(2) ** 3,
    "u_1^-2 u_2 u_4": _inv ** 2 * SP.u(2) * SP.u(4),
}


@pytest.mark.parametrize("name", sorted(LAURENT_W))
def test_laurent_cocycles_get_verified_witnesses(name):
    w = LAURENT_W[name]
    c1 = PENCIL.d_Q(PENCIL.d_P(canonical_class(w)))
    assert not c1.is_zero()
    b0 = quasi_trivialize(c1)
    assert isinstance(b0, EvolutionaryVF)
    cls = b0.as_class()
    assert PENCIL.d_P(cls).is_zero() and PENCIL.d_Q(cls) == c1
    # the same class as d_P int(g theta), g = -(the characteristic of
    # d_Q int w), through the generator entry point and the CLI
    g = -PENCIL.d_Q(canonical_class(w)).rep.partial_theta(0)
    b1, c = quasi_trivialize_from_generator(g)
    assert c == c1 and b1.chars == b0.chars
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["quasi-trivialize", "--hat", "--g", str(g)])
    doc = json.loads(out.getvalue())
    assert code == 0 and doc["trivial"] is True
    assert doc["witness_characteristic"] == str(b0.chars[0])


def test_quasi_trivialization_builds_no_slice_and_no_system(monkeypatch):
    """The ell = 3..8 ladder of test_ugrading and degree-2 generators, with
    recording GradedSlice and SparseMatrix classes."""
    from test_ugrading import LADDER
    built = []

    class RecordingSlice(deform.GradedSlice):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    class RecordingMatrix(deform.SparseMatrix):
        def __init__(self, rows, ncols):
            built.append((len(rows), ncols))
            super().__init__(rows, ncols)

    monkeypatch.setattr(deform, "GradedSlice", RecordingSlice)
    monkeypatch.setattr(dkdv, "GradedSlice", RecordingSlice)
    monkeypatch.setattr(deform, "SparseMatrix", RecordingMatrix)
    assert sorted(LADDER) == [3, 4, 5, 6, 7, 8]
    for c1 in LADDER.values():
        assert isinstance(quasi_trivialize(c1), EvolutionaryVF)
    u, u1 = SP.u(0), SP.u(1)
    for p in (SP.const(1), u ** 3):
        w, _ = quasi_trivialize_from_generator((u1 * p).total_derivative())
        assert isinstance(w, EvolutionaryVF)
    assert built == []
