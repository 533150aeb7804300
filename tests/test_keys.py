"""Packed monomial keys: the encoding, its exponent range and the kernel on it.

The keys are private to `jetbrackets.algebra`.  These tests check packing
against the nested `terms` format, the Koszul sign of a product against a
merge of the odd factors, and every kernel operation against the frozen
Fraction references of conftest, also at jet indices far above those of the
workloads (u_300, theta_300, theta_1000).
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from jetbrackets import AlgebraError, SuperPolynomial as SP, cli, parse_density
from jetbrackets import algebra
from jetbrackets.algebra import (
    _E_MAX,
    _ONE,
    _U1_MAX,
    _U1_MIN,
    _inversion_mask,
    _normal_key,
    _pack,
    _unpack,
    _variational,
)

from conftest import (
    assert_same,
    densities,
    ref_dx,
    ref_mul,
    ref_partial_theta,
    ref_partial_u,
)


def _merge_odd(o1: tuple, o2: tuple):
    """Interleave two sorted odd tuples; return (sign, merged) or None if a
    generator repeats (theta^2 = 0).  The odd-part merge of the ring before
    it packed its keys, frozen as the reference for the Koszul sign."""
    if not o1:
        return 1, o2
    if not o2:
        return 1, o1
    if o1[-1] < o2[0]:
        return 1, o1 + o2
    merged = []
    sign = 1
    i = j = 0
    n1, n2 = len(o1), len(o2)
    while i < n1 and j < n2:
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the n1 - i remaining factors of o1
            if (n1 - i) & 1:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return sign, tuple(merged)


def ref_variational(a, odd, level):
    """sum_j (-1)^j C(level+j, level) d^j partial_{level+j} a, summed
    directly over the Fraction references."""
    partial = ref_partial_theta if odd else ref_partial_u
    out = SP.zero()
    for j in range(a.order() - level + 1):
        piece = partial(a, level + j)
        if piece:
            out = out + ref_dx(piece, j) * ((-1) ** j * comb(level + j, level))
    return out


# indices around the field boundaries and far above the workloads'
_INDICES = st.one_of(st.integers(0, 6), st.sampled_from([15, 16, 17, 255, 256, 300, 1000]))


@st.composite
def monomials(draw, extreme=True):
    """A nested monomial in normal form; extreme admits the ends of the
    exponent range."""
    even = []
    for k in sorted(draw(st.lists(_INDICES, unique=True, max_size=4))):
        if k == 1:
            small = st.integers(-3, 3).filter(bool)
            e = draw(st.one_of(small, st.sampled_from([_U1_MIN, _U1_MAX])) if extreme else small)
        else:
            small = st.integers(1, 4)
            e = draw(st.one_of(small, st.just(_E_MAX)) if extreme else small)
        even.append(((1, k), e))
    odd = sorted(draw(st.lists(_INDICES, unique=True, max_size=4)))
    return tuple(even), tuple((1, k) for k in odd)


@st.composite
def high_densities(draw):
    """A density over monomials with small exponents at any of `_INDICES`."""
    terms = {}
    for mono in draw(st.lists(monomials(extreme=False), max_size=4)):
        terms[mono] = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    return SP(terms)


# -- the encoding --------------------------------------------------------------

class TestPacking:
    @given(monomials())
    def test_round_trip(self, mono):
        key = _pack(mono)
        assert _unpack(key) == mono
        assert _normal_key(mono) == (1, key)
        assert SP({mono: 3}).terms == {mono: Fraction(3)}

    @given(monomials(), st.randoms(use_true_random=False))
    def test_factor_order_gives_the_koszul_sign(self, mono, rnd):
        even, odd = list(mono[0]), list(mono[1])
        rnd.shuffle(even)
        rnd.shuffle(odd)
        inversions = sum(x > y for i, x in enumerate(odd) for y in odd[i + 1:])
        assert _normal_key((even, odd)) == ((-1) ** inversions, _pack(mono))

    def test_constant_and_u1_extremes(self):
        assert _pack(((), ())) == _ONE
        for e in (_U1_MIN, -1, 1, _U1_MAX):
            mono = ((((1, 1), e),), ())
            assert _unpack(_pack(mono)) == mono
        assert _unpack(_pack(((((1, 1), _U1_MIN),), ((1, 0),)))) == ((((1, 1), _U1_MIN),), ((1, 0),))

    @given(st.lists(_INDICES, unique=True, max_size=5), st.lists(_INDICES, unique=True, max_size=5))
    def test_odd_merge_sign(self, i1, i2):
        o1, o2 = tuple((1, k) for k in sorted(i1)), tuple((1, k) for k in sorted(i2))
        got = SP({((), o1): 1}) * SP({((), o2): 1})
        merged = _merge_odd(o1, o2)
        if merged is None:
            assert got.is_zero()
            return
        sign, odd = merged
        assert got == SP({((), odd): sign})
        t1, t2 = _pack(((), o1)) - _ONE, _pack(((), o2)) - _ONE
        assert (-1) ** ((_inversion_mask(t1) & t2).bit_count() & 1) == sign


# -- the kernel against the Fraction references ------------------------------------

class TestKernelOnPackedKeys:
    @given(densities(), densities())
    def test_ring_and_derivations(self, a, b):
        assert_same(a * b, SP(ref_mul(a.terms, b.terms)))
        assert_same(a.dx(2), ref_dx(a, 2))
        for k in range(5):
            assert_same(a.partial_u(k), ref_partial_u(a, k))
            assert_same(a.partial_theta(k), ref_partial_theta(a, k))
        for level in range(3):
            for odd in (False, True):
                assert_same(_variational(a, odd, level), ref_variational(a, odd, level))

    @given(high_densities(), high_densities())
    def test_high_indices(self, a, b):
        assert_same(a * b, SP(ref_mul(a.terms, b.terms)))
        assert_same(b * a, SP(ref_mul(b.terms, a.terms)))
        assert_same(a.dx(), ref_dx(a))
        for k in (0, 1, 16, 255, 256, 300, 1000):
            assert_same(a.partial_u(k), ref_partial_u(a, k))
            assert_same(a.partial_theta(k), ref_partial_theta(a, k))

    def test_u300_theta300_theta1000(self):
        u, u1, th = SP.u, SP.u(1, power=-1), SP.theta
        p = 2 * u(300) * th(300) + Fraction(3, 2) * u(0) * u1 * th(2) - u(300) * th(0)
        q = th(1000) * u(2) - th(999) * u(0) + Fraction(1, 3) * th(300) * u(1)
        for a, b in ((p, q), (q, p), (p, p), (q, q), (p * q, p)):
            assert_same(a * b, SP(ref_mul(a.terms, b.terms)))
        assert str(th(1000) * th(300)) == "-theta_300*theta_1000"
        for a in (p, q):
            assert_same(a.dx(3), ref_dx(a, 3))
            for level in (0, 1, 299, 300, 999, 1000):
                for odd in (False, True):
                    assert_same(_variational(a, odd, level), ref_variational(a, odd, level))
        assert q.order() == 1000 and q.degree() is None and q.theta_degree() == 1
        assert sorted(q.homogeneous_components()) == [301, 999, 1002]
        assert (th(1000) * u(2) * u1).grading_info() == (1001, 1, 1000)

    def test_index_20000(self):
        # the key walks read each field once; stepping through the key with
        # shifts cost time quadratic in the index
        u, th = SP.u, SP.theta
        p = Fraction(3, 2) * u(20000) * th(20000) - u(1, power=-1) * u(19999, power=2) * th(0)
        assert_same(p.dx(), ref_dx(p))
        assert str(p.dx()) == ("u_1^-2*u_2*u_19999^2*theta - 2*u_1^-1*u_19999*u_20000*theta"
                               " - u_1^-1*u_19999^2*theta_1 + 3/2*u_20001*theta_20000"
                               " + 3/2*u_20000*theta_20001")
        assert parse_density(str(p), hat=True) == p
        assert p.order() == 20000 and p.degree() is None and p.theta_degree() == 1
        assert sorted(p.homogeneous_components()) == [39997, 40000]
        assert (u(20000) * th(20000)).degree() == 40000

    def test_emptying_the_derivative_table_changes_no_result(self, monkeypatch):
        polys = [SP.u(1, power=-2) * SP.u(3) * SP.theta(0) + SP.u(0, power=3),
                     SP.theta(1000) * SP.u(2) + SP.theta(0) * SP.theta(2) * SP.u(1)]

        def results():
            out = []
            for a in polys:
                out += [a.dx(4)] + [_variational(a, odd, level)
                                    for odd in (False, True) for level in (0, 1, 2)]
            return out

        expected = results()
        monkeypatch.setattr(algebra, "_DERIV_CACHE", {})
        monkeypatch.setattr(algebra, "_DERIV_LIMIT", 3)
        assert results() == expected
        assert 0 < len(algebra._DERIV_CACHE) <= 3


# -- the exponent range --------------------------------------------------------

def _outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


class TestExponentRange:
    @pytest.mark.parametrize("k", [0, 1, 2, 17, 300, -1, 1.0, True, None])
    @pytest.mark.parametrize("e", [1, 0, 2, -1, _E_MAX, _E_MAX + 1, _U1_MAX + 1,
                                   _U1_MIN, _U1_MIN - 1, 2 ** 70, 1.5, True])
    def test_generators_match_the_general_constructor(self, k, e):
        assert _outcome(lambda: SP.u(k, power=e)) == _outcome(lambda: SP({((((1, k), e),), ()): 1}))
        if e == 1:
            assert _outcome(lambda: SP.theta(k)) == _outcome(lambda: SP({((), ((1, k),)): 1}))

    @pytest.mark.parametrize("c", [0, 1, -3, 10 ** 30, Fraction(-2, 6), True, 1.5, "1", None])
    def test_constants_match_the_general_constructor(self, c):
        got, want = _outcome(lambda: SP.const(c)), _outcome(lambda: SP({((), ()): c}))
        assert got == want
        if isinstance(got, SP):
            assert_same(got, want)

    def test_constructor(self):
        assert SP.u(0, power=_E_MAX).max_u_power() == _E_MAX
        assert SP.u(300, power=_E_MAX).order() == 300
        for k, e in ((0, _E_MAX + 1), (2, _E_MAX + 1), (300, 2 ** 20),
                     (1, _U1_MAX + 1), (1, _U1_MIN - 1)):
            with pytest.raises(AlgebraError, match="exponent range"):
                SP.u(k, power=e)
        # repeated factors are summed before the range check
        with pytest.raises(AlgebraError, match="exponent range"):
            SP({((((1, 0), 10000), ((1, 0), 10000)), ()): 1})
        assert SP({((((1, 1), -5000), ((1, 1), 5000)), ()): 1}) == 1

    def test_product(self):
        u = SP.u
        for a, b in ((u(0, power=10000), u(0, power=10000)),
                     (u(1, power=-5000), u(1, power=-5000)),  # borrows from u_2
                     (u(1, power=5000), u(1, power=5000)),
                     (u(300, power=10000) * SP.theta(2), u(300, power=10000)),
                     (u(0, power=10000) * SP.theta(0), u(0, power=10000) * SP.theta(1))):
            with pytest.raises(AlgebraError, match="a product leaves"):
                a * b
        assert u(1, power=_U1_MAX) * u(1, power=_U1_MIN) == u(1, power=-1)
        assert u(1, power=-4096) * u(1, power=-4096) == u(1, power=_U1_MIN)
        assert u(0, power=_E_MAX - 1) * u(0) == u(0, power=_E_MAX)
        # theta^2 = 0 is dropped before its exponents are looked at
        assert (u(0, power=10000) * SP.theta(0)) * (u(0, power=10000) * SP.theta(0)) == 0

    def test_power(self):
        u = SP.u
        t0 = time.perf_counter()
        with pytest.raises(AlgebraError, match="exponent range"):
            (u(0) + u(1)) ** 2000000
        assert time.perf_counter() - t0 < 0.5
        assert u(0, power=2) ** 8191 == u(0, power=16382)
        assert u(1, power=-1) ** 8192 == u(1, power=_U1_MIN)
        for base, n in ((u(0, power=2), 8192), (u(1, power=-1), 8193), (u(1), 8192)):
            with pytest.raises(AlgebraError, match="exponent range"):
                base ** n
        assert (u(0, power=10000) * SP.theta(0)) ** 2 == 0
        assert (1 + SP.theta(3)) ** 2000000 == 1 + 2000000 * SP.theta(3)

    @given(densities(max_theta_degree=1), st.integers(0, 5))
    def test_power_is_repeated_product(self, a, n):
        want = SP.const(1)
        for _ in range(n):
            want = want * a
        assert_same(a ** n, want)

    def test_derivations(self):
        u = SP.u
        assert u(0, power=_E_MAX).dx() == _E_MAX * u(0, power=_E_MAX - 1) * u(1)
        for p in (u(0) * u(1, power=_U1_MAX), u(1, power=_U1_MIN), u(4) * u(5, power=_E_MAX)):
            with pytest.raises(AlgebraError, match="total derivative leaves"):
                p.dx()
        with pytest.raises(AlgebraError, match="partial derivative leaves"):
            u(1, power=_U1_MIN).partial_u(1)
        assert u(1, power=_U1_MIN).partial_u(0) == 0
        assert u(1, power=_U1_MIN).order() == 1 and u(1, power=_U1_MIN).degree() == _U1_MIN
        # no index is negative, so a negative one is refused
        for call in (lambda: u(0).partial_u(-1), lambda: SP.theta(0).partial_theta(-1),
                     lambda: u(1).coefficient_layers(-1)):
            with pytest.raises(AlgebraError, match="jet index must be at least 0, got -1"):
                call()

    @pytest.mark.parametrize("k, e", [(0, _E_MAX), (1, _U1_MAX), (1, _U1_MIN), (300, _E_MAX)])
    def test_largest_exponents_round_trip_through_print(self, k, e):
        p = Fraction(-2, 3) * SP.u(k, power=e) * SP.theta(2)
        assert parse_density(str(p), hat=True) == p

    def test_cli_rejects_a_huge_power_at_once(self):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["dtot", "--", "u^2000000"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert json.loads(out.getvalue())["error"]["code"] == "parse-error"
