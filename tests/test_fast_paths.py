"""The ring's short paths against frozen references.

`str` prints from the packed keys, one gcd per term; it must print as the
`terms`-based printer in `conftest.ref_str`.  `*` of two one-term polynomials
takes one key sum, one guard test and one Koszul sign; it must agree with the
general product loop `_mul_into` and with the Fraction loop `ref_mul`.  The
parser's generators come from a bounded table of shared, immutable values.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import densities, ref_mul, ref_str
from jetbrackets import AlgebraError, SuperPolynomial as SP, parse_density, parsing
from jetbrackets.algebra import _make, _mul_into

_BIG = st.integers(1, 10 ** 60)


@given(densities(), densities(), _BIG, _BIG, st.booleans())
@example(SP.zero(), SP.zero(), 1, 1, False)
@example(SP.const(Fraction(-7, 3)), SP.zero(), 1, 1, False)
@example(SP.const(1), SP.zero(), 1, 1, True)
@example(SP.u(70) * SP.theta(65), -SP.u(1, power=-3) * SP.theta(64), 5, 9, True)
@example(SP.theta(1), 2 * SP.theta(0) * SP.theta(2), 1, 1, False)  # fewer odd factors first
def test_printing_from_keys_matches_the_terms_printer(p, other, num, den, negate):
    p = p + other  # of mixed theta-degree when the two differ
    q = p * Fraction(-num if negate else num, den)
    assert str(q) == ref_str(q)
    assert str(p) == ref_str(p)
    assert [m for m, _ in q.sorted_terms()] == \
        sorted(q.terms, key=lambda m: (len(m[1]), m[1], m[0]))


@pytest.mark.parametrize("p", [
    SP.const(10 ** 5000),
    SP.u(2) * Fraction(1, 10 ** 5000) + SP.theta(0),
    SP.theta(1) * (3 ** 9100) - SP.u(0),  # 4342 digits
])
def test_a_coefficient_past_the_digit_limit_is_refused_alike(p):
    with pytest.raises(AlgebraError) as ref:
        ref_str(p)
    with pytest.raises(AlgebraError) as got:
        str(p)
    assert str(got.value) == str(ref.value)
    assert "int/str conversion limit" in str(got.value)


def _indices():
    # the usual fields, and a few past the 64 that the tables store
    return st.one_of(st.integers(0, 5), st.integers(63, 66))


@st.composite
def monomials(draw):
    """A one-term polynomial c m from the public constructor: u_k^e factors
    (u_1 also to negative powers) and odd factors in any order."""
    even = []
    for k in draw(st.lists(_indices(), max_size=3)):
        e = draw(st.integers(-4, 4).filter(bool) if k == 1 else st.integers(1, 4))
        even.append(((1, k), e))
    odd = [(1, k) for k in draw(st.lists(_indices(), max_size=3, unique=True))]
    c = Fraction(draw(st.integers(-30, 30).filter(bool)), draw(st.integers(1, 12)))
    return SP({(tuple(even), tuple(odd)): c})


def _loop_product(a, b):
    return _make(_mul_into({}, a._nums, b._nums, 1), a._D * b._D)


@given(monomials(), monomials())
@example(SP.theta(1), SP.theta(0))                                      # Koszul sign
@example(SP.theta(0) * SP.theta(2), SP.theta(1) * SP.theta(3))          # two inversions
@example(SP.theta(1) * SP.u(2), SP.theta(1) * SP.theta(2) * 3)          # theta^2 = 0
@example(SP.u(1, power=-5) * SP.theta(65), SP.u(1, power=5) * SP.theta(64))
def test_one_term_product_matches_the_product_loop(a, b):
    assert len(a._nums) == len(b._nums) == 1
    got, want = a * b, _loop_product(a, b)
    assert (got._nums, got._D) == (want._nums, want._D)
    assert got.terms == ref_mul(a.terms, b.terms)


def test_a_theta_collision_gives_the_canonical_zero():
    z = (SP.u(1, power=8191) * SP.theta(0)) * (SP.u(1) * SP.theta(0) * Fraction(1, 3))
    assert z == SP.zero() and z._D == 1 and not z._nums  # the collision wins over the range


@pytest.mark.parametrize("a, b", [
    (SP.u(1, power=8191), SP.u(1)),
    (SP.u(1, power=-8192) * SP.theta(2), SP.u(1, power=-1)),
    (SP.u(2, power=16383), SP.u(2) * SP.theta(0)),
    (SP.u(70, power=16383), SP.u(70)),
])
def test_a_one_term_product_out_of_range_is_refused_as_by_the_loop(a, b):
    with pytest.raises(AlgebraError) as ref:
        _loop_product(a, b)
    with pytest.raises(AlgebraError) as got:
        a * b
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("a product leaves the supported exponent range")


def test_the_parser_shares_its_generators_in_a_bounded_table():
    assert parse_density("u_3") == parse_density(" u_3 ") == SP.u(3)
    assert parse_density("u_03") == SP.u(3) and parse_density("theta_2") == SP.theta(2)
    parse_density("u_123 + theta_1000")
    assert "u_123" not in parsing._ATOMS and "theta_1000" not in parsing._ATOMS
    assert all(len(name.partition("_")[2]) < 3 for name in parsing._ATOMS)
    # shared numerators are never changed by the arithmetic on them, and no
    # parsed value holds them
    u3 = parse_density("u_3")
    shared = parsing._ATOMS["u_3"][0]
    assert shared == {next(iter(SP.u(3)._nums)): 1}
    x = parse_density("u_3*u_3 + 2*u_3 - u_3 + d(u_3) + u_3^1 + (u_3)^2")
    assert x == SP.u(3) ** 2 * 2 + SP.u(3) * 2 + SP.u(4)
    assert u3 == SP.u(3) and parse_density("u_3") == u3
    assert shared == {next(iter(SP.u(3)._nums)): 1} and parsing._ATOMS["u_3"][0] is shared
    assert u3._nums is not shared and x._nums is not shared
