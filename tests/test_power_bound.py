"""The parser's bound on powers: p^n is refused at its `^`, before any
product, when `parsing._power_size` passes `_MAX_POWER_SIZE` bits.

The size bounds, for every k <= n, the terms of p^k (a term multiplies
distinct terms with a theta factor and theta-free ones) and the bits of
their numerators and denominator; these tests hold it to that.
"""

import json
import time

import pytest
from hypothesis import given, strategies as st

from conftest import densities
from jetbrackets import ParseError, SuperPolynomial as SP, parse_density
from jetbrackets.algebra import _numerators
from jetbrackets.cli import main
from jetbrackets.parsing import _MAX_POWER_SIZE, _power_size


@given(densities(), st.integers(0, 6))
def test_the_size_bounds_every_power_up_to_n(p, n):
    size = _power_size(p, n)
    nums, D = _numerators(p)
    bits = n * (max(sum(map(abs, nums.values())), D) - 1).bit_length()
    if size > _MAX_POWER_SIZE:
        return  # counting stopped early; the power is refused
    for k in range(n + 1):
        qn, qD = _numerators(p ** k)
        assert 64 * len(qn) <= size
        assert qD <= 2 ** bits and all(abs(c) <= 2 ** bits for c in qn.values())


def _pairs(m):
    """theta_0 theta_1 + theta_2 theta_3 + ..., m even terms with theta
    factors: each squares to 0, but p^k has C(m, k) terms."""
    out = SP.zero()
    for i in range(m):
        out = out + SP.theta(2 * i) * SP.theta(2 * i + 1)
    return out


def test_terms_with_theta_factors_are_counted():
    p = _pairs(40)
    assert _power_size(p, 20) > _MAX_POWER_SIZE  # p^16 alone has C(40, 16) terms
    assert _power_size(_pairs(3), 4) == 64 * 8  # p^4 = 0, p^k has C(3, k) terms
    assert parse_density("(theta*theta_1 + theta_2*theta_3 + theta_4*theta_5)^4") == 0
    # a term with a theta factor repeats at most once: (u + theta)^n = u^n + n u^(n-1) theta,
    # whose coefficients are bounded by 2^n
    assert _power_size(SP.u(0) + SP.theta(0), 9000) == 2 * 9000
    assert parse_density("(u + theta)^9000") == \
        SP.u(0, power=9000) + 9000 * SP.u(0, power=8999) * SP.theta(0)


def test_the_largest_accepted_power_of_a_binomial():
    assert _power_size(parse_density("1 + u"), 999) == 1000 * 999
    assert len(_numerators(parse_density("(1+u)^999"))[0]) == 1000
    with pytest.raises(ParseError) as err:
        parse_density("(1+u)^1000")
    assert (err.value.column, err.value.token) == (6, "^")


# the even terms theta_0 theta_1 + ... + theta_38 theta_39, to the 10th power
_PAIRS = " + ".join(f"theta_{2 * i}*theta_{2 * i + 1}" for i in range(20))


@pytest.mark.parametrize("text", [
    "(1+u)^8000",
    "3^30000000",
    "(u_1 + u_1^-1)^5000",
    f"({_PAIRS})^10",
])
def test_a_large_power_is_refused_by_the_cli_before_it_is_computed(capsys, text):
    column = text.rindex("^") + 1
    start = time.perf_counter()
    assert main(["dtot", "--hat", "--", text]) == 2
    assert time.perf_counter() - start < 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["column"]) == ("parse-error", column)
    assert err["message"] == \
        f"a power whose terms may need more than {_MAX_POWER_SIZE} bits at column {column}"
