"""The parser of `jetbrackets.parsing` against the reference parser in
`tests/parser_reference.py`, the parser as it was before it parsed into ring
numerators.

On every drawn text, in density and in operator mode, with hat mode on and
off, both give an equal value or an equal `ParseError`.  Equal values have
the same numerators in the same order and the same denominator, so a caller
that walks a parsed polynomial meets its terms in the same order.  Equal
errors have the same message, column, token and expected set.  Every kind of
refusal is drawn, and is also listed once below with a fragment of its
message, so that each is known to be reached.
"""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import parser_reference as reference
from jetbrackets import parsing
from jetbrackets.parsing import ParseError


def _outcome(parse, text, hat):
    try:
        value = parse(text, hat)
    except ParseError as exc:
        return "refused", str(exc), exc.column, exc.token, exc.expected
    if isinstance(value, parsing.DiffOperator):
        return "operator", [(j, list(p._nums.items()), p._D) for j, p in value.coeffs.items()]
    return "density", list(value._nums.items()), value._D


def agree(text, hat, operator):
    """The outcome of text, the same from both parsers."""
    new = _outcome(parsing.parse_operator if operator else parsing.parse_density, text, hat)
    old = _outcome(reference.parse_operator if operator else reference.parse_density, text, hat)
    assert new == old, (text, hat, operator)
    return new


# pieces of text, valid and not, that a drawn text is spliced from
_PIECES = [
    "u", "u_1", "u_2", "u_03", "u_123", "theta", "theta_1", "theta_2", "theta_100", "del",
    "d", "d(", "(", ")", "+", "-", "*", "^", "/", "0", "1", "2", "7", "3/2", "1/0", "0/4",
    "^-1", "^2", "^0", "^-0", "^16383", "^16384", "^8192", "^-8192", "^-8193", "^99",
    "u_", "theta_", "x", "u_x", "u_1_2", "U", "D:", "u2", "x_3", "d_1", "_", "dd",
    "$", ".", ",", "²", "١", "é", "½", " ", "  ", "\t", "\n", " ",
    " ", "\x1c", "1" * 4400, "u_" + "1" * 4400, "u_1^-1", "u_21", "u_1^-8192",
]
_SOUP = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)

# well-formed pieces, and ways to combine them, so that drawn texts get past
# the first token and reach the arithmetic, its range errors and the bounds
_LEAVES = st.sampled_from([
    "u", "u_1", "u_2", "u_3", "theta", "theta_1", "theta_2", "2", "1/3", "-3/4", "0",
    "u_1^-1", "u_1^-2", "u^2", "u_2^3", "theta_1^2", "u^0", "u_2^8200", "u_1^-8192",
    "u_1^8191", "u_21", "del", "del^2", "del^0", "1*del", "u*del", "10^30",
])
_JOINS = st.sampled_from(["*", " * ", "+", " - ", "-", "+-", "*-"])
# products of several factors, odd ones among them, and sums of those: the
# printed form of a density, and where the Koszul signs of products show
_TERMS = st.lists(_LEAVES, min_size=1, max_size=5).map("*".join)
_SUMS = st.lists(st.tuples(st.sampled_from(["+", " - ", "+-"]), _TERMS), min_size=1,
                 max_size=4).map(lambda ts: "".join(sign + t for sign, t in ts)[1:])
_EXPRS = st.recursive(st.one_of(_LEAVES, _TERMS, _SUMS), lambda inner: st.one_of(
    st.tuples(inner, _JOINS, inner).map("".join),
    inner.map(lambda s: f"({s})"),
    inner.map(lambda s: f"d({s})"),
    inner.map(lambda s: "-" + s),
    st.tuples(inner, st.sampled_from(["^2", "^-1", "^0", "^1", "^-2"])).map(
        lambda t: f"({t[0]}){t[1]}"),
), max_leaves=10)


@settings(max_examples=400)
@given(text=st.one_of(_SOUP, _EXPRS), prefix=st.sampled_from(["", "D: ", " D:"]),
       hat=st.booleans(), operator=st.booleans())
def test_drawn_texts_agree(text, prefix, hat, operator):
    agree(prefix + text, hat, operator)


@settings(max_examples=200)
@given(a=_EXPRS, b=_EXPRS, hat=st.booleans())
def test_drawn_operator_sums_agree(a, b, hat):
    agree(f"D: {a}*del + {b} - {a}*del^2 + 2*del", hat, True)


# values whose terms must come out with the same signs and in the same
# order: odd factors out of order, a term that cancels and comes back, sums
# of del terms, and the same term reached through products and powers
_VALUES = [
    ("theta_1*theta", False, False),
    ("theta_2*u*theta*u_1*theta_1", False, False),
    ("theta_1*(theta + theta_2)*(theta_3 - theta)", False, False),
    ("u - u + u_2 + u", False, False),
    ("u*theta_1 + u_1 - theta_1*u + u_2 + u*theta_1", False, False),
    ("(u + theta)*(u - theta) + 2/4*u_1^-1*u_1", True, False),
    ("d(theta*theta_1*u) - u*theta*theta_2", False, False),
    ("(theta + theta_1)^2 + (u + u_1)^3 - u^3", False, False),
    ("D: u*del - u*del + u_1 + del^2 - 1/2*u*del", False, True),
    ("D: 2*del^0 + del*del + (u)*del^3 - u_1", False, True),
]


@pytest.mark.parametrize("text, hat, operator", _VALUES, ids=[t for t, _, _ in _VALUES])
def test_each_value_agrees(text, hat, operator):
    assert agree(text, hat, operator)[0] != "refused"


# each refusal of the parser, with a fragment of its message
_REFUSALS = [
    ("u_x", False, False, "bad subscript in 'u_x'"),
    ("u_*theta_", False, False, "bad subscript in 'u_'"),
    ("x_3 + u", False, False, "unknown variable 'x_3'"),
    ("u u_1", False, False, "trailing input 'u_1'"),
    ("u)", False, False, "trailing input ')'"),
    ("(u", False, False, "expected ')'"),
    ("d u", False, False, "expected '(', found 'u'"),
    ("u^x", False, False, "expected 'int', found 'x'"),
    ("u*+", False, False, "unexpected token '+'"),
    ("", True, False, "unexpected token ''"),
    ("u + $", False, False, "unexpected character '$'"),
    ("u_x + ²u", False, False, "unexpected character '²'"),
    ("3/0*u", False, False, "zero denominator"),
    ("(" * 101 + "u" + ")" * 101, False, False, "more than 100 nested factors"),
    ("-" * 100 + "u", False, False, "more than 100 nested factors"),
    ("d(" * 101 + "u" + ")" * 101, False, False, "more than 100 nested factors"),
    ("(1+u)^8000", False, False, "a power whose terms may need more than"),
    ("d(u_1^-1*u_21)", True, False, "d(...) of an operand with a negative power"),
    ("d(u*del)", False, True, "d(...) takes a density"),
    ("del*u", False, True, "'del' must be the last factor"),
    ("del*1", False, True, "'del' must be the last factor"),
    ("(u*del + u)", False, True, "'del' terms cannot be grouped"),
    ("(u + del)", False, True, "'del' terms cannot be grouped"),
    ("(u*del)^2", False, True, "only 'del^j' with j >= 0"),
    ("del^-1", False, True, "only 'del^j' with j >= 0"),
    ("u*del", False, False, "'del' is only valid after"),
    ("theta*del", False, True, "operator coefficients must be even"),
    ("(u + u_1)^-1", True, False, "negative powers apply to a single variable only"),
    ("u^-1", True, False, "negative powers are only allowed for u_1"),
    ("theta_1^-1", True, False, "negative powers are only allowed for u_1"),
    ("u_1^-1", False, False, "in hat mode (use --hat)"),
    ("(2*u_1)^-1", True, False, "negative powers apply to the bare variable"),
    ("u_2^10000*u_2^10000", False, False, "a product leaves the supported exponent range"),
    ("u_2^16384", False, False, "u_2^16384 leaves the supported exponent range"),
    ("(u_1^-2)^5000", True, False, "u_1^-10000 leaves the supported exponent range"),
    ("u_1^-8193", True, False, "u_1^-8193 leaves the supported exponent range"),
    ("d(u_1^-8192)", True, False, "a total derivative leaves"),
]


@pytest.mark.parametrize("text, hat, operator, fragment", _REFUSALS,
                         ids=[f"{t[:24]}-{h:d}{o:d}" for t, h, o, _ in _REFUSALS])
def test_each_refusal_agrees(text, hat, operator, fragment):
    outcome = agree(text, hat, operator)
    assert outcome[0] == "refused" and fragment in outcome[1], outcome


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _LIMIT < 5000, reason="no int/str digit limit below 5000")
@pytest.mark.parametrize("text", ["1" * 5000, "u_" + "1" * 5000, "u^" + "1" * 5000,
                                  "1/" + "1" * 5000, "u^-" + "1" * 5000])
def test_too_many_digits_agree(text):
    outcome = agree(text, True, False)
    assert outcome[0] == "refused" and "digits is too long" in outcome[1]


def test_the_scan_splits_characters_as_the_old_loop_did():
    # whitespace is what no alternative of the token pattern matches, and a
    # name runs over \w: on every code point, str.isspace() and
    # str.isalnum() or "_", which the old loop tested
    space, word = re.compile(r"\s"), re.compile(r"\w")
    for i in range(sys.maxunicode + 1):
        ch = chr(i)
        assert bool(space.match(ch)) == ch.isspace(), hex(i)
        assert bool(word.match(ch)) == (ch.isalnum() or ch == "_"), hex(i)
