"""The theta pass on groups of terms with one odd part, and on lone terms,
against the flat filing and Horner loop it replaced.

A theta-filing files, for every term E theta^t, the left derivative by each
theta_k of t.  Piece j of the group of all terms with odd part t is then a
relabelled copy of the whole group: keys E under the odd part t - bit_k,
times (-1)^(k+i) C(k, lo), i the number of odd factors below theta_k.  d
keeps the odd part of d(E) theta^t and moves theta_k to theta_{k+1} without
touching E, so `algebra._theta_pass` derives and moves whole groups, and at
level 0 with a y it sends a theta_0 group to y and moves it to theta_1,
unless theta_1 is in t.  A density with fewer terms, or fewer terms per odd
part, than `algebra._GROUPED` runs the flat filing and `algebra._horner`
instead; both paths are checked here on every draw.

The reference below is the flat code the engine ran before: the filing of
every term by the entries of its odd part, and the level loop over flat int
dicts with its theta_0 split, each derivative recomputed without a table.
`higher_variational_theta` at levels 0 to 3, `normalize_N`, the
representative of `canonical_class`, its theta_0 part and the delta_theta
read later must equal the reference as polynomials and as items sorted by
key, on polynomial and Laurent densities of theta-degree 1 to 4, with a key
wider than 64 fields (u_70 theta theta_1), with the derivative tables cold
and warm.
"""

import sys
from contextlib import contextmanager
from math import comb

import pytest
from hypothesis import given, strategies as st

from jetbrackets import (
    SuperPolynomial as SP,
    canonical_class,
    higher_variational_theta,
    normalize_N,
    parse_density,
)
from jetbrackets import algebra
from jetbrackets.algebra import (
    _BITS, _MOVES, _THETA, _W, _WIDE, _derive_key, _make, _masks, _theta_moves, _theta_times,
)

from conftest import densities


# ---------------------------------------------------------------------------
# The reference: the flat theta-filing and the flat level loop
# ---------------------------------------------------------------------------

def ref_file(nums, lo, hi=sys.maxsize):
    """The flat theta-filing: every term files the left derivatives by its
    theta_k, lo <= k <= hi, in field order, into int dicts under full keys."""
    pieces = {}
    for m, n in nums.items():
        part, i = m & (_THETA if m < _WIDE else _masks(m)[0]), 0
        while part:
            low = part & -part
            part ^= low
            k = low.bit_length() // _W
            if k > hi:
                break
            if k >= lo:
                v = n * (-1 if (i + k) & 1 else 1)
                if lo:
                    v *= -comb(k, lo) if lo & 1 else comb(k, lo)
                piece = pieces.setdefault(k - lo, {})
                piece[m - low] = piece.get(m - low, 0) + v
            i += 1
    return pieces


def ref_horner(pieces, top, y=None):
    """p_0 + d(p_1 + d(...)) over flat int dicts, one term at a time; with a
    dict y, a level-1 term theta_0 x adds only theta_1 x to level 0 (none
    when theta_1 is in x) and x goes to y."""
    j, acc = top, pieces.get(top, {})
    while j:
        j -= 1
        out = pieces.get(j, {})
        for m, c in acc.items():
            if not c:
                continue
            if y is not None and not j and m & 1:
                y[m - 1] = c
                if not m & _BITS[1]:
                    out[m + _MOVES[0]] = out.get(m + _MOVES[0], 0) + c
                continue
            t = m & (_THETA if m < _WIDE else _masks(m)[0])
            for step, mult in _derive_key(m - t):
                out[m + step] = out.get(m + step, 0) + c * mult
            for step in _theta_moves(t) if t else ():
                out[m + step] = out.get(m + step, 0) + c
        acc = out
    return {m: c for m, c in acc.items() if c}


def ref_pass(a, level, y=None):
    """delta_{level, theta} a as a flat int dict over the denominator of a."""
    pieces = ref_file(a._nums, level)
    return ref_horner(pieces, max(pieces) if pieces else 0, y)


def same(got, want):
    """Equal as polynomials and as numerators sorted by key."""
    assert got == want
    assert (sorted(got._nums.items()), got._D) == (sorted(want._nums.items()), want._D)


# every density on groups, every density flat, and the engine's own choice
_PATHS = {"grouped": (0, 0), "flat": (sys.maxsize, 0), "chosen": algebra._GROUPED}


@contextmanager
def cold_tables(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_DERIV_CACHE", {})
        mp.setattr(algebra, "_FILE_CACHE", {})
        mp.setattr(algebra, "_ITEMS", {})
        mp.setattr(algebra, "_GROUPED", _PATHS[path])
        yield


def check(a, levels=range(4)):
    """Every reader of the theta pass against the reference, on each path,
    cold then warm."""
    D = a._D
    whole = _make(ref_pass(a, 0), D)
    y = {}
    rest = _make(ref_pass(a, 0, y), D)
    for path in _PATHS:
        with cold_tables(path):
            for _ in range(2):
                for level in levels:
                    same(higher_variational_theta(a, level=level), _make(ref_pass(a, level), D))
                same(normalize_N(a), _theta_times(rest, 1))
                if not a:
                    continue
                k = a.theta_degree()
                c = canonical_class(a)
                same(c.rep, _theta_times(rest, k))
                same(c._y, _make(y, D))
                same(c._delta_theta(), whole)


# ---------------------------------------------------------------------------
# The theta pass against the flat one
# ---------------------------------------------------------------------------

@given(densities(1, 4, laurent=False))
def test_polynomial_densities_match_the_flat_pass(a):
    check(a)


@given(densities(1, 4, laurent=True))
def test_laurent_densities_match_the_flat_pass(a):
    check(a)


_WIDE_TERM = SP.u(70) * SP.theta(0) * SP.theta(1)


@given(densities(2, 2), st.sampled_from([1, -2]))
def test_a_key_wider_than_64_fields_matches_the_flat_pass(a, c):
    assert max(_WIDE_TERM._nums) >= _WIDE
    check(a + _WIDE_TERM * c, levels=(0, 1))


@pytest.mark.parametrize("text", [
    "u_70*theta*theta_1",
    # a theta_0 group with theta_1, whose theta_1 move is blocked
    "u*theta*theta_1*theta_2 + u_2*theta*theta_1*theta_2",
    # theta_0 groups with and without theta_1, and groups that meet on a move
    "u*theta*theta_2 + u_3*theta_1*theta_3 + u_1*theta*theta_1 + u_2*theta_2*theta_3",
    "u_1^-1*u_2*theta*theta_1*theta_3 - 2*u^2*theta*theta_2*theta_3",
    "u*u_1*theta*theta_1*theta_2*theta_4 + u_3*theta*theta_1*theta_2*theta_4",
    # two groups of three terms, one of them with theta_0
    "(u + u_2 + u_1^2)*theta*theta_2 + (u*u_1 + u_3 - u_2^2)*theta_1*theta_2",
])
def test_seeded_densities_match_the_flat_pass(text):
    check(parse_density(text, hat="u_1^-" in text))


# ---------------------------------------------------------------------------
# Which path a pass takes
# ---------------------------------------------------------------------------

def _density(parts, powers):
    """sum of u^e theta_0 theta_j over j in 1..parts and e in 1..powers."""
    return sum((SP.u(0, power=e) * SP.theta(0) * SP.theta(j)
                for j in range(1, parts + 1) for e in range(1, powers + 1)), SP())


@pytest.mark.parametrize("parts, powers, flat", [
    (2, 1, True),     # two terms
    (1, 31, True),    # 31 terms, one odd part
    (1, 32, False),   # 32 terms, one odd part
    (11, 3, False),   # 33 terms, three per odd part
    (16, 2, True),    # 32 terms, two per odd part
])
def test_a_small_density_or_one_of_few_terms_per_odd_part_runs_flat(monkeypatch, parts, powers, flat):
    calls, horner = [], algebra._horner

    def counting(pieces, top, y=None):
        calls.append(top)
        return horner(pieces, top, y)

    monkeypatch.setattr(algebra, "_horner", counting)
    a = _density(parts, powers)
    assert algebra._GROUPED == (32, 3) and len(a._nums) == parts * powers
    normalize_N(a)
    higher_variational_theta(a, level=1)
    assert len(calls) == (2 if flat else 0)
