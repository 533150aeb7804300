"""The Schouten bracket's density in one pass, and theta times a density by a
key shift.

`schouten_bracket` accumulates both products of its density,
(-1)^(|F|+1) delta_theta F . delta_u G - delta_u F . delta_theta G, into one
int dict through `algebra._mul_into`, the loop of `SuperPolynomial.__mul__`.
The reference below is the formula it replaced, written with the ring's
operators: the first product in canonical form, times the sign, then minus
the second.  The density must equal it as a list of items, so the insertion
order of every key is pinned, including a key that cancels in the first
product and comes back in the second.  The two products, and the variational
derivatives they read, are formed in the reference's order, so an exponent
overflow raises the reference's error.

`algebra._theta_times` forms theta x / k by setting bit 0 on the theta_0-free
keys of x (theta_0 sorts first, so the sign is +1); it must equal
`theta * x / k` item for item, on polynomial and Laurent densities, on
densities with theta_0 terms, on keys wider than 64 fields and on every
column that `dkdv.symmetry_space` forms.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetbrackets import (
    AlgebraError,
    DiffOperator,
    GradedSlice,
    SuperPolynomial as SP,
    canonical_class,
    enumerate_basis,
    higher_variational_theta,
    normalize_N,
    operator_to_bivector,
    parse_density,
    schouten_bracket,
)
from jetbrackets import algebra, schouten, variational
from jetbrackets.algebra import _mul_into, _numerators, _theta_times
from jetbrackets.cli import main

from conftest import densities, rand_density


def items(p):
    nums, D = _numerators(p)
    return list(nums.items()), D


def reference_density(a, b):
    """The bracket's density as the ring's operators form it."""
    sign = 1 if (a.theta_degree + 1) % 2 == 0 else -1
    density = SP()
    dtF, dtG = a._delta_theta(), b._delta_theta()
    if dtF:
        density = density + dtF * b._delta_u() * sign
    if dtG:
        density = density - a._delta_u() * dtG
    return density


def bracket_density(a, b, monkeypatch):
    """(the bracket, the density it put in canonical form or None)."""
    seen = []
    to_class = schouten._class_of_degree

    def recording(density, k):
        seen.append((density, k))
        return to_class(density, k)

    with monkeypatch.context() as mp:
        mp.setattr(schouten, "_class_of_degree", recording)
        out = schouten_bracket(a, b)
    assert len(seen) <= 1
    if seen:
        assert seen[0][1] == out.theta_degree == a.theta_degree + b.theta_degree - 1
        return out, seen[0][0]
    return out, None


def check_pair(a, b, monkeypatch):
    """The bracket's density and class against the reference; returns the
    reference density."""
    # fresh classes, so each side differentiates its own operands
    a1, b1 = (canonical_class(x.rep) for x in (a, b))
    a2, b2 = (canonical_class(x.rep) for x in (a, b))
    want = reference_density(a1, b1)
    got, density = bracket_density(a2, b2, monkeypatch)
    if a.is_zero() or b.is_zero() or not want:
        assert got.is_zero() and density is None
    else:
        assert items(density) == items(want)
        ref = canonical_class(want)
        assert items(got.rep) == items(ref.rep)
        assert got.theta_degree == ref.theta_degree
        assert items(got._delta_theta()) == items(ref._delta_theta())
    return want


# ---------------------------------------------------------------------------
# The density against the reference
# ---------------------------------------------------------------------------

@given(densities(), densities())
def test_density_matches_the_reference(a, b):
    with pytest.MonkeyPatch.context() as mp:
        check_pair(canonical_class(a), canonical_class(b), mp)
        check_pair(canonical_class(b), canonical_class(a), mp)
        check_pair(canonical_class(a), canonical_class(a), mp)


def test_seeded_pairs_cover_every_case(monkeypatch):
    """Seeded pairs hit each case the fused path distinguishes: a zero
    delta_theta on either side, a density with D != 1, Laurent operands and
    products over different denominators."""
    rng = random.Random(20261019)
    seen = Counter()
    for i in range(160):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        laurent = 2 if i % 3 == 0 else 0
        a = canonical_class(rand_density(rng, ka, 3, rng.randint(1, 3), 2, laurent=laurent))
        b = canonical_class(rand_density(rng, kb, 3, rng.randint(1, 3), 2, laurent=laurent))
        want = check_pair(a, b, monkeypatch)
        if a.is_zero() or b.is_zero() or not want:
            continue
        seen["laurent"] += laurent > 0
        seen["dtF zero"] += not a._delta_theta()
        seen["dtG zero"] += not b._delta_theta()
        seen["D != 1"] += _numerators(want)[1] != 1
        if a._delta_theta() and b._delta_theta():
            d1 = _numerators(a._delta_theta())[1] * _numerators(b._delta_u())[1]
            d2 = _numerators(a._delta_u())[1] * _numerators(b._delta_theta())[1]
            seen["unequal denominators"] += d1 != d2
    assert all(seen[case] >= 3 for case in ("laurent", "dtF zero", "dtG zero", "D != 1",
                                            "unequal denominators")), seen


def test_pencil_brackets_match_the_reference(monkeypatch):
    P = operator_to_bivector(DiffOperator.d(1))
    Q = operator_to_bivector(DiffOperator({1: SP.u(0), 0: SP.u(1) / 2}))
    u, th = SP.u, SP.theta
    for density in (u(0) ** 2 * u(2) * th(0),
                    u(0) * th(0) * th(2) + u(1, power=-1) * th(0) * th(1),
                    u(0) ** 3 * u(2)):
        c = canonical_class(density)
        for H in (P, Q):
            check_pair(H, c, monkeypatch)
            check_pair(c, H, monkeypatch)


def test_a_key_that_cancels_in_the_first_product_comes_back_last(monkeypatch):
    """The key that cancels in delta_theta F . delta_u G is dropped there and
    comes back with delta_u F . delta_theta G, after the first product's
    other keys, where the reference's sum puts it."""
    a = canonical_class(parse_density("2*u_1*u_2*theta*theta_1 + theta*theta_2"))
    b = canonical_class(parse_density("-4/3*u_1*u_2*theta*theta_2 - 2*u_1^2*theta*theta_2"))
    first, second = {}, {}
    _mul_into(first, *(_numerators(p)[0] for p in (a._delta_theta(), b._delta_u())), 1)
    _mul_into(second, *(_numerators(p)[0] for p in (a._delta_u(), b._delta_theta())), 1)
    back = [m for m, c in first.items() if not c and second.get(m)]
    assert back
    keys = list(_numerators(check_pair(a, b, monkeypatch))[0])
    # without the drop, the key would keep the place the first product gave it
    assert [m for m in {**first, **second} if m in keys] != keys


# ---------------------------------------------------------------------------
# Exponent overflow: the reference's order of evaluation and its error
# ---------------------------------------------------------------------------

_PRODUCT = ("a product leaves the supported exponent range "
            "(0..16383 for u_k, -8192..8191 for u_1)")
_PARTIAL = ("a partial derivative leaves the supported exponent range "
            "(0..16383 for u_k, -8192..8191 for u_1)")


@pytest.mark.parametrize("argv, message", [
    (["bracket", "--", "u^10000*theta", "u^10000*theta_1*theta"], _PRODUCT),
    (["bracket", "--", "u^10000*theta*theta_1", "u^8000*u_1*theta"], _PRODUCT),
    # the first product overflows before delta_u F, which would raise too
    (["bracket", "--hat", "--", "u_1^-8192*theta", "u_1^-1*u*theta"], _PRODUCT),
    # delta_u G comes first, and raises before either product
    (["bracket", "--hat", "--", "u_1^-1*u*theta", "u_1^-8192*theta"], _PARTIAL),
])
def test_an_overflowing_bracket_exits_two_with_the_reference_message(capsys, argv, message):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == \
        {"error": {"code": "algebra-error", "message": message}}


def test_the_first_overflow_is_raised_in_process():
    a = canonical_class(parse_density("u_1^-8192*theta", hat=True))
    b = canonical_class(parse_density("u_1^-1*u*theta", hat=True))
    with pytest.raises(AlgebraError, match="^a product leaves"):
        schouten_bracket(a, b)
    assert a._du is None  # delta_u F was never reached


# ---------------------------------------------------------------------------
# theta times a density by a key shift
# ---------------------------------------------------------------------------

_WIDE = (SP.u(70) * SP.theta(100), SP.u(1, power=-1) * SP.u(64) * SP.theta(0) * SP.theta(65),
         SP.theta(64), SP.u(0) * SP.theta(1) * SP.theta(200))


@given(densities(), st.lists(st.sampled_from(_WIDE), max_size=2),
       st.sampled_from([1, 2, 3, 4, 6]), st.sampled_from([1, Fraction(3, 2), -5]))
def test_theta_shift_matches_the_product(a, wide, k, c):
    x = a
    for w in wide:
        x = x + w * c
    theta = SP.theta(0)
    assert items(_theta_times(x, 1)) == items(theta * x)
    assert items(_theta_times(x, k)) == items(theta * x / k)


def test_theta_shift_drops_the_theta_0_terms():
    th, u = SP.theta, SP.u
    x = u(0) * th(0) + u(2) * th(1) - Fraction(2, 3) * th(0) * th(64) + u(1) * th(65)
    assert items(_theta_times(x, 3)) == items(th(0) * x / 3)
    assert _theta_times(th(0) * u(3), 1).is_zero()


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_theta_shift_matches_the_symmetry_space_columns(cap):
    # `symmetry_space` keys its columns by theta b for every basis monomial b
    theta = SP.theta(0)
    for ell in range(1, 8):
        for b in enumerate_basis(GradedSlice(max_order=ell, max_udeg=cap), 0, ell):
            assert items(_theta_times(b, 1)) == items(b * theta)


@given(densities(min_theta_degree=1))
def test_normal_forms_match_theta_times_delta_theta(a):
    theta = SP.theta(0)
    dtheta = higher_variational_theta(a)
    assert items(normalize_N(a)) == items(theta * dtheta)
    if a:
        c = canonical_class(a)
        assert items(c.rep) == items(theta * dtheta / a.theta_degree())


# ---------------------------------------------------------------------------
# The counted kernels are the ones the fused paths call
# ---------------------------------------------------------------------------

def test_the_derivative_step_is_reached_through_the_module(monkeypatch):
    """_variational, dx and _integrate call `algebra._horner` through the
    module global, so a patch of it (the reference of the derivative-table
    tests) is what they run; a class reads its carried theta_0 part through
    the variational module's name for the same kernel."""
    steps, reads = [], []
    step = algebra._horner

    def counting(pieces, top, y=None):
        steps.append(y is not None)
        return step(pieces, top, y)

    def reading(pieces, top, y=None):
        reads.append(1)
        return step(pieces, top, y)

    monkeypatch.setattr(algebra, "_horner", counting)
    monkeypatch.setattr(variational, "_horner", reading)
    a = parse_density("u*u_3*theta*theta_1 + u_1^2*theta*theta_2")
    higher_variational_theta(a)
    assert steps == [False]
    steps.clear()
    schouten_bracket(canonical_class(a), canonical_class(parse_density("u_2*u*theta")))
    # two canonical forms of the operands and one of the bracket, split at
    # theta_0, and the first operand's theta_0 part read; u u_2 theta has
    # none, so its delta_theta came with its canonical form
    assert steps.count(True) == 3 and len(reads) == 1
