"""The derivative table keyed by the even and odd parts of a monomial,
against the per-monomial derivation it replaced.

d is an even derivation, so d(E theta^t) = d(E) theta^t + E d(theta^t):
`algebra._horner` splits each key into its theta-free part E and its odd
part t and reads the derivatives of both from one table.  The reference
below is the kernel before that split: one table entry per monomial, built
by `_derive_key_per_monomial`, kept here as the oracle, with the level loop
that dropped the zeros after every application of d.  Every result must
equal it as a list of items, so the insertion order of each dict is pinned
too, with the table cold and warm, on polynomial and Laurent keys, on
blocked moves theta_k theta_{k+1} and on keys wider than 64 fields.  A part
wider than 64 fields is derived on each use and never stored; a narrower
part of such a key is stored like any other.

The filing sweep `algebra._file` reads a second table of the same parts,
its filing entries; it is checked the same way against the per-term walk
it replaced, `_file_per_term`.  D_P (`algebra._koszul_dP`) and the action
of a vector field (`EvolutionaryVF.apply`) take their partial derivatives
by u from one filing each; they are checked against the field walk of D_P
and the per-index partial_u loop they replaced.
"""

from contextlib import contextmanager
from math import comb, inf

import pytest
from hypothesis import given, strategies as st

from jetbrackets import (
    AlgebraError,
    EvolutionaryVF,
    SuperPolynomial as SP,
    canonical_class,
    normalize_N,
    schouten_bracket,
)
from jetbrackets import algebra, variational
from jetbrackets.algebra import (
    _BIAS, _E_MAX, _FIELD, _THETA, _U1_MIN, _U1_MAX, _W, _WIDE,
    _derive_key, _exponent, _fields, _file, _horner, _integrate, _key_order, _koszul_dP,
    _make, _masks, _pack, _range_error, _theta_moves, _variational,
)
from conftest import densities, rand_density


# ---------------------------------------------------------------------------
# The reference: d of a monomial from one walk over all of its fields
# ---------------------------------------------------------------------------

def _derive_key_per_monomial(m):
    """d of the monomial with key m, as ((key, multiplier), ...): the even
    factors first (Leibniz, u_k^e -> e u_k^(e-1) u_{k+1}), then the odd ones,
    an even derivation, so theta_k -> theta_{k+1} keeps its place and sign
    and is dropped when theta_{k+1} is there already."""
    ents, odd = [], []
    fields = _fields(m)
    for k in range(len(fields) - 1):
        f, up = fields[k], fields[k + 1]
        if not f and k != 1:  # the u_1 field of u_1^-8192 is 0
            continue
        e = (f >> 1) - _BIAS if k == 1 else f >> 1
        shift = _W * k
        if e:
            if e == _U1_MIN or up >> 1 == _E_MAX:
                raise _range_error("a total derivative")
            ents.append((m + (2 << (shift + _W)) - (2 << shift), e))
        if f & 1 and not up & 1:
            odd.append((m + (1 << (shift + _W)) - (1 << shift), 1))
    return tuple(ents + odd)


def ref_add_derivative(out, terms):
    get = out.get
    for m, c in terms.items():
        for key, mult in _derive_key_per_monomial(m):
            out[key] = get(key, 0) + c * mult
    return {m: c for m, c in out.items() if c}


def ref_horner(pieces, top, y=None):
    """p_0 + d(p_1 + d(... + d(p_top))) as one reference step per level,
    each dropping the zeros it leaves; the theta_0 split is checked in
    test_deferred_theta."""
    assert y is None
    acc = pieces.get(top, {})
    for j in range(top - 1, -1, -1):
        acc = ref_add_derivative(pieces.get(j, {}), acc)
    return acc


@contextmanager
def reference_kernel():
    """Run the module's own code paths (dx, _variational, _integrate) on the
    reference derivation and level loop instead of the table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_horner", ref_horner)
        yield


@contextmanager
def cold_table():
    """Empty derivative and filing tables; yields the derivative table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_DERIV_CACHE", {})
        mp.setattr(algebra, "_FILE_CACHE", {})
        yield algebra._DERIV_CACHE


def outcome(f):
    """f(), or the type and message of the AlgebraError it raises."""
    try:
        return f()
    except AlgebraError as exc:
        return AlgebraError, str(exc)


def items(p):
    """A polynomial as its ordered numerators and denominator."""
    return p if p is None else (list(algebra._numerators(p)[0].items()), p._D)


# ---------------------------------------------------------------------------
# Drawn keys: polynomial and Laurent, blocked moves, extreme exponents and
# indices past field 63
# ---------------------------------------------------------------------------

_INDICES = st.one_of(st.integers(0, 5), st.integers(61, 66), st.sampled_from([127, 300]))


@st.composite
def keys(draw):
    even = {}
    for k in draw(st.lists(_INDICES, max_size=4)):
        even[k] = draw(st.sampled_from([1, 2, 3, _E_MAX - 1, _E_MAX]))
    even[1] = min(even.get(1, 0), _U1_MAX)
    if draw(st.booleans()):
        even[1] = -draw(st.sampled_from([1, 2, 5, -_U1_MIN - 1, -_U1_MIN]))
    odd = set(draw(st.lists(_INDICES, max_size=4)))
    for k in draw(st.lists(_INDICES, max_size=2)):  # blocked moves
        odd |= {k, k + 1}
    return _pack((tuple(((1, k), e) for k, e in even.items()),
                  tuple((1, k) for k in sorted(odd))))


@st.composite
def short_keys(draw, laurent=True):
    """Keys of at most three factors u_k, u_1^-1, theta_k or a blocked pair
    theta_k theta_{k+1}, k <= 4 or 63, 64, and no u_1^-1 with k >= 63: a
    variational derivative or a descent takes as many d steps as the order,
    d^n of f factors has about n^(f-1) terms, and d^n of u_1^-1 has p(n)."""
    factors = draw(st.lists(st.tuples(st.sampled_from("uutb" + "l" * laurent),
                                      st.one_of(st.integers(0, 4), st.sampled_from([63, 64]))),
                            max_size=3))
    wide = any(k >= 63 for _, k in factors)
    even, odd = {}, set()
    for kind, k in factors:
        if kind == "l":
            even[1] = even.get(1, 0) + (1 if wide else -1)
        elif kind == "u":
            even[k] = even.get(k, 0) + 1
        else:
            odd |= {k} if kind == "t" else {k, k + 1}
    return _pack((tuple(((1, k), e) for k, e in even.items()),
                  tuple((1, k) for k in sorted(odd))))


def int_dicts(keys=keys(), size=6):
    return st.dictionaries(keys, st.integers(-6, 6).filter(bool), max_size=size)


# ---------------------------------------------------------------------------
# The kernel against the reference
# ---------------------------------------------------------------------------

@given(int_dicts(), int_dicts())
def test_add_derivative_matches_the_reference_cold_and_warm(terms, out):
    # one level of the kernel is out + d(terms)
    want = outcome(lambda: list(ref_add_derivative(dict(out), terms).items()))
    with cold_table():
        for _ in range(2):  # cold, then warm
            assert outcome(lambda: list(_horner({0: dict(out), 1: terms}, 1).items())) == want
            assert outcome(lambda: list(_horner({1: terms}, 1).items())) == \
                outcome(lambda: list(ref_add_derivative({}, terms).items()))


@given(st.dictionaries(st.integers(0, 4), int_dicts(short_keys(), 4), min_size=1))
def test_horner_matches_the_reference_level_loop(pieces):
    # terms that cancel at one level are skipped when the next reads them,
    # where the reference dropped them: the same items in the same order
    top = max(pieces)
    want = outcome(lambda: list(ref_horner({j: dict(p) for j, p in pieces.items()}, top).items()))
    with cold_table():
        got = outcome(lambda: list(_horner({j: dict(p) for j, p in pieces.items()}, top).items()))
    assert got == want


def test_horner_skips_a_term_that_cancelled_a_level_up():
    # at level 1, u u_2 of d(u u_1) cancels against the -u u_2 of p_1; level
    # 0 skips its zero, where deriving it would file u_1 u_2 before u_6
    u = SP.u
    key = lambda p: next(iter(p._nums))  # noqa: E731
    pieces = {1: {key(u(0) * u(2)): -1, key(u(5)): 1}, 2: {key(u(0) * u(1)): 1}}
    want = [(key(u(6)), 1), (key(u(1) * u(2)), 2)]
    assert list(ref_horner({j: dict(p) for j, p in pieces.items()}, 2).items()) == want
    assert list(_horner(pieces, 2).items()) == want


@given(int_dicts(short_keys()), st.integers(0, 3), st.sampled_from([1, 2, 6]))
def test_dx_matches_the_reference(nums, n, D):
    p = _make(nums, D)
    with reference_kernel():
        want = items(p.dx(n))
    with cold_table():
        for _ in range(2):  # cold, then warm
            assert items(p.dx(n)) == want


@given(int_dicts(short_keys(), 3), st.booleans(), st.integers(0, 2), st.sampled_from([1, 4]))
def test_variational_matches_the_reference(nums, odd, level, D):
    p = _make(nums, D)
    with reference_kernel():
        want = outcome(lambda: items(_variational(p, odd, level)))
    with cold_table():
        assert outcome(lambda: items(_variational(p, odd, level))) == want


@given(int_dicts(short_keys(laurent=False), 3), int_dicts(short_keys(), 3), st.booleans())
def test_integrate_matches_the_reference(g, noise, exact):
    # d of g is exact; adding drawn terms mostly makes it inexact
    a = _make(ref_add_derivative({}, g) if exact else ref_add_derivative(dict(noise), g), 3)
    with reference_kernel():
        want = outcome(lambda: tuple(map(items, _integrate(a))))
    with cold_table():
        assert outcome(lambda: tuple(map(items, _integrate(a)))) == want
    if want[0] is not AlgebraError:
        g, r = _integrate(a)
        assert g.total_derivative() + r == a


_MESSAGE = ("a total derivative leaves the supported exponent range "
            "(0..16383 for u_k, -8192..8191 for u_1)")


@pytest.mark.parametrize("p", [
    SP.u(1, power=_U1_MIN),
    SP.u(1, power=_U1_MIN) * SP.theta(3),
    SP.u(2) * SP.u(3, power=_E_MAX),
    SP.u(0) * SP.u(1, power=_U1_MAX) * SP.theta(0) * SP.theta(1),
    SP.u(100) * SP.u(101, power=_E_MAX) * SP.theta(5),
], ids=["u_1^-8192", "u_1^-8192*theta_3", "u_2*u_3^16383", "u*u_1^8191*theta*theta_1",
        "u_100*u_101^16383*theta_5"])
def test_range_errors_keep_their_message(p):
    with pytest.raises(AlgebraError) as exc:
        ref_add_derivative({}, algebra._numerators(p)[0])
    assert str(exc.value) == _MESSAGE
    with cold_table() as table:
        for _ in range(2):
            with pytest.raises(AlgebraError) as exc:
                p.dx()
            assert str(exc.value) == _MESSAGE
        # every stored part derived in full
        for key, ents in table.items():
            assert ents == (_theta_moves(key) if key & _THETA else _derive_key(key))


def test_a_u_exponent_just_below_the_limit_derives():
    p = SP.u(2) * SP.u(3, power=_E_MAX - 1) * SP.theta(2) * SP.theta(3)
    with cold_table():
        assert items(p.dx()) == items(_make(ref_add_derivative({}, p._nums), 1))


# ---------------------------------------------------------------------------
# Table invariants
# ---------------------------------------------------------------------------

def _part_kind(key):
    return "even" if not key & _THETA else "odd" if not key & ~_THETA else "mixed"


def test_after_jacobi_brackets_every_key_is_a_part(rng):
    with cold_table() as table:
        for ka, kb, kc in [(1, 2, 0), (2, 2, 1), (3, 1, 2)]:
            a, b, c = (canonical_class(rand_density(rng, k, laurent=2)) for k in (ka, kb, kc))
            schouten_bracket(a, schouten_bracket(b, c))
        assert table
        assert {_part_kind(key) for key in table} == {"even", "odd"}
        assert all(key < _WIDE for key in table)


def test_wide_keys_are_not_stored(rng):
    p = SP.u(200) * SP.theta(200) + SP.u(1, power=-2) * SP.u(70) * SP.theta(0) * SP.theta(64)
    warm = rand_density(rng, 2)
    with cold_table() as table:
        warm.dx()
        before = dict(table)
        assert items(p.dx(2)) == items(_make(ref_add_derivative({}, ref_add_derivative({}, p._nums)), 1))
        assert table == before


def test_a_narrow_part_of_a_wide_key_is_stored():
    # u theta_100 is wider than 64 fields, its theta-free part u is not: the
    # storage rule judges the part, whatever key it came from
    p = SP.u(0) * SP.theta(100)
    with cold_table() as table:
        assert items(p.dx()) == items(_make(ref_add_derivative({}, p._nums), 1))
        assert SP.u(0)._nums.keys() <= table.keys()
        assert all(key < _WIDE for key in table)


def test_normalize_at_index_200_leaves_the_table_size():
    before = len(algebra._DERIV_CACHE)
    assert normalize_N(SP.u(200) * SP.theta(200)) == SP.u(400) * SP.theta(0)
    assert len(algebra._DERIV_CACHE) == before


def test_a_key_straddling_field_63_moves_into_field_64():
    p = SP.u(63, power=2) * SP.theta(63) + SP.theta(62) * SP.theta(63)
    with cold_table() as table:
        got = items(p.dx())
        assert all(key < _WIDE for key in table)
    assert got == items(_make(ref_add_derivative({}, p._nums), 1))
    assert max(p.dx()._nums) >= _WIDE



# ---------------------------------------------------------------------------
# The filing table against the per-term walk it replaced
# ---------------------------------------------------------------------------

def _file_per_term(nums, odd, lo, hi=inf):
    """The filing sweep of `algebra._file` before its table: for every term,
    a walk over the theta bits (odd) or over the fields from lo up (even)."""
    pieces = {}
    if hi < 0:
        return pieces
    if odd:
        tmask = _masks(max(nums, default=0))[0]
        for m, n in nums.items():
            t = m & tmask
            i = 0  # theta_k jumps the i odd factors below it
            while t:
                low = t & -t
                t ^= low
                k = low.bit_length() // _W
                if k > hi:
                    break
                if k >= lo:
                    v = n * comb(k, lo)
                    key = m - low
                    piece = pieces.setdefault(k - lo, {})
                    piece[key] = piece.get(key, 0) + (-v if (i + k - lo) & 1 else v)
                i += 1
        return pieces
    for m, n in nums.items():
        rest, k = m >> (_W * lo), lo
        while (rest or k < 2) and k <= hi:
            f = rest & _FIELD
            e = (f >> 1) - _BIAS if k == 1 else f >> 1
            if e:
                if e == _U1_MIN:
                    raise _range_error("a partial derivative")
                v = n * e * comb(k, lo)
                key = m - (2 << (_W * k))
                piece = pieces.setdefault(k - lo, {})
                piece[key] = piece.get(key, 0) + (-v if (k - lo) & 1 else v)
            rest >>= _W
            k += 1
    return pieces


def filed(file, nums, odd, lo, *hi):
    """The pieces of a filing as ordered item lists, or the error it raises."""
    return outcome(lambda: [(j, list(p.items())) for j, p in file(nums, odd, lo, *hi).items()])


@given(int_dicts(), st.booleans(), st.integers(0, 3), st.sampled_from([0, 2, None]))
def test_file_matches_the_per_term_walk_cold_and_warm(nums, odd, lo, width):
    hi = () if width is None else (lo + width,)
    want = filed(_file_per_term, nums, odd, lo, *hi)
    with cold_table():
        for _ in range(2):  # cold, then warm
            assert filed(_file, nums, odd, lo, *hi) == want
        assert all(0 < key < _WIDE for key in algebra._FILE_CACHE)


_U1_LOW = SP.u(1, power=_U1_MIN)  # theta-free part 0, the key of the theta part 0


@pytest.mark.parametrize("first", ["odd", "even"])
def test_the_theta_part_0_and_u1_to_the_lowest_power_share_no_entry(first):
    # the theta-free part of u_1^-8192 is the key 0, as is the theta part of
    # a theta-free term: whichever is filed first, neither reads the other
    def odd():
        assert SP.u(2).partial_theta(1) == 0
        assert _variational(SP.u(2) + SP.u(3) * SP.theta(1), True, 0) == -SP.u(4)

    def even():
        assert _U1_LOW.partial_u(0) == 0
        with pytest.raises(AlgebraError, match="a partial derivative leaves"):
            _U1_LOW.partial_u(1)

    with cold_table():
        for step in (odd, even) if first == "odd" else (even, odd):
            for _ in range(2):
                step()
        assert 0 not in algebra._FILE_CACHE


@pytest.mark.parametrize("p", [_U1_LOW, _U1_LOW * SP.u(3) * SP.theta(2), _U1_LOW * SP.u(70)],
                         ids=["u_1^-8192", "u_1^-8192*u_3*theta_2", "u_1^-8192*u_70"])
def test_the_lowest_power_of_u1_is_refused_only_in_field_1(p):
    nums = algebra._numerators(p)[0]
    with cold_table():
        for _ in range(2):
            for lo, hi in ((0, 0), (2, 2), (2, inf), (0, 1), (1, inf), (1, 1)):
                assert filed(_file, nums, False, lo, hi) == filed(_file_per_term, nums, False, lo, hi)
            assert p.partial_u(0) == 0
            assert p.partial_u(2) == 0
            with pytest.raises(AlgebraError, match="a partial derivative leaves"):
                p.partial_u(1)
        assert not algebra._FILE_CACHE.keys() & {m - (m & _THETA) for m in nums}


def test_wide_parts_are_not_filed_into_the_table(rng):
    p = SP.u(200) * SP.theta(200) + SP.u(1, power=-2) * SP.u(70) * SP.theta(0) * SP.theta(64)
    nums = algebra._numerators(p)[0]
    with cold_table():
        _variational(rand_density(rng, 2), True, 0)
        before = dict(algebra._FILE_CACHE)
        for odd in (False, True):
            assert filed(_file, nums, odd, 0) == filed(_file_per_term, nums, odd, 0)
        assert algebra._FILE_CACHE == before


def test_emptying_the_filing_table_changes_no_result(monkeypatch):
    polys = [SP.u(1, power=-2) * SP.u(3) * SP.theta(0) + SP.u(0, power=3),
             SP.theta(1000) * SP.u(2) + SP.theta(0) * SP.theta(2) * SP.u(1)]

    def results():
        return [items(_variational(a, odd, level))
                for a in polys for odd in (False, True) for level in (0, 1, 2)]

    expected = results()
    monkeypatch.setattr(algebra, "_FILE_CACHE", {})
    monkeypatch.setattr(algebra, "_DERIV_LIMIT", 3)
    assert results() == expected
    assert 0 < len(algebra._FILE_CACHE) <= 3


def test_cold_table_empties_the_filing_table(rng):
    _variational(rand_density(rng, 2), True, 0)
    assert algebra._FILE_CACHE
    with cold_table():
        assert algebra._FILE_CACHE == {}


# ---------------------------------------------------------------------------
# D_P and the action of a vector field, from one filing
# ---------------------------------------------------------------------------

def _koszul_dP_per_term(nums):
    """D_P before it read the filing: for every term, a walk over its fields
    0..order with a count of the theta factors at or below field k."""
    out = {}
    for m, n in nums.items():
        below = 0
        for k in range(_key_order(m) + 1):
            f = (m >> (_W * k)) & _FIELD
            below += f & 1
            e = (f >> 1) - _BIAS if k == 1 else f >> 1
            if e and not (m >> (_W * k + _W)) & 1:
                if e == _U1_MIN:
                    raise _range_error("D_P")
                key = m - (2 << (_W * k)) + (1 << (_W * k + _W))
                out[key] = out.get(key, 0) + (-n * e if below & 1 else n * e)
    return out


@given(int_dicts(), st.sampled_from([1, 2, 9]))
def test_D_P_matches_the_per_term_walk_cold_and_warm(nums, D):
    # u_1^-8192 is refused by the filing, see below
    a = _make({m: c for m, c in nums.items() if _exponent(m, 1) != _U1_MIN}, D)
    want = _make(_koszul_dP_per_term(a._nums), a._D)
    with cold_table():
        for _ in range(2):  # cold, then warm
            assert _koszul_dP(a) == want


@pytest.mark.parametrize("p", [_U1_LOW, _U1_LOW * SP.theta(2), _U1_LOW * SP.u(3) * SP.theta(0)],
                         ids=["u_1^-8192", "u_1^-8192*theta_2", "u_1^-8192*u_3*theta"])
def test_D_P_refuses_the_lowest_power_of_u1_as_partial_u_does(p):
    # the walk refused with "D_P leaves ..." unless theta_2 was present, and
    # then gave 0: D_P now refuses as partial_u(1) and delta_u do
    nums = algebra._numerators(p)[0]
    if p == _U1_LOW * SP.theta(2):
        assert _koszul_dP_per_term(nums) == {}
    else:
        assert outcome(lambda: _koszul_dP_per_term(nums))[1].startswith("D_P leaves")
    for f in (lambda: _koszul_dP(p), lambda: p.partial_u(1), lambda: _variational(p, False, 0)):
        assert outcome(f) == (AlgebraError, "a partial derivative leaves the supported "
                              "exponent range (0..16383 for u_k, -8192..8191 for u_1)")


def _apply_per_index(f, a):
    """EvolutionaryVF.apply before one filing: a partial_u filing per index."""
    out, fj = SP(), f
    for j in range(a.order() + 1):
        term = a.partial_u(j)
        if term:
            out = out + fj * term
        fj = fj.total_derivative()
    return out


@given(densities(0, 0), densities())
def test_a_vector_field_acts_as_the_per_index_sum(f, a):
    assert EvolutionaryVF(f).apply(a) == _apply_per_index(f, a)


def test_a_vector_field_files_its_argument_once(monkeypatch):
    calls = []
    file = variational._file

    def counting(nums, odd, lo, *hi):
        calls.append((odd, lo, *hi))
        return file(nums, odd, lo, *hi)

    monkeypatch.setattr(variational, "_file", counting)
    a = SP.u(0) ** 2 * SP.u(3) * SP.theta(1) + SP.u(1, power=-1) * SP.u(2)
    assert EvolutionaryVF(SP.u(0) * SP.u(1)).apply(a) == _apply_per_index(SP.u(0) * SP.u(1), a)
    assert calls == [(False, 0)]
