import random
import sys
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from jetbrackets import SuperPolynomial as SP

# property tests draw a fixed example sequence (derandomized, no example
# database), so every run checks the same cases in bounded time
settings.register_profile("jetbrackets", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("jetbrackets")


def rand_coeff(rng):
    return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))


def rand_density(rng, theta_degree=0, max_order=3, terms=2, max_udeg=2,
                 laurent=0):
    """Random sparse density with the requested theta-degree; laurent > 0
    lets a term carry u_1^-e for e up to laurent."""
    out = SP.zero()
    for _ in range(terms):
        m = SP.const(rand_coeff(rng))
        for _ in range(rng.randint(0, max_udeg)):
            m = m * SP.u(rng.randint(0, max_order))
        if laurent and rng.random() < 0.4:
            m = m * SP.u(1, power=-rng.randint(1, laurent))
        for k in rng.sample(range(0, max_order + 1), theta_degree):
            m = m * SP.theta(k)
        out = out + m
    return out


def rand_homogeneous(rng, theta_degree, degree, max_order=None, max_udeg=3,
                     laurent_depth=0, terms=3):
    """Random density of fixed theta-degree and homogeneity degree."""
    from jetbrackets import GradedSlice, enumerate_basis
    sl = GradedSlice(max_order=degree + 1 if max_order is None else max_order,
                     max_udeg=max_udeg, laurent_depth=laurent_depth)
    basis = enumerate_basis(sl, theta_degree, degree)
    out = SP.zero()
    for b in rng.sample(basis, min(terms, len(basis))):
        out = out + b * rand_coeff(rng)
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)


_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10])


@st.composite
def densities(draw, min_theta_degree=0, max_theta_degree=3, laurent=None):
    """A density of uniform theta-degree (up to 3), Laurent in u_1 or
    polynomial, with coefficients over mixed denominators and jet orders
    0-4.  Whether u_1^-1 may appear is drawn unless laurent is given."""
    if laurent is None:
        laurent = draw(st.booleans())
    k = draw(st.integers(min_theta_degree, max_theta_degree))
    a = SP.zero()
    for _ in range(draw(st.integers(0, 5))):
        num = draw(st.integers(-7, 7).filter(bool))
        m = SP.const(Fraction(num, draw(_DENOMINATORS)))
        for _ in range(draw(st.integers(0, 3))):
            m = m * SP.u(draw(st.integers(0, 4)))
        if laurent and draw(st.booleans()):
            m = m * SP.u(1, power=-draw(st.integers(1, 3)))
        odd = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k, unique=True))
        for j in odd:
            m = m * SP.theta(j)
        a = a + m
    return a


def assert_same(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


# ---------------------------------------------------------------------------
# Reference derivations: the Fraction loops the ring used before its
# derivations went through the integer kernel, frozen here so that the
# differential tests never compare the kernel with itself.  The monomial
# derivatives are recomputed on every call, without the kernel's cache.
# ---------------------------------------------------------------------------

def ref_partial_u(p, k, alpha=1):
    coord = (alpha, k)
    out = {}
    for (even, odd), c in p.terms.items():
        for i, (co, e) in enumerate(even):
            if co == coord:
                ne = e - 1
                if ne:
                    new_even = even[:i] + ((co, ne),) + even[i + 1:]
                else:
                    new_even = even[:i] + even[i + 1:]
                key = (new_even, odd)
                s = out.get(key, Fraction(0)) + c * e
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
                break
    return SP(out)


def ref_partial_theta(p, k, alpha=1):
    coord = (alpha, k)
    out = {}
    for (even, odd), c in p.terms.items():
        for i, co in enumerate(odd):
            if co == coord:
                sign = -1 if i & 1 else 1
                key = (even, odd[:i] + odd[i + 1:])
                s = out.get(key, Fraction(0)) + c * sign
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
                break
    return SP(out)


def _derive_monomial(mono):
    """d of a nested monomial: ((monomial, integer multiplier), ...), the
    table entry of the derivation kernel before it packed its keys."""
    even, odd = mono
    ents = []
    # even part, Leibniz term by term
    for i, ((a, k), e) in enumerate(even):
        ne = e - 1
        if ne:
            base = even[:i] + (((a, k), ne),) + even[i + 1:]
        else:
            base = even[:i] + even[i + 1:]
        exps = dict(base)
        up = (a, k + 1)
        nv = exps.get(up, 0) + 1
        if nv:
            exps[up] = nv
        else:
            del exps[up]
        ents.append(((tuple(sorted(exps.items())), odd), e))
    # odd part: even derivation, no Koszul signs; the lex order has nothing
    # strictly between (a, k) and (a, k+1), so replacing in place keeps the
    # tuple sorted, and the only possible collision is the immediate successor
    for i, (a, k) in enumerate(odd):
        lifted = (a, k + 1)
        if i + 1 < len(odd) and odd[i + 1] == lifted:
            continue
        ents.append(((even, odd[:i] + (lifted,) + odd[i + 1:]), 1))
    return tuple(ents)


def ref_total_derivative(p):
    out = {}
    for mono, c in p.terms.items():
        for key, mult in _derive_monomial(mono):
            s = out.get(key)
            s = c * mult if s is None else s + c * mult
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return SP(out)


def ref_dx(p, n=1):
    for _ in range(n):
        p = ref_total_derivative(p)
    return p


# ---------------------------------------------------------------------------
# Reference ring operations: the Fraction loops the ring used before it held
# integer numerators over one denominator, frozen here on term dicts
# {monomial: Fraction} (the `terms` view).  The odd factors of a product are
# sorted by counting inversions, independently of the ring's merge.
# ---------------------------------------------------------------------------

def _ref_accumulate(out, key, c):
    s = out.get(key, Fraction(0)) + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        _ref_accumulate(out, m, c * sign)
    return out


def ref_scale(a, c):
    c = Fraction(c)
    return {m: cc * c for m, cc in a.items()} if c else {}


def ref_mul(a, b):
    out = {}
    for (e1, o1), c1 in a.items():
        for (e2, o2), c2 in b.items():
            odd = o1 + o2
            if len(set(odd)) < len(odd):
                continue
            inversions = sum(x > y for i, x in enumerate(odd) for y in odd[i + 1:])
            exps = dict(e1)
            for k, v in e2:
                exps[k] = exps.get(k, 0) + v
            even = tuple(sorted((k, v) for k, v in exps.items() if v))
            _ref_accumulate(out, (even, tuple(sorted(odd))),
                            c1 * c2 * (-1 if inversions & 1 else 1))
    return out


# ---------------------------------------------------------------------------
# Reference printer: `SuperPolynomial.__str__` as it was before it printed
# from the packed keys, on the `terms` view (one Fraction per term), sorted by
# (number of odd factors, odd part, even part).  Frozen here so that the
# printer is compared with an independent copy, not with itself.
# ---------------------------------------------------------------------------

def _ref_name(base, k):
    return base if k == 0 else f"{base}_{k}"


def _ref_coeff_str(c):
    from jetbrackets import AlgebraError
    try:
        return str(c)
    except ValueError:
        raise AlgebraError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                           "digits, Python's int/str conversion limit") from None


def ref_str(p):
    if p.is_zero():
        return "0"
    parts = []
    for (even, odd), c in sorted(p.terms.items(),
                                 key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0])):
        factors = []
        for (_, k), e in even:
            factors.append(_ref_name("u", k) + ("" if e == 1 else f"^{e}"))
        for _, k in odd:
            factors.append(_ref_name("theta", k))
        if not factors:
            parts.append(_ref_coeff_str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(_ref_coeff_str(c) + "*" + "*".join(factors))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


# ---------------------------------------------------------------------------
# Reference slice solve: the whole slice, written out apart from
# deform._solve_in_slices, which every solve in the tests must agree with.
# ---------------------------------------------------------------------------

def full_slice_solve(brackets, targets, slice_, max_grows=0):
    """The class y with [[H, y]] = T for each bracket H and target T, found
    on the whole slice (grown up to max_grows times) with enumerate_basis,
    slice_matrix and SparseMatrix.solve, the target of bracket k multiplied
    by the block denominator dens[k] that slice_matrix returns, or None;
    returns (y, system shapes)."""
    from jetbrackets import canonical_class, enumerate_basis
    from jetbrackets.algebra import _numerators
    from jetbrackets.deform import linear_combination, slice_matrix
    c = next(T for T in targets if not T.is_zero())
    t, deg = c.theta_degree - 1, c.homogeneity() - 1
    rhs = {}
    for k, T in enumerate(targets):
        nums, D = _numerators(T.rep)
        rhs.update(((k, mn), Fraction(v, D)) for mn, v in nums.items())
    shapes = []
    s = slice_
    for grow in range(max_grows + 1):
        if grow:
            s = s.grown()
        basis = enumerate_basis(s, t, deg)
        if not basis:
            continue
        M, dens = slice_matrix(basis, brackets)
        shapes.append((len(M.rows), M.ncols))
        sol = M.solve({key: b * dens[key[0]] for key, b in rhs.items()})
        if sol is not None:
            return canonical_class(linear_combination(sol, basis)), shapes
    return None, shapes
