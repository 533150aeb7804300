"""Exact arithmetic in the free superalgebra of differential polynomials.

The ring has one dependent variable: even generators u_k (jet variables,
k >= 0) and odd generators theta_k.  Coefficients are exact rationals.  u_1 is
inverted: it alone may carry a negative exponent, nothing else is invertible.
The polynomials form a subring that every operation here preserves.

One rule decides what a scalar is, wherever the ring, its operators and the
classes of `variational` take one (a coefficient, a constant, an operand of
+, -, *, / and ==, a multiple): an int or a Fraction by exact type
(`_is_scalar`).  A bool is not one, so True is refused, never read as 1.

Monomials are keyed by packed integers, one fixed-width field per jet index
(cf. the packed exponent vectors of Monagan and Pearce, "POLY: a new
polynomial data structure for Maple 17", 2013).  Index k owns the 16 bits
from bit 16k: bit 0 of the field is theta_k, bits 1-14 hold the exponent of
u_k and bit 15 is a guard bit, clear in every valid key.  The u_1 field holds
e + 2^13, so u_1^-e borrows nothing from its neighbour and the monomial 1 is
the key `_ONE` = 2^13 << 17.  Exponents range over 0..16383 for u_k, k != 1,
and over -8192..8191 for u_1; the constructor, `*`, `**` and the derivations
raise AlgebraError for a monomial outside that range.  Jet indices are
unbounded: a key is as long as its largest index needs.  Only this module
reads or builds keys; `_pack` serves the slice enumeration, and
`_numerators` hands the slice solver integer coefficients under keys it
treats as opaque labels.

On packed keys the ring is integer arithmetic.  A product of monomials whose
theta bits are disjoint (theta^2 = 0 otherwise) has the key m1 + m2 - `_ONE`,
one guard-mask test per term checks its range, and its Koszul sign is the
parity of the inversions between the two odd parts, one `int.bit_count` over
a mask precomputed per left term (`_inversion_mask`).  `_mul_into`, the one
product loop, adds n a b to an int dict: `*` and the Schouten bracket's two
products share it.  theta m is m with bit 0 set (`_theta_times`).  d of u_k^e
is e times the key minus the unit of field k plus the unit of field k+1; d of
theta_k moves its bit one field up.  Odd factors are ordered by index, and
odd partial derivatives are left derivations.

`terms` is the view for printing, parsing and tests, built on demand
with no memo: a fresh dict {(even, odd): Fraction} whose even part is a
sorted tuple of ((1, k), e) pairs with nonzero exponents and whose odd part
is a strictly increasing tuple of (1, k).  No engine module reads it.  The
public constructor takes that format, with factors in any order, validates
it, sorts odd factors with their Koszul sign and packs.

A polynomial holds integer numerators over one positive denominator D: the
coefficient of the monomial m is nums[m]/D.  The form is canonical (no zero
numerator, gcd(D, *nums) = 1), so equality and hashing are structural.  The
public constructor normalizes keys and rational coefficients into it; every
kernel computes numerators and D in integers and returns through `_make`,
which drops zeros and divides out the gcd.

Every derivation goes through one integer kernel: `_file` files the signed
partial derivatives of the numerators under the power of d they are to
receive, in one sweep; `_add_derivative` applies d once, into its output
dict, which it returns unless a term cancelled.  Neither changes D.
partial_u and partial_theta are one filing, d^n is n steps,
`_variational` is one filing plus Horner in d, and D_P (`_koszul_dP`) is
one filing whose piece k gains theta_{k+1}.  `_antidiff_u`, the
antiderivative in u_k, adds one unit to field k of each key.  `_integrate`,
formal integration in x, descends from the top order with the same step and
splits a = d(g) + r at every theta-degree, r = 0 exactly when a is exact;
an antiderivative power past the exponent range raises AlgebraError for a
theta-free term and goes to r for a term with a theta factor.  d is an
even derivation, so its table (`_DERIV_CACHE`) holds the derivatives of the
theta-free and the odd parts of the keys it meets, not of the keys: a few
thousand parts cover the tens of thousands of monomials of a Jacobi check.
The filing reads a second table of the same parts (`_FILE_CACHE`), under
the same bound of 65 536 entries: for an odd part, the bit of each theta_k
with the sign of its left derivative; for a theta-free part, the unit of
each u_k with its signed exponent.  A term files one entry per factor of
its part in [lo, hi], with no walk over its fields.  `_u_factors` finds the
nonzero fields of a part with a bit fold, and `_unpack` and `_key_degree`
read the fields of a key from one pass over its bytes (`_fields`), so d,
printing and the degree cost time linear in a jet index.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, gcd, lcm


class AlgebraError(Exception):
    """Base class for errors raised by the algebra layer."""


def _is_scalar(c) -> bool:
    """The one scalar rule: an int or a Fraction by exact type, never a bool."""
    return type(c) in (int, Fraction)


def _check_scalar(c) -> None:
    if not _is_scalar(c):
        raise TypeError("coefficients must be exact rationals (int or Fraction)")


def _check_size(v, what: str, lowest: int | None = 0) -> None:
    """Refuse an order, size, index or cap v that is not an int (a bool is
    not one) or is below `lowest` (None: no bound)."""
    if type(v) is not int:
        raise AlgebraError(f"{what} must be an integer, got {v!r}")
    if lowest is not None and v < lowest:
        raise AlgebraError(f"{what} must be at least {lowest}, got {v}")


class UndefinedGrading(AlgebraError):
    """Grading of the zero polynomial was requested."""


class SkewnessError(AlgebraError):
    """An operator required to be skew-adjoint is not."""


def _only_one_component(q) -> None:
    if q != 1 or isinstance(q, bool):
        raise AlgebraError(f"the ring has one dependent variable; q = {q!r} is not supported")


# -- packed monomial keys (see the module docstring) ---------------------------

_W = 16                      # bits per jet index
_FIELD = (1 << _W) - 1
_BIAS = 1 << 13              # the u_1 field holds e + _BIAS
_E_MAX = (1 << 14) - 1       # largest exponent of u_k, k != 1
_U1_MIN, _U1_MAX = -_BIAS, _BIAS - 1
_ONE = _BIAS << (_W + 1)     # the key of the monomial 1
_RANGE = f"0..{_E_MAX} for u_k, {_U1_MIN}..{_U1_MAX} for u_1"


def _range_error(what: str) -> AlgebraError:
    return AlgebraError(f"{what} leaves the supported exponent range ({_RANGE})")


def _check_exponent(k: int, e: int) -> None:
    if not (_U1_MIN <= e <= _U1_MAX if k == 1 else 0 <= e <= _E_MAX):
        # an exponent past 2^64 may have more digits than Python prints
        raise _range_error(f"{_name('u', k)}^{e}" if e.bit_length() <= 64
                           else f"a power of {_name('u', k)} of more than 64 bits")


def _normal_key(mono):
    """(sign, key) of a monomial given as (even factors, odd factors) in any
    order, or None when an odd generator repeats (theta^2 = 0)."""
    exps: dict = {}
    for (a, k), e in mono[0]:
        if a != 1 or type(k) is not int or k < 0 or type(e) is not int or (e < 0 and k != 1):
            raise AlgebraError(f"invalid factor (({a!r}, {k!r}), {e!r}): the index must be "
                               "at least 0, and only u_1 has negative powers")
        exps[k] = exps.get(k, 0) + e
    key = _ONE
    for k, e in exps.items():
        _check_exponent(k, e)
        key += e << (_W * k + 1)
    sign, odd = 1, 0
    for a, k in mono[1]:
        if a != 1 or type(k) is not int or k < 0:
            raise AlgebraError(f"invalid odd factor ({a!r}, {k!r}): the index must be at least 0")
        bit = 1 << (_W * k)
        if odd & bit:
            return None
        # theta_k multiplies on the right and jumps the factors above it
        if (odd >> (_W * k)).bit_count() & 1:
            sign = -sign
        odd |= bit
    return sign, key + odd


def _pack(mono) -> int:
    """The key of a monomial in normal form (the `terms` format)."""
    key = _ONE
    for (_, k), e in mono[0]:
        _check_exponent(k, e)
        key += e << (_W * k + 1)
    for _, k in mono[1]:
        key += 1 << (_W * k)
    return key


# the coordinates (1, k) of the usual indices, shared by every decoded monomial
_COORDS = tuple((1, k) for k in range(64))


_BIG_ENDIAN = sys.byteorder == "big"


def _fields(key: int):
    """The fields of a key, index 0 first, and one zero field above them (at
    least three in all), from one pass over the key's bytes: a walk by
    `key >>= _W` would copy the whole int at every index."""
    n = max(2, -(-key.bit_length() // _W)) + 1
    if _BIG_ENDIAN:  # native fields, the most significant first
        return memoryview(key.to_bytes(2 * n, "big")).cast("H")[::-1]
    return memoryview(key.to_bytes(2 * n, "little")).cast("H")


def _unpack(key: int):
    """The monomial of a key in the `terms` format."""
    even, odd = [], []
    for k, f in enumerate(_fields(key)):
        e = (f >> 1) - _BIAS if k == 1 else f >> 1
        if e or f & 1:
            co = _COORDS[k] if k < 64 else (1, k)
            if e:
                even.append((co, e))
            if f & 1:
                odd.append(co)
    return tuple(even), tuple(odd)


def _field_masks(n: int):
    """(theta mask, guard mask) over fields 0..n-1."""
    rep = ((1 << (_W * n)) - 1) // _FIELD  # bit 0 of every field
    return rep, rep << (_W - 1)


_MASKS = tuple(_field_masks(n) for n in range(65))


def _masks(top: int):
    """(theta mask, guard mask) covering every field of the keys up to top,
    and at least fields 0 and 1."""
    n = max(2, -(-top.bit_length() // _W))
    return _MASKS[n] if n < 65 else _field_masks(n)


def _inversion_mask(t: int) -> int:
    """For theta bits t, the bit positions below an odd number of them: the
    Koszul sign of (odd part t) * (odd part t2) is the parity of
    (mask & t2).bit_count()."""
    mask = 0
    while t:
        top = 1 << (t.bit_length() - 1)
        t ^= top
        nxt = 1 << (t.bit_length() - 1) if t else 1
        mask |= top - nxt  # the positions from the next bit (or 0) up to top
        t &= nxt - 1
    return mask


def _key_degree(key: int) -> int:
    """sum k e_k + sum k over the theta_k; field 1 adds its bias once."""
    return sum(k * ((f >> 1) + (f & 1)) for k, f in enumerate(_fields(key))) - _BIAS


def _key_order(key: int) -> int:
    """The largest index of a factor of the key; 0 for a constant."""
    k = (key.bit_length() - 1) // _W
    if k >= 2:
        return k
    return 0 if key >> _W == _BIAS << 1 else 1


def _numerators(p: "SuperPolynomial"):
    """(nums, D): p is sum_m nums[m]/D m, nums an int dict under packed keys
    and D > 0, in canonical form.  The dict is p's own: read it, never
    mutate it.  Outside this module the keys are opaque labels."""
    return p._nums, p._D


class SuperPolynomial:
    """Sparse differential superpolynomial with exact rational coefficients,
    held as integer numerators over one denominator under packed monomial
    keys (see the module docstring)."""

    __slots__ = ("_nums", "_D")

    def __init__(self, terms=None):
        """The polynomial sum_m terms[m] m, for any mapping of monomials
        (even factors, odd factors) to int or Fraction coefficients: factors
        may come in any order and repeat, zero exponents and coefficients are
        dropped, and odd factors are sorted with their Koszul sign."""
        self._nums, self._D = {}, 1
        if not terms:
            return
        terms = dict(terms)
        for c in terms.values():
            _check_scalar(c)
        D = lcm(*(c.denominator for c in terms.values()))
        nums: dict = {}
        for mono, c in terms.items():
            normal = _normal_key(mono)
            if normal is not None:
                sign, key = normal
                nums[key] = nums.get(key, 0) + sign * c.numerator * (D // c.denominator)
        p = _make(nums, D)
        self._nums, self._D = p._nums, p._D

    @property
    def terms(self) -> dict:
        """A fresh dict {monomial: Fraction coefficient}, monomials in the
        nested format of the module docstring."""
        D = self._D
        return {_unpack(m): Fraction(c) if D == 1 else Fraction(c, D)
                for m, c in self._nums.items()}

    # -- constructors ------------------------------------------------------

    # Benchmark shims: the workloads call zero(1, hat), const(c, 1, hat),
    # u(k, hat=...), theta(k, hat=...) and MultiVector.to_hat(), so the
    # positional q accepts only 1, hat is accepted and ignored (there is one
    # ring) and MultiVector.to_hat returns its class; all go together once
    # the benchmark no longer calls them.

    @classmethod
    def zero(cls, q=1, hat=False):
        _only_one_component(q)
        return cls()

    # The generators skip the general constructor: after its checks, their
    # one key is built directly.

    @classmethod
    def const(cls, c, q=1, hat=False):
        _only_one_component(q)
        _check_scalar(c)
        return _make({_ONE: c.numerator}, c.denominator)

    @classmethod
    def u(cls, k=0, *, power=1, hat=False):
        if type(k) is not int or k < 0 or type(power) is not int or (power < 0 and k != 1):
            raise AlgebraError(f"invalid factor ((1, {k!r}), {power!r}): the index must be "
                               "at least 0, and only u_1 has negative powers")
        _check_exponent(k, power)
        return _make({_ONE + (power << (_W * k + 1)): 1}, 1)

    @classmethod
    def theta(cls, k=0, *, hat=False):
        if type(k) is not int or k < 0:
            raise AlgebraError(f"invalid odd factor (1, {k!r}): the index must be at least 0")
        return _make({_ONE + (1 << (_W * k)): 1}, 1)

    # -- ring structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if _is_scalar(other):
            other = SuperPolynomial.const(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self._D == other._D and self._nums == other._nums

    def __hash__(self):
        # a constant equals its number, so it hashes like it
        if self._nums.keys() <= {_ONE}:
            return hash(Fraction(self._nums.get(_ONE, 0), self._D))
        return hash((frozenset(self._nums.items()), self._D))

    def __add__(self, other):
        if _is_scalar(other):
            other = SuperPolynomial.const(other)
        elif not isinstance(other, SuperPolynomial):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        D = lcm(self._D, other._D)
        sa, sb = D // self._D, D // other._D
        nums = {m: c * sa for m, c in self._nums.items()} if sa != 1 else dict(self._nums)
        get = nums.get
        for m, c in other._nums.items():
            nums[m] = get(m, 0) + c * sb
        return _make(nums, D)

    __radd__ = __add__

    def __neg__(self):
        return _make({m: -c for m, c in self._nums.items()}, self._D)

    def __sub__(self, other):
        if not (_is_scalar(other) or isinstance(other, SuperPolynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            n = other.numerator
            return _make({m: c * n for m, c in self._nums.items()}, self._D * other.denominator)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return _make(_mul_into({}, self._nums, other._nums, 1), self._D * other._D)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        n, d = other.numerator, other.denominator
        if n < 0:
            n, d = -n, -d
        return _make({m: c * d for m, c in self._nums.items()}, self._D * n)

    def __pow__(self, n: int):
        """self^n by repeated squaring, n >= 0; the exponent range is checked
        before the first product."""
        if type(n) is not int or n < 0:  # a bool is not an exponent
            raise AlgebraError("only nonnegative integer powers of polynomials")
        if n > 1 and self._nums:
            # the theta-free part of self^n is that of self to the n, a power
            # in a domain: its extreme exponents of each u_k are n times
            # those of self, so n e must be in range for every theta-free term
            tmask = _masks(max(self._nums))[0]
            for m in self._nums:
                if not m & tmask:
                    for (_, k), e in _unpack(m)[0]:
                        _check_exponent(k, e * n)
        out, base = SuperPolynomial.const(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- derivations -------------------------------------------------------

    def partial_u(self, k: int) -> "SuperPolynomial":
        """Partial derivative with respect to the jet variable u_k."""
        _check_size(k, "jet index")
        return _make(_file(self._nums, False, k, k).get(0, {}), self._D)

    def partial_theta(self, k: int) -> "SuperPolynomial":
        """Left graded derivative with respect to theta_k."""
        _check_size(k, "jet index")
        return _make(_file(self._nums, True, k, k).get(0, {}), self._D)

    def total_derivative(self) -> "SuperPolynomial":
        """The total derivative: u_k -> u_{k+1}, theta_k -> theta_{k+1}."""
        return self.dx(1)

    def dx(self, n: int = 1) -> "SuperPolynomial":
        """The n-th total derivative, n >= 0."""
        _check_size(n, "the power of the total derivative", None)
        if n < 0:
            raise AlgebraError(f"the power of the total derivative must be nonnegative, got {n}")
        nums = self._nums
        for _ in range(n):
            nums = _add_derivative({}, nums)
        return _make(nums, self._D)

    # -- gradings ----------------------------------------------------------

    def theta_degree(self):
        """Uniform theta-degree, or None if mixed.  Zero polynomial -> None."""
        if not self._nums:
            return None
        tmask = _masks(max(self._nums))[0]
        degs = {(m & tmask).bit_count() for m in self._nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def degree(self):
        """Uniform homogeneity degree (deg u_k = deg theta_k = k,
        deg u_1^{-1} = -1), or None if inhomogeneous."""
        degs = {_key_degree(m) for m in self._nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def order(self) -> int:
        """Largest jet index appearing (even or odd); 0 for constants."""
        return max(map(_key_order, self._nums), default=0)

    def grading_info(self):
        """Return (degree, theta_degree, order) with "inhomogeneous" markers."""
        if not self._nums:
            raise UndefinedGrading("the zero polynomial has no grading")
        d = self.degree()
        t = self.theta_degree()
        return (
            d if d is not None else "inhomogeneous",
            t if t is not None else "inhomogeneous",
            self.order(),
        )

    def homogeneous_components(self) -> dict:
        """Split into homogeneity-degree components: degree -> polynomial."""
        comps: dict = {}
        for m, c in self._nums.items():
            comps.setdefault(_key_degree(m), {})[m] = c
        return {d: _make(t, self._D) for d, t in sorted(comps.items())}

    def theta_components(self) -> dict:
        comps: dict = {}
        tmask = _masks(max(self._nums, default=0))[0]
        for m, c in self._nums.items():
            comps.setdefault((m & tmask).bit_count(), {})[m] = c
        return {k: _make(t, self._D) for k, t in sorted(comps.items())}

    # -- coefficient extraction --------------------------------------------

    def coefficient_layers(self, k: int) -> dict:
        """Collect by the exponent of u_k: exponent -> polynomial free of
        that variable."""
        _check_size(k, "jet index")
        shift = _W * k + 1
        layers: dict = {}
        for m, c in self._nums.items():
            e = _exponent(m, k)
            layers.setdefault(e, {})[m - (e << shift)] = c
        return {e: _make(t, self._D) for e, t in sorted(layers.items())}

    def max_u_power(self) -> int:
        """Largest exponent of the undifferentiated u."""
        return max((_exponent(m, 0) for m in self._nums), default=0)

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0]))

    def __str__(self):
        if not self._nums:
            return "0"
        parts = []
        for (even, odd), c in self.sorted_terms():
            factors = []
            for (_, k), e in even:
                name = _name("u", k)
                factors.append(name if e == 1 else f"{name}^{e}")
            for (_, k) in odd:
                factors.append(_name("theta", k))
            if not factors:
                parts.append(_coeff_str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(_coeff_str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"SuperPolynomial({self})"


# -- the canonical form --------------------------------------------------------

def _make(nums: dict, D: int) -> SuperPolynomial:
    """The polynomial sum_m nums[m]/D m, D > 0, in canonical form: zero
    numerators dropped and gcd(D, *nums) divided out.  The only way a
    polynomial is built; nums must not be mutated afterwards."""
    if 0 in nums.values():
        nums = {m: c for m, c in nums.items() if c}
    g = gcd(D, *nums.values()) if D != 1 else 1
    if g != 1:
        nums = {m: c // g for m, c in nums.items()}
        D //= g
    p = object.__new__(SuperPolynomial)
    p._nums = nums
    p._D = D
    return p


def _mul_into(out: dict, a: dict, b: dict, n: int) -> dict:
    """out += n a b for int dicts, in place, term by term in the order of a
    then b, and returns out; the denominator is the caller's."""
    if not a or not b:
        return out
    tmask, guard = _masks(max(max(a), max(b)))
    right = [(m, m & tmask, c) for m, c in b.items()]
    right_odd = any(t for _, t, _ in right)
    get = out.get
    for m1, c1 in a.items():
        t1 = m1 & tmask
        m1 -= _ONE
        c1 *= n
        if t1 and right_odd:
            inv = _inversion_mask(t1)
            for m2, t2, c2 in right:
                if t1 & t2:
                    continue  # theta^2 = 0
                key = m1 + m2
                if key & guard:
                    raise _range_error("a product")
                out[key] = get(key, 0) + (-c1 * c2 if (inv & t2).bit_count() & 1 else c1 * c2)
        else:
            for m2, _, c2 in right:
                key = m1 + m2
                if key & guard:
                    raise _range_error("a product")
                out[key] = get(key, 0) + c1 * c2
    return out


def _theta_times(x: SuperPolynomial, k: int) -> SuperPolynomial:
    """theta x / k, k > 0: theta_0 sorts first, so theta m is m | 1 with sign +1, or 0."""
    return _make({m | 1: c for m, c in x._nums.items() if not m & 1}, x._D * k)


# -- the derivation kernel (see the module docstring) --------------------------

# table of derivatives of the parts of monomials.  d is an even derivation,
# so d(E theta^t) = d(E) theta^t + E d(theta^t): a key m splits into its odd
# part t = m & _THETA and its theta-free part E = m - t, and the table holds
# E -> ((step, multiplier), ...) from `_derive_key` and, for t != 0,
# t -> (step, ...) from `_theta_moves`.  The two kinds of key cannot
# collide: E has every theta bit clear, a nonzero t only theta bits.  A
# derived key is m + step, and the multipliers are integers (exponents), so
# d of an int dict stays an int dict.  The values are deterministic, so
# concurrent readers are safe (a racing recompute is identical) and emptying
# the table once it holds _DERIV_LIMIT entries changes no result.  Parts of
# keys wider than 64 fields are derived on each use and not stored, which
# bounds an entry's size.  The limit is above the 41 334 parts of the
# quasi-Miura series of KdV through eps^16 and the 3 353 parts of 52 passes
# of random Jacobi checks (seed 14, 48 746 distinct monomials).  Those 3 353
# entries retain 1.04 MB under tracemalloc, 311 bytes each (CPython 3.11),
# so a full table holds about 20 MB.  The filing table below keeps the same
# limit and rule; the same 52 passes file 712 parts, whose entries retain
# 254 kB, 357 bytes each, so it too holds at most about 23 MB.
_DERIV_CACHE: dict = {}
_DERIV_LIMIT = 65536
_THETA = _MASKS[64][0]       # the theta bits of fields 0..63
_WIDE = 1 << (_W * 64)       # the keys from here on are wider than 64 fields
# the steps of u_k^e -> u_k^(e-1) u_{k+1} and theta_k -> theta_{k+1}, shared
# by every table entry
_STEPS = tuple((2 << (_W * k + _W)) - (2 << (_W * k)) for k in range(64))
_MOVES = tuple((1 << (_W * k + _W)) - (1 << (_W * k)) for k in range(64))

# table of the filing entries of the parts of monomials, beside _DERIV_CACHE
# and under its limit and clearing rule: a theta part t != 0 -> ((k, bit,
# sign), ...) over its factors theta_k, where sign = (-1)^(k+i) and i is the
# number of theta factors below theta_k (a left derivative jumps them), and
# a theta-free part E -> ((k, unit, (-1)^k e), ...) over its factors u_k^e.
# The partial derivative by theta_k or u_k of a key m is then m - bit or
# m - unit, times the signed multiplier; `_file` multiplies in C(k, lo) and
# (-1)^lo, so one loop serves both parities and every [lo, hi].  The keys
# cannot collide: t has only theta bits, E none, and neither t = 0 nor an E
# with u_1^-8192 (whose field 1 is 0, so u_1^-8192 alone is the key 0) is
# stored.  Parts of keys wider than 64 fields are filed on each use and not
# stored.
_FILE_CACHE: dict = {}
# the bit of theta_k and the unit of u_k, shared by every filing entry
_BITS = tuple(1 << (_W * k) for k in range(64))
_UNITS = tuple(2 << (_W * k) for k in range(64))


def _store(table: dict, part: int, ents):
    """table[part] = ents on a miss, emptying a full table first (see _DERIV_CACHE)."""
    if len(table) >= _DERIV_LIMIT:
        table.clear()
    table[part] = ents
    return ents


def _u_factors(m: int):
    """The factors u_k^e, e != 0, of the theta-free key m as [(k, e), ...] in
    field order.  The nonzero fields come from a bit fold, so the cost is
    linear in the key's length per nonzero field."""
    x = m ^ _ONE  # field 1 of x is 0 exactly when u_1 has exponent 0
    x |= x >> 8
    x |= x >> 4
    x |= x >> 2
    x |= x >> 1
    nz = x & (_THETA if m < _WIDE else _masks(m)[0])  # bit 0 of each nonzero field
    out = []
    while nz:
        low = nz & -nz
        nz ^= low
        shift = low.bit_length() - 1
        k = shift // _W
        f = (m >> shift) & _FIELD
        out.append((k, (f >> 1) - _BIAS if k == 1 else f >> 1))
    return out


def _derive_key(m: int):
    """d of the monomial with theta-free key m, as ((step, multiplier), ...)
    in field order: by Leibniz, u_k^e gives e u_k^(e-1) u_{k+1}, whose key is
    m + step."""
    ents = []
    for k, e in _u_factors(m):
        shift = _W * k
        # u_1^e loses one power, u_{k+1} gains one (_E_MAX is also the
        # largest value a field stores)
        if e == _U1_MIN or (m >> (shift + _W + 1)) & _E_MAX == _E_MAX:
            raise _range_error("a total derivative")
        ents.append((_STEPS[k] if k < 64 else (2 << (shift + _W)) - (2 << shift), e))
    return tuple(ents)


def _theta_moves(t: int):
    """d of the odd part t (a product of theta factors, t != 0), as the steps
    (step, ...) of its terms in field order: d is even, so theta_k ->
    theta_{k+1} keeps its place and sign, and is dropped when theta_{k+1} is
    in t already."""
    free = t & ~(t >> _W)
    moves = []
    while free:
        low = free & -free
        free ^= low
        k = (low.bit_length() - 1) // _W
        moves.append(_MOVES[k] if k < 64 else (low << _W) - low)
    return tuple(moves)


def _add_derivative(out: dict, terms: dict) -> dict:
    """out + d(terms) for int dicts, without zero coefficients; out is
    updated in place, and is the result unless a coefficient cancelled.  For
    each term m = E theta^t, the terms of d(E) theta^t come first, then those
    of E d(theta^t), each in field order.  The one reader of `_DERIV_CACHE`."""
    cache = _DERIV_CACHE
    get = out.get
    for m, c in terms.items():
        if m < _WIDE:
            t = m & _THETA
            even = m - t
            ents = cache.get(even)
            if ents is None:
                ents = _store(cache, even, _derive_key(even))
            if t:
                moves = cache.get(t)
                if moves is None:
                    moves = _store(cache, t, _theta_moves(t))
            else:
                moves = ()
        else:
            t = m & _masks(m)[0]
            ents, moves = _derive_key(m - t), _theta_moves(t) if t else ()
        for step, mult in ents:
            key = m + step
            out[key] = get(key, 0) + c * mult
        for step in moves:
            key = m + step
            out[key] = get(key, 0) + c
    return {m: c for m, c in out.items() if c} if 0 in out.values() else out


def _filing_entries(part: int, odd: bool):
    """The filing entries of a theta part (odd true) or a theta-free part,
    see `_FILE_CACHE`; () for the theta part 0."""
    ents = []
    if odd:
        i = 0  # theta_k jumps the i odd factors below it
        while part:
            low = part & -part
            part ^= low
            k = low.bit_length() // _W
            ents.append((k, _BITS[k] if k < 64 else low, -1 if (i + k) & 1 else 1))
            i += 1
    else:
        for k, e in _u_factors(part):
            ents.append((k, _UNITS[k] if k < 64 else 2 << (_W * k), -e if k & 1 else e))
    return tuple(ents)


def _file(nums: dict, odd: bool, lo: int, hi: int = sys.maxsize) -> dict:
    """The filing sweep.  pieces[j] is the int dict of (-1)^j C(lo+j, lo)
    times the partial derivative of nums by u_{lo+j} (odd false) or
    theta_{lo+j} (odd true, a left derivative), for lo+j <= hi; the
    denominator is unchanged.  Each term files the entries of its part that
    lie in [lo, hi], in field order.  The one reader of `_FILE_CACHE`."""
    pieces: dict = {}
    if hi < 0:
        return pieces  # no index is negative
    table = _FILE_CACHE
    for m, n in nums.items():
        t = m & (_THETA if m < _WIDE else _masks(m)[0])
        part = t if odd else m - t
        ents = table.get(part)
        if ents is None:
            ents = _filing_entries(part, odd)
            if not odd and not (part >> _W) & _FIELD:
                # u_1^-8192, whose field 1 is 0: never stored, so its
                # partial derivative by u_1 is refused on every use
                if lo <= 1 <= hi:
                    raise _range_error("a partial derivative")
            elif part and part < _WIDE:
                _store(table, part, ents)
        for k, unit, x in ents:
            if k > hi:
                break
            if k >= lo:
                v = n * x
                if lo:
                    v *= -comb(k, lo) if lo & 1 else comb(k, lo)
                key = m - unit
                piece = pieces.get(k - lo)
                if piece is None:
                    piece = pieces[k - lo] = {}
                piece[key] = piece.get(key, 0) + v
    return pieces


def _variational(a: SuperPolynomial, odd: bool, level: int) -> SuperPolynomial:
    """delta_{level, u} a (odd false) or delta_{level, theta} a (odd true),
    level >= 0 (the public wrappers check it), evaluated as p_0 + d(p_1 +
    d(...)) on the pieces p_j of `_file`."""
    pieces = _file(a._nums, odd, level)
    acc: dict = {}
    if pieces:
        top = max(pieces)
        acc = pieces[top]
        for j in range(top - 1, -1, -1):
            acc = _add_derivative(pieces.get(j, {}), acc)
    return _make(acc, a._D)


def _exponent(m: int, k: int) -> int:
    """The exponent of u_k in the key m."""
    f = (m >> (_W * k + 1)) & _E_MAX
    return f - _BIAS if k == 1 else f


def _antidiff_u(p: SuperPolynomial, k: int):
    """(h, blocked), partial_u(k) h = p - blocked: a term c m u_k^e gives
    c m u_k / (e + 1), over the lcm of the new powers, and blocked holds the
    u_1^-1 terms (log u_1); a new power out of range raises AlgebraError."""
    unit = 2 << (_W * k)
    h, blocked, L = [], {}, 1
    for m, c in p._nums.items():
        e = _exponent(m, k) + 1
        if e:
            _check_exponent(k, e)
            h.append((m + unit, c, e))
            L = lcm(L, e)
        else:
            blocked[m] = c
    return _make({m: c * (L // e) for m, c, e in h}, p._D * L), _make(blocked, p._D)


def _integrate(a: SuperPolynomial):
    """(g, r) with a = d(g) + r, by top-order descent on the terms bucketed
    by order.  At top order n the theta_n terms move down to theta_{n-1}
    with their coefficients (d theta_{n-1} = theta_n keeps its place and
    sign), then the u_n-linear terms integrate in u_{n-1}; d of both is
    subtracted.  What the step cannot take stays at order n and goes to r:
    a theta_n term with theta_{n-1} or u_n, a term nonlinear in u_n,
    u_1^-1 u_2 (log u_1), and every term still at order n after the step;
    at order 0 the whole remainder goes to r.  So r = 0 exactly when a is
    a total derivative, and for a theta-free a, r is the canonical residue.
    An antiderivative power of u_{n-1} past the exponent range sends a term
    with a theta factor to r (d has kernel 0 on such terms, so their density
    has no antiderivative in the ring) and raises AlgebraError for a
    theta-free term, which may be exact (u_1^8191 u_2 is d(u_1^8192 / 8192)
    over Q).  Every bucket, g and r are over the one denominator D."""
    D = a._D
    tmask = _masks(max(a._nums, default=0))[0]
    work: dict = {}  # order -> {key: numerator}
    for m, c in a._nums.items():
        work.setdefault(_key_order(m), {})[m] = c
    g: dict = {}
    r: dict = {}
    while work:
        n = max(work)
        top = {m: c for m, c in work.pop(n).items() if c}
        if n == 0:
            r.update(top)
            break
        s = _W * n
        bit = 1 << s
        # -(the theta_n terms that move down: those without theta_{n-1} or u_n)
        neg_x = {m - bit + (bit >> _W): -c for m, c in top.items()
                 if m & bit and not ((m >> (s - _W)) & 1 or _exponent(m, n))}
        if neg_x:
            top = _add_derivative(top, neg_x)
        y, L = [], 1
        for m, c in top.items():
            if not m & bit and _exponent(m, n) == 1:
                e = _exponent(m, n - 1) + 1
                if e > (_U1_MAX if n == 2 else _E_MAX):
                    if not m & tmask:
                        raise _range_error(f"{_name('u', n - 1)}^{e}")
                elif e:  # e = 0 needs log u_1
                    y.append((m - (2 << s) + (2 << (s - _W)), c, e))
                    L = lcm(L, e)
        if L != 1:
            D *= L
            for terms in (top, neg_x, g, r, *work.values()):
                for m in terms:
                    terms[m] *= L
        neg_y = {key: -c * (L // e) for key, c, e in y}
        top = _add_derivative(top, neg_y)
        for terms in (neg_x, neg_y):
            for m, c in terms.items():
                g[m] = g.get(m, 0) - c
        for m, c in top.items():
            o = _key_order(m)
            bucket = r if o == n else work.setdefault(o, {})
            bucket[m] = bucket.get(m, 0) + c
    return _make(g, D), _make(r, D)


def _koszul_dP(a: SuperPolynomial) -> SuperPolynomial:
    """D_P a = sum_k theta_{k+1} partial_{u_k} a, theta_{k+1} multiplying on
    the left: d_P for P = d, since d_P(class a) = -class(D_P a).  Piece k of one
    filing is (-1)^k partial_{u_k} a; theta_{k+1} jumps the odd factors below it."""
    out: dict = {}
    for k, piece in _file(a._nums, False, 0).items():
        bit = 1 << (_W * k + _W)
        below = _field_masks(k + 1)[0]  # the theta bits of fields 0..k
        for m, n in piece.items():
            if not m & bit:  # theta_{k+1}^2 = 0
                key = m + bit
                out[key] = out.get(key, 0) + (-n if ((m & below).bit_count() + k) & 1 else n)
    return _make(out, a._D)


def _contract(a: SuperPolynomial) -> SuperPolynomial:
    """The contracting homotopy K of D_P: K m = h_k m / w_k, where h_k = u_k
    partial_{theta_{k+1}} has D_P h_k + h_k D_P = w_k = e_k + [theta_{k+1}
    in m] and k is the first pair with w_k != 0.  So D_P K + K D_P = 1 on
    monomials of nonzero weight; K is 0 on the others, theta_0^i (u_1^-1
    theta_2)^j, which span the cohomology of D_P."""
    ents = []
    for m, n in a._nums.items():
        below = 0
        for k in range(_key_order(m) + 1):
            f = (m >> (_W * k)) & _FIELD
            below += f & 1
            e = (f >> 1) - _BIAS if k == 1 else f >> 1
            up = (m >> (_W * k + _W)) & 1
            if e + up:
                if up:
                    _check_exponent(k, e + 1)
                    ents.append((m + (2 << (_W * k)) - (1 << (_W * k + _W)),
                                 -n if below & 1 else n, e + 1))
                break
    L = lcm(*(w for _, _, w in ents))
    out: dict = {}
    for key, n, w in ents:
        out[key] = out.get(key, 0) + n * (L // w)
    return _make(out, a._D * L)


def _name(base, k):
    return base if k == 0 else f"{base}_{k}"


def _coeff_str(c: Fraction) -> str:
    try:
        return str(c)
    except ValueError:  # more digits than Python converts; the limit is process-global
        raise AlgebraError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                           "digits, Python's int/str conversion limit") from None


def _theta_free(p: SuperPolynomial) -> bool:
    """No term of p has an odd factor (true for the zero polynomial).  Unlike
    `theta_degree() in (0, None)`, this rejects mixed theta-degree."""
    tmask = _masks(max(p._nums, default=0))[0]
    return not any(m & tmask for m in p._nums)


def grading_info(a: SuperPolynomial):
    return a.grading_info()


class DiffOperator:
    """A differential operator sum_j P_j d^j, j >= 0, with theta-free
    coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for j, p in coeffs.items():
            if type(j) is not int or j < 0:
                raise AlgebraError(f"operator orders must be nonnegative integers, got {j!r}")
            if not isinstance(p, SuperPolynomial):
                p = SuperPolynomial.const(p)  # refuses a coefficient that is not exact
            if not _theta_free(p):
                raise AlgebraError("operator coefficients must be free of odd coordinates")
            if p:
                clean[j] = p
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def d(cls, j=1):
        return cls({j: SuperPolynomial.const(1)})

    def order(self) -> int:
        return max(self.coeffs, default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if _is_scalar(other):
            other = DiffOperator({0: other})
        elif not isinstance(other, DiffOperator):
            return NotImplemented
        coeffs = dict(self.coeffs)
        for j, p in other.coeffs.items():
            coeffs[j] = coeffs[j] + p if j in coeffs else p
        return DiffOperator(coeffs)  # drops the coefficients that cancelled

    __radd__ = __add__

    def __neg__(self):
        return DiffOperator({j: -p for j, p in self.coeffs.items()})

    def __sub__(self, other):
        if not (_is_scalar(other) or isinstance(other, DiffOperator)):
            return NotImplemented  # -True would be read as -1
        return self + (-other)

    def scale(self, c) -> "DiffOperator":
        _check_scalar(c)
        return DiffOperator({j: p * c for j, p in self.coeffs.items()})

    # apply, compose and adjoint each keep one running derivative, so a
    # del^j term costs j applications of d, not j^2/2

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        derivs, df, done = {}, f, 0
        for j in sorted(self.coeffs):
            df = derivs[j] = df.dx(j - done)
            done = j
        out = SuperPolynomial()
        for j, p in self.coeffs.items():
            out = out + p * derivs[j]
        return out

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self . other."""
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                db = b
                for t in range(i + 1):
                    if t:
                        db = db.total_derivative()
                    c = a * db * comb(i, t)
                    key = i + j - t
                    cur = out.get(key)
                    out[key] = c if cur is None else cur + c
        return DiffOperator(out)

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint: (P d^j)* = (-d)^j . P."""
        out: dict = {}
        for j, p in self.coeffs.items():
            sign = -1 if j & 1 else 1
            dp = p
            for t in range(j + 1):
                if t:
                    dp = dp.total_derivative()
                c = dp * (comb(j, t) * sign)
                key = j - t
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
        return DiffOperator(out)

    def is_skew_adjoint(self) -> bool:
        return (self.adjoint() + self).is_zero()

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in sorted(self.coeffs, reverse=True):
            p = self.coeffs[j]
            head = str(p)
            if " + " in head or " - " in head[1:]:
                head = f"({head})"
            if j == 0:
                parts.append(head)
            else:
                dpart = "del" if j == 1 else f"del^{j}"
                parts.append(dpart if head == "1" else f"-{dpart}" if head == "-1" else f"{head}*{dpart}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"DiffOperator({self})"


def adjoint(d: DiffOperator) -> DiffOperator:
    return d.adjoint()
