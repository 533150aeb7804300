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
unbounded: a key is as long as its largest index needs.  This module and
`_koszul` (D_P and its homotopy, which only `dkdv` uses) read and build
keys, and so do two places outside them: `MultiVector._delta_theta` in
`variational` builds keys as m - 1 and m + 1 (theta_0 off and on), and
`parsing` files its numbers under `_ONE` and reads theta bits in
`_power_size`; its other keys come from the generators and `_product`.
An operator's D theta = sum_j D_j theta_j is the theta_j bit added to the
keys of D_j (`_on_theta`), and `_off_theta` reads the D_j back off those
keys.
`_pack` serves the slice enumeration, and `_numerators` hands the slice
solver integer coefficients under keys it treats as opaque labels.
`_is_laurent` is the one test for a negative power of u_1.

On packed keys the ring is integer arithmetic.  A product of monomials whose
theta bits are disjoint (theta^2 = 0 otherwise) has the key m1 + m2 - `_ONE`,
one guard-mask test per term checks its range, and its Koszul sign is the
parity of the inversions between the two odd parts, one `int.bit_count` over
a mask precomputed per left term (`_inversion_mask`).  `_mul_into`, the one
product loop, adds n a b to an int dict: `*` and the Schouten bracket's two
products share it.  `_product`, the numerators of a product, takes one term
by one apart, and `*` and the parser share it.  theta m is m with bit 0 set
(`_theta_times`).  d of u_k^e is e times the key minus the unit of field k
plus the unit of field k+1; d of theta_k moves its bit one field up.  Odd
factors are ordered by index, and odd partial derivatives are left
derivations.  `str` prints from the keys.

`terms` is the view for `sorted_terms` and tests, built on demand with
no memo: a fresh dict {(even, odd): Fraction} whose even part is a
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
receive, in one sweep; `_horner` sums p_0 + d(p_1 + d(...)) over the
pieces, one level per application of d.  Neither changes D.  partial_u and
partial_theta are one filing, d^n is one Horner call, and `_jet(p, n)` is
the list p, d p, ..., d^n p from n one-level calls: the operators' apply,
compose and adjoint, a vector field's action and the e/S/E systems of
`dkdv` read every run of total derivatives from it.  `_variational`
(delta_u) is one filing plus one Horner call, and so is `_theta_pass`
(delta_theta, which can leave out the theta_0 terms that theta kills) on a
small density or one of few terms per odd part; on the others it files
and derives groups {E: n} of the terms E theta^t of one odd part t, since
d keeps t on d(E) theta^t and moves theta_k to theta_{k+1} without
touching E, so a group moves by one copy in C where the flat loop adds
term by term.  `_antidiff_u`, the antiderivative in u_k, adds one unit to
field k of each key.  `_integrate`, formal integration in x,
descends from the top order with the same step and splits a = d(g) + r at
every theta-degree, r = 0 exactly when a is exact; an antiderivative power
past the exponent range raises AlgebraError for a theta-free term and goes
to r for a term with a theta factor.  d is an even derivation, so its
table (`_DERIV_CACHE`) holds the derivatives of the theta-free and the odd
parts of the keys it meets, not of the keys: a few thousand parts cover the
tens of thousands of monomials of a Jacobi check.
The filing reads a second table of the same parts (`_FILE_CACHE`).  One
rule, in `_store`, decides what both tables hold: parts wider than 64
fields are not stored, and a table is emptied once it holds 65 536
entries.  The filing entries are, for an odd part, the bit of each theta_k
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


def _check_density(a, what: str = "a density") -> None:
    """Refuse an a that is not a SuperPolynomial, naming what was expected."""
    if not isinstance(a, SuperPolynomial):
        raise TypeError(f"{what} must be a SuperPolynomial, got {a!r}")


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


def _check_factor(a, k, *e) -> None:
    """Refuse a factor ((a, k), e), or (a, k) with no e, that is not u_k^e
    or theta_k, k >= 0 (e < 0 only for u_1)."""
    if (a != 1 or type(k) is not int or k < 0
            or e and (type(e[0]) is not int or e[0] < 0 and k != 1)):
        raise AlgebraError(f"invalid factor (({a!r}, {k!r}), {e[0]!r}): the index must be at least "
                           "0, and only u_1 has negative powers" if e else
                           f"invalid odd factor ({a!r}, {k!r}): the index must be at least 0")


def _normal_key(mono):
    """(sign, key) of a monomial given as (even factors, odd factors) in any
    order, or None when an odd generator repeats (theta^2 = 0)."""
    exps: dict = {}
    for (a, k), e in mono[0]:
        _check_factor(a, k, e)
        exps[k] = exps.get(k, 0) + e
    key = _ONE
    for k, e in exps.items():
        _check_exponent(k, e)
        key += e << (_W * k + 1)
    sign, odd = 1, 0
    for a, k in mono[1]:
        _check_factor(a, k)
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


_MASKS = tuple(map(_field_masks, range(65)))


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
    d = -_BIAS
    for k, f in enumerate(_fields(key)):
        d += k * ((f >> 1) + (f & 1))
    return d


def _key_order(key: int) -> int:
    """The largest index of a factor of the key; 0 for a constant."""
    k = (key.bit_length() - 1) // _W
    if k >= 2:
        return k
    return 0 if key >> _W == _BIAS << 1 else 1


def _numerators(p: "SuperPolynomial"):
    """(nums, D): p is sum_m nums[m]/D m, nums an int dict under packed keys
    and D > 0, in canonical form.  The dict is p's own: read it, never
    mutate it.  Outside the ring layer the keys are opaque labels."""
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
        terms, D = dict(terms), 1
        for c in terms.values():
            _check_scalar(c)
            D = lcm(D, c.denominator)
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
        _check_factor(1, k, power)
        _check_exponent(k, power)
        return _make({_ONE + (power << (_W * k + 1)): 1}, 1)

    @classmethod
    def theta(cls, k=0, *, hat=False):
        _check_factor(1, k)
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
        return _make(_product(self._nums, other._nums), self._D * other._D)

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
        return _make(_horner({n: self._nums}, n), self._D)

    # -- gradings ----------------------------------------------------------

    def theta_degree(self):
        """Uniform theta-degree, or None if mixed.  Zero polynomial -> None."""
        if not self._nums:
            return None
        tmask = _masks(max(self._nums))[0]
        degs = {(m & tmask).bit_count() for m in self._nums}
        return degs.pop() if len(degs) == 1 else None

    def degree(self):
        """Uniform homogeneity degree (deg u_k = deg theta_k = k,
        deg u_1^{-1} = -1), or None if inhomogeneous."""
        degs = {_key_degree(m) for m in self._nums}
        return degs.pop() if len(degs) == 1 else None

    def order(self) -> int:
        """Largest jet index appearing (even or odd); 0 for constants."""
        return max(map(_key_order, self._nums)) if self._nums else 0

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

    def _split(self, label, shift=None) -> dict:
        """e -> the polynomial of the terms m with label(m) = e, by ascending
        e; with a shift, each term keyed m - (e << shift)."""
        comps: dict = {}
        for m, c in self._nums.items():
            e = label(m)
            comps.setdefault(e, {})[m - (e << shift) if shift else m] = c
        return {e: _make(t, self._D) for e, t in sorted(comps.items())}

    def homogeneous_components(self) -> dict:
        """Split into homogeneity-degree components: degree -> polynomial."""
        return self._split(_key_degree)

    def theta_components(self) -> dict:
        tmask = _masks(max(self._nums) if self._nums else 0)[0]
        return self._split(lambda m: (m & tmask).bit_count())

    # -- coefficient extraction --------------------------------------------

    def coefficient_layers(self, k: int) -> dict:
        """Collect by the exponent of u_k: exponent -> polynomial free of
        that variable."""
        _check_size(k, "jet index")
        return self._split(lambda m: _exponent(m, k), _W * k + 1)

    def max_u_power(self) -> int:
        """Largest exponent of the undifferentiated u."""
        return max(_exponent(m, 0) for m in self._nums) if self._nums else 0

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_print_order)

    def __str__(self):
        if not self._nums:
            return "0"
        parts = []
        for (even, odd), n in sorted(zip(map(_unpack, self._nums), self._nums.values()),
                                     key=_print_order):
            factors = []
            for (_, k), e in even:
                factors.append(_name("u", k) + ("" if e == 1 else f"^{e}"))
            for _, k in odd:
                factors.append(_name("theta", k))
            c = _coeff_str(n, self._D)
            if not factors:
                parts.append(c)
            elif c == "1":
                parts.append("*".join(factors))
            elif c == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(c + "*" + "*".join(factors))
        return _signed_sum(parts)

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


def _product(a: dict, b: dict) -> dict:
    """The int dict a b, which may hold zeros: one term by one adds the two
    keys and takes the Koszul sign, and everything else is `_mul_into`."""
    if len(a) == 1 == len(b):
        [(m1, c1)], [(m2, c2)] = a.items(), b.items()
        if m1 == _ONE or m2 == _ONE:  # a constant factor: no sign, no new exponent
            return {m1 + m2 - _ONE: c1 * c2}
        tmask, guard = _MASKS[64] if m1 < _WIDE > m2 else _masks(max(m1, m2))
        t1, t2 = m1 & tmask, m2 & tmask
        if t1 & t2:
            return {}
        key = m1 + m2 - _ONE
        if key & guard:
            raise _range_error("a product")
        if t1 and t2 and (_inversion_mask(t1) & t2).bit_count() & 1:
            c1 = -c1
        return {key: c1 * c2}
    return _mul_into({}, a, b, 1)


def _theta_times(x: SuperPolynomial, k: int) -> SuperPolynomial:
    """theta x / k, k > 0: theta_0 sorts first, so theta m is m | 1 with sign +1, or 0."""
    return _make({m | 1: c for m, c in x._nums.items() if not m & 1}, x._D * k)


def _on_theta(coeffs: dict) -> SuperPolynomial:
    """D theta = sum_j coeffs[j] theta_j for the theta-free coefficients of
    an operator D: theta_j is the one odd factor, so each key of coeffs[j]
    gains its bit with sign +1."""
    L = lcm(*(p._D for p in coeffs.values()))
    nums = {}
    for j, p in coeffs.items():
        bit, f = _BITS[j] if j < 64 else 1 << (_W * j), L // p._D
        for m, c in p._nums.items():
            nums[m + bit] = c * f
    return _make(nums, L)


def _off_theta(p: SuperPolynomial):
    """The inverse of `_on_theta`: {j: p_j} for p = sum_j p_j theta_j, read
    off the keys of p in one pass; None when a term of p has other than
    one odd factor."""
    tmask = _masks(max(p._nums) if p._nums else 0)[0]
    parts: dict = {}
    for m, c in p._nums.items():
        t = m & tmask
        if not t or t & (t - 1):
            return None
        parts.setdefault(t, {})[m - t] = c
    return {(t.bit_length() - 1) // _W: _make(nums, p._D) for t, nums in parts.items()}


# -- the derivation kernel (see the module docstring) --------------------------

# table of derivatives of the parts of monomials, read by the level loops
# `_horner` and `_theta_pass` at every level of every run of d.  d is an even
# derivation, so d(E theta^t) = d(E) theta^t + E d(theta^t): a key m splits
# into its odd part t, the theta bits of m, and its theta-free part E = m - t,
# and the table holds E -> ((step, multiplier), ...) from `_derive_key` and,
# for t != 0, t -> (step, ...) from `_theta_moves`.  The two kinds of key
# cannot collide: E has every theta bit clear, a nonzero t only theta bits.  A
# derived key is m + step, and the multipliers are integers (exponents), so d
# of an int dict stays an int dict.  The values are deterministic, so
# concurrent readers are safe (a racing recompute is identical) and emptying
# the table once it holds _DERIV_LIMIT entries changes no result.  Parts wider
# than 64 fields are not stored, whatever key they come from, which bounds an
# entry's size; `_store` is the one place that applies this rule and the
# limit, to both tables.  The limit is above the 41 334 parts of the
# quasi-Miura series of KdV through eps^16 and the 2 850 parts of 52 passes of
# the Jacobi benchmark (seed 14).  Those entries retain 1.17 MB under
# tracemalloc, 420 bytes each (CPython 3.11, measured on an unpickled copy),
# so a full table holds about 28 MB.  The filing table below is stored under
# the same limit and rule; the same 52 passes file 712 parts, 360 of them odd,
# whose entries retain 210 kB, 302 bytes each, so it too holds at most about
# 20 MB.
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
# (-1)^lo, so one loop serves both parities and every [lo, hi], and a
# grouped theta pass files a whole group by one entry of t.  The keys
# cannot collide: t has only theta bits, E none, and neither t = 0 nor an E
# with u_1^-8192 (whose field 1 is 0, so u_1^-8192 alone is the key 0) is
# stored.
_FILE_CACHE: dict = {}
# the bit of theta_k and the unit of u_k, shared by every filing entry
_BITS = tuple(1 << (_W * k) for k in range(64))
_UNITS = tuple(2 << (_W * k) for k in range(64))


def _store(table: dict, part: int, ents):
    """table[part] = ents on a miss, emptying a full table first, unless the
    part is wider than 64 fields (see _DERIV_CACHE); returns ents."""
    if part < _WIDE:
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
    (step, ...) of its terms in field order, read off the filing entries of
    t: d is even, so theta_k -> theta_{k+1} keeps its place and sign, and is
    dropped when theta_{k+1} is in t already."""
    return tuple(_MOVES[k] if k < 64 else (bit << _W) - bit
                 for k, bit, _ in _filing_entries(t, True) if not t & bit << _W)


def _horner(pieces: dict, top: int, y=None) -> dict:
    """p_0 + d(p_1 + d(... + d(p_top))) for the int dicts p_j = pieces.get(j),
    without zero coefficients: each level adds d of the one above into p_j, in
    place, skipping zero coefficients as it reads them.  For each term m = E
    theta^t, the terms of d(E) theta^t come first, then those of E
    d(theta^t), each in field order.  With a dict y, a term theta_0 x of
    level 1 adds only theta_1 x to level 0 and x goes to y: the result is
    the sum less theta_0 d(y)."""
    cache = _DERIV_CACHE
    j, acc = top, pieces.get(top, {})
    while j:
        j -= 1
        out = pieces.get(j, {})
        get = out.get
        split = y is not None and not j
        for m, c in acc.items():
            if not c:
                continue
            if split and m & 1:
                y[m - 1] = c
                if not m & _BITS[1]:  # theta_1 x, unless theta_1 is in x
                    key = m + _MOVES[0]
                    out[key] = get(key, 0) + c
                continue
            t = m & (_THETA if m < _WIDE else _masks(m)[0])
            even = m - t
            ents = cache.get(even)
            if ents is None:
                ents = _store(cache, even, _derive_key(even))
            moves = cache.get(t) or _store(cache, t, _theta_moves(t)) if t else ()
            for step, mult in ents:
                key = m + step
                out[key] = get(key, 0) + c * mult
            for step in moves:
                key = m + step
                out[key] = get(key, 0) + c
        acc = out
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


# (terms, terms per odd part): a theta pass runs on groups when its density
# has at least these many; on smaller densities, moving a group costs more
# than the flat loop pays for its few terms
_GROUPED = (32, 3)


def _theta_pass(a: SuperPolynomial, level: int, y=None) -> dict:
    """delta_{level, theta} a, level >= 0, as an int dict over the
    denominator of a, with the theta_0 split of `_horner` for a dict y
    (level 0).  A density with fewer terms, or fewer terms per odd part,
    than _GROUPED runs flat, `_horner` on `_file`; the others run on the
    groups {E: n} of its terms E theta^t of one odd part t.  A filing entry
    of t copies a whole group under t - bit, one-to-one in t, so no two
    groups of a piece meet.  d keeps the odd part of d(E) theta^t and moves
    theta_k to theta_{k+1} without touching E, so a level derives the E of
    a group into the group of t and moves the whole group, by a copy in C
    when the target is empty; the split sends a theta_0 group to y."""
    nums, (least, share) = a._nums, _GROUPED
    n = len(nums)
    # the odd parts are counted on fields 0..63, which is enough to pick a path
    if n < least or n < share * len({m & _THETA for m in nums}):
        pieces = _file(nums, True, level)
        return _horner(pieces, max(pieces) if pieces else 0, y)
    groups: dict = {}
    for m, c in nums.items():
        t = m & (_THETA if m < _WIDE else _masks(m)[0])
        groups.setdefault(t, {})[m - t] = c
    table, cache, pieces = _FILE_CACHE, _DERIV_CACHE, {}
    for t, grp in groups.items():
        ents = table.get(t)
        if ents is None:
            ents = _store(table, t, _filing_entries(t, True)) if t else ()
        for k, bit, x in ents:
            if k >= level:
                if level:
                    x *= -comb(k, level) if level & 1 else comb(k, level)
                pieces.setdefault(k - level, {})[t - bit] = \
                    grp.copy() if x == 1 else {E: c * x for E, c in grp.items()}
    j = max(pieces) if pieces else 0
    acc = pieces.get(j, {})
    while j:
        j -= 1
        out = pieces.get(j, {})
        for t, grp in acc.items():
            if y is not None and not j and t & 1:
                for E, c in grp.items():
                    if c:
                        y[E + t - 1] = c
                moves = () if t & _BITS[1] else _MOVES[:1]
            else:
                tgt = None  # the group of t, made when a derivative enters it
                for E, c in grp.items():
                    if c:
                        ents = cache.get(E)
                        if ents is None:
                            ents = _store(cache, E, _derive_key(E))
                        if ents and tgt is None:
                            tgt = out.setdefault(t, {})
                            get = tgt.get
                        for step, mult in ents:
                            key = E + step
                            tgt[key] = get(key, 0) + c * mult
                moves = cache.get(t) or _store(cache, t, _theta_moves(t)) if t else ()
            for step in moves:
                tgt = out.get(t + step)
                if tgt:
                    get = tgt.get
                    for E, c in grp.items():
                        tgt[E] = get(E, 0) + c
                else:
                    out[t + step] = grp.copy()
        acc = out
    return {E + t: c for t, grp in acc.items() for E, c in grp.items()}


def _jet(p: SuperPolynomial, n: int) -> list:
    """[p, d p, ..., d^n p], n >= 0: n one-level steps of `_horner` on the
    numerators of p, each over its denominator.  Every run of total
    derivatives that keeps the intermediate ones reads them from here."""
    jet, nums = [p], p._nums
    for _ in range(n):
        nums = _horner({1: nums}, 1)
        jet.append(_make(nums, p._D))
    return jet


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
    lie in [lo, hi], in field order.  Its table is `_FILE_CACHE`, which the
    grouped pass of `_theta_pass` reads as well."""
    pieces: dict = {}
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
            elif part:
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


def _variational(a: SuperPolynomial, level: int) -> SuperPolynomial:
    """delta_{level, u} a, level >= 0 (the public wrappers check it), as
    p_0 + d(p_1 + d(...)) on the pieces p_j of `_file`, by `_horner`."""
    pieces = _file(a._nums, False, level)
    return _make(_horner(pieces, max(pieces) if pieces else 0), a._D)


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
    tmask = _masks(max(a._nums) if a._nums else 0)[0]
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
            top = _horner({0: top, 1: neg_x}, 1)
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
        top = _horner({0: top, 1: neg_y}, 1)
        for terms in (neg_x, neg_y):
            for m, c in terms.items():
                g[m] = g.get(m, 0) - c
        for m, c in top.items():
            o = _key_order(m)
            bucket = r if o == n else work.setdefault(o, {})
            bucket[m] = bucket.get(m, 0) + c
    return _make(g, D), _make(r, D)


def _name(base, k):
    return base if k == 0 else f"{base}_{k}"


def _signed_sum(parts) -> str:
    """The printed terms joined by + and -."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _print_order(term):
    """The print order of a term (monomial, coefficient): by the number of
    odd factors, then the odd part, then the even part."""
    (even, odd), _ = term
    return len(odd), odd, even


def _coeff_str(n: int, D: int) -> str:
    """n/D as its Fraction prints."""
    g = gcd(n, D)
    try:
        return str(n // g) if g == D else f"{n // g}/{D // g}"
    except ValueError:  # more digits than Python converts; the limit is process-global
        raise AlgebraError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                           "digits, Python's int/str conversion limit") from None


def _theta_free(p: SuperPolynomial) -> bool:
    """No term of p has an odd factor (true for the zero polynomial).  Unlike
    `theta_degree() in (0, None)`, this rejects mixed theta-degree."""
    tmask = _masks(max(p._nums) if p._nums else 0)[0]
    for m in p._nums:
        if m & tmask:
            return False
    return True


def _is_laurent(p: SuperPolynomial) -> bool:
    """Some term of p has a negative power of u_1 (false for the zero
    polynomial): the u_1 field e + 2^13 of its key is below the bias, so the
    top bit of that field, the one bit of `_ONE`, is clear."""
    return not all(m & _ONE for m in p._nums)


def grading_info(a: SuperPolynomial):
    _check_density(a)
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
        return max(self.coeffs) if self.coeffs else 0

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
        return self.scale(-1)

    def __sub__(self, other):
        if not (_is_scalar(other) or isinstance(other, DiffOperator)):
            return NotImplemented  # -True would be read as -1
        return self + (-other)

    def scale(self, c) -> "DiffOperator":
        _check_scalar(c)
        return DiffOperator({j: p * c for j, p in self.coeffs.items()})

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        _check_density(f)
        df = _jet(f, self.order())
        out = SuperPolynomial()
        for j, p in self.coeffs.items():
            out = out + p * df[j]
        return out

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self . other."""
        top = self.order()
        jets = {j: _jet(b, top) for j, b in other.coeffs.items()}
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, db in jets.items():
                for t in range(i + 1):
                    c = a * db[t] * comb(i, t)
                    key = i + j - t
                    cur = out.get(key)
                    out[key] = c if cur is None else cur + c
        return DiffOperator(out)

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint: (P d^j)* = (-d)^j . P."""
        out: dict = {}
        for j, p in self.coeffs.items():
            sign = -1 if j & 1 else 1
            for t, dp in enumerate(_jet(p, j)):
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
            head = str(self.coeffs[j])
            if " + " in head or " - " in head[1:]:
                head = f"({head})"
            if j == 0:
                parts.append(head)
            else:
                dpart = "del" if j == 1 else f"del^{j}"
                parts.append(dpart if head == "1" else f"-{dpart}" if head == "-1" else f"{head}*{dpart}")
        return _signed_sum(parts)

    def __repr__(self):
        return f"DiffOperator({self})"


def adjoint(d: DiffOperator) -> DiffOperator:
    return d.adjoint()
