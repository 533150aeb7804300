"""Exact arithmetic in the free superalgebra of differential polynomials.

The ring has one dependent variable: even generators u_k (jet variables,
k >= 0) and odd generators theta_k.  Coefficients are exact rationals.  u_1 is
inverted: it alone may carry a negative exponent, nothing else is invertible.
The polynomials form a subring that every operation here preserves.

Monomials are stored in a normal form: the even part is a sorted tuple of
((1, k), exponent) pairs with nonzero exponents, the odd part a strictly
increasing tuple of (1, k).  All signs coming from sorting odd factors are
absorbed into the coefficients.  Odd partial derivatives are left derivations.

A polynomial holds integer numerators over one positive denominator D: the
coefficient of the monomial m is nums[m]/D.  The form is canonical (no zero
numerator, gcd(D, *nums) = 1), so equality and hashing are structural.  The
public constructor normalizes keys and rational coefficients into it; every
kernel computes numerators and D in integers and returns through `_make`,
which drops zeros and divides out the gcd.  `terms` is a Fraction view.

Every derivation goes through one integer kernel: `_file` files the signed
partial derivatives of the numerators under the power of d they are to
receive, in one sweep; `_add_derivative` applies d once through the table of
monomial derivatives.  Neither changes D.  partial_u and partial_theta are
one filing, d^n is n steps, and `_variational` is one filing plus Horner in d.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, inf, lcm


class AlgebraError(Exception):
    """Base class for errors raised by the algebra layer."""


class UndefinedGrading(AlgebraError):
    """Grading of the zero polynomial was requested."""


class SkewnessError(AlgebraError):
    """An operator required to be skew-adjoint is not."""


def _only_one_component(q) -> None:
    if q != 1 or isinstance(q, bool):
        raise AlgebraError(f"the ring has one dependent variable; q = {q!r} is not supported")


def _merge_odd(o1: tuple, o2: tuple):
    """Interleave two sorted odd tuples; return (sign, merged) or None if a
    generator repeats (theta^2 = 0)."""
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


def _normal_monomial(mono):
    """(sign, normal form) of a monomial given as (even factors, odd factors)
    in any order, or None when an odd generator repeats (theta^2 = 0)."""
    even, normal, prev = tuple(mono[0]), True, -1
    for (a, k), e in even:
        if a != 1 or type(k) is not int or k < 0 or type(e) is not int or (e < 0 and k != 1):
            raise AlgebraError(f"invalid factor (({a!r}, {k!r}), {e!r}): the index must be "
                               "at least 0, and only u_1 has negative powers")
        normal = normal and e != 0 and k > prev
        prev = k
    if not normal:
        exps: dict = {}
        for (_, k), e in even:
            exps[k] = exps.get(k, 0) + e
        even = tuple([((1, k), e) for k, e in sorted(exps.items()) if e])
    sign, odd = 1, ()
    for a, k in mono[1]:
        if a != 1 or type(k) is not int or k < 0:
            raise AlgebraError(f"invalid odd factor ({a!r}, {k!r}): the index must be at least 0")
        # multiply by theta_k on the right: its sign is that of the factors it jumps
        merged = _merge_odd(odd, ((1, k),))
        if merged is None:
            return None
        sign, odd = sign * merged[0], merged[1]
    return sign, (even, odd)


class SuperPolynomial:
    """Sparse differential superpolynomial with exact rational coefficients,
    held as integer numerators over one denominator (see the module
    docstring)."""

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
        if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
            raise TypeError("coefficients must be exact rationals (int or Fraction)")
        D = lcm(*(c.denominator for c in terms.values()))
        nums: dict = {}
        for mono, c in terms.items():
            normal = _normal_monomial(mono)
            if normal is not None:
                sign, key = normal
                nums[key] = nums.get(key, 0) + sign * c.numerator * (D // c.denominator)
        p = _make(nums, D)
        self._nums, self._D = p._nums, p._D

    @property
    def terms(self) -> dict:
        """A fresh dict {monomial: Fraction coefficient}."""
        D = self._D
        return {m: Fraction(c, D) for m, c in self._nums.items()}

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

    @classmethod
    def const(cls, c, q=1, hat=False):
        _only_one_component(q)
        return cls({((), ()): c})

    @classmethod
    def u(cls, k=0, *, power=1, hat=False):
        return cls({((((1, k), power),), ()): 1})

    @classmethod
    def theta(cls, k=0, *, hat=False):
        return cls({((), ((1, k),)): 1})

    # -- ring structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPolynomial.const(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self._D == other._D and self._nums == other._nums

    def __hash__(self):
        # a constant equals its number, so it hashes like it
        if self._nums.keys() <= {((), ())}:
            return hash(self.terms.get(((), ()), 0))
        return hash((frozenset(self._nums.items()), self._D))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPolynomial.const(other)
        elif not isinstance(other, SuperPolynomial):
            return NotImplemented
        if not other._nums:
            return self
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
        if not isinstance(other, (int, Fraction, SuperPolynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _make({m: c * n for m, c in self._nums.items()}, self._D * other.denominator)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        out: dict = {}
        get = out.get
        for (e1, o1), c1 in self._nums.items():
            for (e2, o2), c2 in other._nums.items():
                merged = _merge_odd(o1, o2)
                if merged is None:
                    continue
                sign, odd = merged
                if e1 and e2:
                    exps = dict(e1)
                    for k, v in e2:
                        nv = exps.get(k, 0) + v
                        if nv:
                            exps[k] = nv
                        elif k in exps:
                            del exps[k]
                    even = tuple(sorted(exps.items()))
                else:
                    even = e1 or e2
                key = (even, odd)
                out[key] = get(key, 0) + (c1 * c2 if sign > 0 else -c1 * c2)
        return _make(out, self._D * other._D)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        n, d = other.numerator, other.denominator
        if n < 0:
            n, d = -n, -d
        return _make({m: c * d for m, c in self._nums.items()}, self._D * n)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("only nonnegative integer powers of polynomials")
        out = SuperPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- derivations -------------------------------------------------------

    def partial_u(self, k: int) -> "SuperPolynomial":
        """Partial derivative with respect to the jet variable u_k."""
        return _make(_file(self._nums, False, k, k).get(0, {}), self._D)

    def partial_theta(self, k: int) -> "SuperPolynomial":
        """Left graded derivative with respect to theta_k."""
        return _make(_file(self._nums, True, k, k).get(0, {}), self._D)

    def total_derivative(self) -> "SuperPolynomial":
        """The total derivative: u_k -> u_{k+1}, theta_k -> theta_{k+1}."""
        return self.dx(1)

    def dx(self, n: int = 1) -> "SuperPolynomial":
        """The n-th total derivative, n >= 0."""
        if n < 0:
            raise AlgebraError(f"the power of the total derivative must be nonnegative, got {n}")
        nums = self._nums
        for _ in range(n):
            nums = _add_derivative({}, nums)
        return _make(nums, self._D)

    # -- gradings ----------------------------------------------------------

    @staticmethod
    def _mono_degree(mono) -> int:
        even, odd = mono
        return sum(k * e for (_, k), e in even) + sum(k for (_, k) in odd)

    @staticmethod
    def _mono_order(mono) -> int:
        even, odd = mono
        n = 0
        for (_, k), _e in even:
            if k > n:
                n = k
        for (_, k) in odd:
            if k > n:
                n = k
        return n

    def theta_degree(self):
        """Uniform theta-degree, or None if mixed.  Zero polynomial -> None."""
        degs = {len(odd) for (_, odd) in self._nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def degree(self):
        """Uniform homogeneity degree (deg u_k = deg theta_k = k,
        deg u_1^{-1} = -1), or None if inhomogeneous."""
        degs = {self._mono_degree(m) for m in self._nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def order(self) -> int:
        """Largest jet index appearing (even or odd); 0 for constants."""
        return max((self._mono_order(m) for m in self._nums), default=0)

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
            comps.setdefault(self._mono_degree(m), {})[m] = c
        return {d: _make(t, self._D) for d, t in sorted(comps.items())}

    def theta_components(self) -> dict:
        comps: dict = {}
        for m, c in self._nums.items():
            comps.setdefault(len(m[1]), {})[m] = c
        return {k: _make(t, self._D) for k, t in sorted(comps.items())}

    # -- coefficient extraction --------------------------------------------

    def coefficient_layers(self, k: int) -> dict:
        """Collect by the exponent of u_k: exponent -> polynomial free of
        that variable."""
        coord = (1, k)
        layers: dict = {}
        for (even, odd), c in self._nums.items():
            e = 0
            rest = even
            for i, (co, ee) in enumerate(even):
                if co == coord:
                    e = ee
                    rest = even[:i] + even[i + 1:]
                    break
            layers.setdefault(e, {})[(rest, odd)] = c
        return {e: _make(t, self._D) for e, t in sorted(layers.items())}

    def max_u_power(self) -> int:
        """Largest exponent of the undifferentiated u."""
        coord = (1, 0)
        best = 0
        for (even, _odd) in self._nums:
            for co, e in even:
                if co == coord and e > best:
                    best = e
        return best

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
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
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


# -- the derivation kernel (see the module docstring) --------------------------

# table of monomial derivatives: mono -> ((mono', integer multiplier), ...);
# the multipliers are integers (exponents), so d of an int dict stays an int
# dict.  The values are deterministic, so concurrent readers are safe (a
# racing recompute is identical) and emptying the table once it holds
# _DERIV_LIMIT entries changes no result.  The limit is above the 3 507
# entries of a quasi-trivialization ladder over ell <= 8 and the 52 000 of a
# long run of random Jacobi checks, whose later checks reuse earlier entries.
_DERIV_CACHE: dict = {}
_DERIV_LIMIT = 65536


def _derive_monomial(mono):
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


def _add_derivative(out: dict, terms: dict) -> dict:
    """out + d(terms) for int dicts, without zero coefficients; out is
    updated in place.  The one reader of `_DERIV_CACHE`."""
    cache = _DERIV_CACHE
    get = out.get
    for mono, c in terms.items():
        ents = cache.get(mono)
        if ents is None:
            if len(cache) >= _DERIV_LIMIT:
                cache.clear()
            ents = _derive_monomial(mono)
            cache[mono] = ents
        for key, mult in ents:
            out[key] = get(key, 0) + c * mult
    return {m: c for m, c in out.items() if c}


def _file(nums: dict, odd: bool, lo: int, hi: float = inf) -> dict:
    """The filing sweep.  pieces[j] is the int dict of (-1)^j C(lo+j, lo)
    times the partial derivative of nums by u_{lo+j} (odd false) or
    theta_{lo+j} (odd true, a left derivative), for lo+j <= hi; the
    denominator is unchanged."""
    pieces: dict = {}
    for (even, odds), n in nums.items():
        if odd:
            for i, (_, k) in enumerate(odds):
                if not lo <= k <= hi:
                    continue
                v = n * comb(k, lo)
                key = (even, odds[:i] + odds[i + 1:])
                piece = pieces.setdefault(k - lo, {})
                piece[key] = piece.get(key, 0) + (-v if (i + k - lo) & 1 else v)
        else:
            for i, (co, e) in enumerate(even):
                k = co[1]
                if not lo <= k <= hi:
                    continue
                v = n * e * comb(k, lo)
                if e == 1:
                    key = (even[:i] + even[i + 1:], odds)
                else:
                    key = (even[:i] + ((co, e - 1),) + even[i + 1:], odds)
                piece = pieces.setdefault(k - lo, {})
                piece[key] = piece.get(key, 0) + (-v if (k - lo) & 1 else v)
    return pieces


def _variational(a: SuperPolynomial, odd: bool, level: int) -> SuperPolynomial:
    """delta_{level, u} a (odd false) or delta_{level, theta} a (odd true),
    level >= 0, evaluated as p_0 + d(p_1 + d(...)) on the pieces p_j of
    `_file`."""
    if level < 0:
        raise AlgebraError(f"the level of a variational derivative must be nonnegative, got {level}")
    pieces = _file(a._nums, odd, level)
    acc: dict = {}
    if pieces:
        top = max(pieces)
        acc = pieces[top]
        for j in range(top - 1, -1, -1):
            acc = _add_derivative(pieces.get(j, {}), acc)
    return _make(acc, a._D)


def _name(base, k):
    return base if k == 0 else f"{base}_{k}"


def _theta_free(p: SuperPolynomial) -> bool:
    """No term of p has an odd factor (true for the zero polynomial).  Unlike
    `theta_degree() in (0, None)`, this rejects mixed theta-degree."""
    return not any(odd for _even, odd in p._nums)


def superproduct(a: SuperPolynomial, b: SuperPolynomial) -> SuperPolynomial:
    """Graded-commutative product (same as a * b)."""
    return a * b


def total_derivative(a: SuperPolynomial) -> SuperPolynomial:
    return a.total_derivative()


def partial_derivative(a: SuperPolynomial, kind: str, k: int) -> SuperPolynomial:
    """Partial derivative; kind is "u" or "theta"."""
    if kind == "u":
        return a.partial_u(k)
    if kind == "theta":
        return a.partial_theta(k)
    raise AlgebraError(f"unknown coordinate kind {kind!r}")


def grading_info(a: SuperPolynomial):
    return a.grading_info()


class DiffOperator:
    """A differential operator sum_j P_j d^j, j >= 0, with theta-free
    coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for j, p in coeffs.items():
            if j < 0:
                raise AlgebraError(f"operator orders must be nonnegative, got {j}")
            if isinstance(p, (int, Fraction)):
                p = SuperPolynomial.const(p)
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
        if isinstance(other, (int, Fraction)):
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
        return self + (-other)

    def scale(self, c) -> "DiffOperator":
        return DiffOperator({j: p * c for j, p in self.coeffs.items()})

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        out = SuperPolynomial()
        for j, p in self.coeffs.items():
            out = out + p * f.dx(j)
        return out

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self . other."""
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                for t in range(i + 1):
                    c = a * b.dx(t) * comb(i, t)
                    key = i + j - t
                    cur = out.get(key)
                    out[key] = c if cur is None else cur + c
        return DiffOperator(out)

    def adjoint(self) -> "DiffOperator":
        """Formal adjoint: (P d^j)* = (-d)^j . P."""
        out: dict = {}
        for j, p in self.coeffs.items():
            sign = -1 if j & 1 else 1
            for t in range(j + 1):
                c = p.dx(t) * (comb(j, t) * sign)
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
