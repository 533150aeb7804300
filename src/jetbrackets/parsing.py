"""Surface syntax for densities and differential operators.

Grammar: rationals `a/b`; variables `u`, `u_k`, `theta`, `theta_k`;
operators `+ - * ^` with `^` > `*` > `+ -` and unary minus; `d(expr)` for the
total derivative; a `D:` prefix switches to operator mode, where terms have
the shape `coeff*del^j` (`del` last in each product).  A sum of `del` terms
is allowed only at the top level of an operator, where terms with the same
power of `del` add up; a parenthesized one is refused.  With hat=True the
input may carry negative exponents on u_1.  Whitespace is insignificant.
Numbers and subscripts are ASCII digits 0-9, at least one and at most as
many as Python's int/str conversion allows (4300 unless set otherwise), so
`u_` is refused.  Parentheses, d(...) and unary minus signs nest factors in
factors, at most _MAX_NESTING deep.
`d(...)` is evaluated as it is parsed, and d^n of u_1^-1 has p(n) terms, so
`d(...)` of an operand with a negative power of u_1 and jet order above
_MAX_LAURENT_JET_ORDER is a ParseError at that `d`, raised before the
derivative is taken.  So is a power p^n whose terms may need more than
_MAX_POWER_SIZE bits (`_power_size`), at that `^`, before any product.
Printing uses the canonical term order, so parse(print(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import (AlgebraError, DiffOperator, SuperPolynomial, _is_laurent, _masks,
                      _numerators, _theta_free)


class ParseError(Exception):
    """Syntax error with 1-based column, offending token and expected set."""

    def __init__(self, message, column, token=None, expected=()):
        super().__init__(f"{message} at column {column}")
        self.column = column
        self.token = token
        self.expected = tuple(expected)


_SYMBOLS = "+-*^()/"
_MAX_NESTING = 100  # nested factors; each costs at most five frames of the descent
_MAX_LAURENT_JET_ORDER = 20  # jet-order bound wherever u_1^-1 appears: d(...), CLI inputs
_MAX_POWER_SIZE = 1_000_000  # bound on `_power_size`: about a second of work at most
# the generators u_k and theta_k named with at most two subscript digits, by
# name, built on first use: polynomials are immutable, so every parse shares them
_ATOMS: dict = {}
_DEL = SuperPolynomial.const(1)


def _int(digits, column):
    """The value of a run of digits.  int() refuses more digits than Python's
    int/str limit; that limit is process-global, so a longer run is a
    ParseError, and the limit is never lifted."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         column, digits) from None


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch in _SYMBOLS:
            kind = ch
        elif "0" <= ch <= "9":
            kind = "int"
            while j < n and "0" <= text[j] <= "9":
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1, ch)
        tokens.append((kind, text[i:j], i + 1))
        i = j
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text, hat=False, operator=False):
        self.hat = hat
        self.operator = operator
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # the factors being parsed

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2],
                             tok[1], (kind,))
        return tok

    def _close(self):
        tok = self.next()
        if tok[0] != ")":
            raise ParseError("expected ')'", tok[2], tok[1], (")",))

    # value type: (SuperPolynomial coefficient, del-power)

    def parse(self, coeffs=None):
        val = self.expr(coeffs)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[1], ("end",))
        return val

    def expr(self, coeffs=None):
        """A sum of terms.  With a dict coeffs (the top level of an operator)
        each term coeff*del^j is added into coeffs[j]; elsewhere `_add` sums
        the terms, and refuses a sum of del terms."""
        val = self.term()
        if coeffs is not None:
            coeffs[val[1]] = val[0]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            if op == "-":
                rhs = self._neg(rhs)
            if coeffs is None:
                val = self._add(val, rhs)
            else:
                cur = coeffs.get(rhs[1])
                coeffs[rhs[1]] = rhs[0] if cur is None else cur + rhs[0]
        return val

    def term(self):
        val = self.factor()
        while self.peek()[0] == "*":
            self.next()
            val = self._mul(val, self.factor())
        return val

    def factor(self):
        tok = self.peek()
        if self.depth == _MAX_NESTING:
            raise ParseError(f"more than {_MAX_NESTING} nested factors", tok[2], tok[1])
        self.depth += 1
        if tok[0] == "-":
            self.next()
            val = self._neg(self.factor())
        else:
            val = self.atom()
            if self.peek()[0] == "^":
                col = self.next()[2]
                val = self._pow(val, self._signed_int(), col)
        self.depth -= 1
        return val

    def _signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("int")
        return sign * _int(tok[1], tok[2])

    def atom(self):
        tok = self.next()
        if tok[0] == "int":
            num = _int(tok[1], tok[2])
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("int")
                den = _int(den_tok[1], den_tok[2])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2], den_tok[1])
                return (SuperPolynomial.const(Fraction(num, den)), 0)
            return (SuperPolynomial.const(num), 0)
        if tok[0] == "(":
            val = self.expr()
            self._close()
            return val
        if tok[0] == "name":
            return self._name_atom(tok)
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[1],
                         ("int", "name", "(", "-"))

    def _name_atom(self, tok):
        name, col = tok[1], tok[2]
        if name == "d":
            self.expect("(")
            poly, delpow = self.expr()
            self._close()
            if delpow:
                raise ParseError("d(...) takes a density, not an operator", col, name)
            if poly.order() > _MAX_LAURENT_JET_ORDER and _is_laurent(poly):
                raise ParseError(f"d(...) of an operand with a negative power of u_1 must "
                                 f"have jet order at most {_MAX_LAURENT_JET_ORDER}", col, name)
            return (poly.total_derivative(), 0)
        if name == "del":
            if not self.operator:
                raise ParseError("'del' is only valid after the 'D:' prefix",
                                 col, name)
            return (_DEL, 1)
        atom = _ATOMS.get(name)
        if atom is not None:
            return (atom, 0)
        base, sep, sub = name.partition("_")
        k = 0
        if sep:
            if not (sub.isascii() and sub.isdigit()):
                raise ParseError(f"bad subscript in {name!r}", col, name)
            k = _int(sub, col)
        if base in ("u", "theta"):
            atom = SuperPolynomial.u(k) if base == "u" else SuperPolynomial.theta(k)
            if len(sub) < 3:
                _ATOMS[name] = atom
            return (atom, 0)
        raise ParseError(f"unknown variable {name!r}", col, name,
                         ("u", "u_k", "theta", "theta_k", "d", "del"))

    def _neg(self, val):
        return (-val[0], val[1])

    def _add(self, a, b):
        if a[1] or b[1]:
            raise ParseError("'del' terms cannot be grouped; write a flat sum "
                             "of coeff*del^j terms", self.peek()[2])
        return (a[0] + b[0], 0)

    def _mul(self, a, b):
        if a[1]:
            if b[0] != 1 or b[1] == 0:
                raise ParseError("'del' must be the last factor of a term",
                                 self.peek()[2])
            return (a[0], a[1] + b[1])
        return (a[0] * b[0], a[1] + b[1])

    def _pow(self, val, e, col):
        """val^e; col is the column of the `^`."""
        poly, delpow = val
        if delpow:
            if poly != 1 or delpow != 1 or e < 0:
                raise ParseError("only 'del^j' with j >= 0 is allowed",
                                 self.peek()[2])
            return (poly, e)
        if e >= 0:
            if _power_size(poly, e) > _MAX_POWER_SIZE:
                raise ParseError(f"a power whose terms may need more than {_MAX_POWER_SIZE} "
                                 "bits", col, "^")
            return (poly ** e, 0)
        # negative exponents: only on u_1, and only where hat admits them
        terms = poly.terms
        mono = next(iter(terms)) if len(terms) == 1 else None
        if mono is None or len(mono[0]) + len(mono[1]) != 1:
            raise ParseError("negative powers apply to a single variable only",
                             self.peek()[2])
        if not mono[0] or mono[0][0][0] != (1, 1):
            raise ParseError("negative powers are only allowed for u_1", self.peek()[2])
        if not self.hat:
            raise ParseError("negative powers are only allowed for u_1 in hat "
                             "mode (use --hat)", self.peek()[2])
        if terms[mono] != 1:
            raise ParseError("negative powers apply to the bare variable",
                             self.peek()[2])
        (coord, ee), = mono[0]
        return (SuperPolynomial({(((coord, ee * e),), ()): 1}), 0)


def _power_size(p, n):
    """A bound, in bits, on the terms of p^k for every k <= n, so on each
    product of p ** n: their count times the larger of 64 and the bits of
    the largest numerator or denominator, n ceil(log2 max(sum |n_m|, D)).  A
    term of p^k multiplies j distinct terms of p with a theta factor (each
    squares to 0) and k - j of its t theta-free terms.  Counting stops once
    the bound is passed."""
    nums, D = _numerators(p)
    tmask = _masks(max(nums, default=0))[0]
    t = sum(1 for m in nums if not m & tmask)
    s = len(nums) - t
    bits = max(64, n * (max(sum(map(abs, nums.values())), D) - 1).bit_length())
    if t > 1 and (n + 1) * bits > _MAX_POWER_SIZE:
        return (n + 1) * bits  # C(n + t - 1, t - 1) > n, without the comb of a large n
    count = 0
    for j in range(min(n, s) + 1):
        count += (comb(n - j + t - 1, t - 1) if t else 1) * comb(s, j)
        if count * bits > _MAX_POWER_SIZE:
            break
    return count * bits


def _parse(text, hat, coeffs=None):
    """The parsed value of text, an operator's when coeffs is a dict (see
    `_Parser.expr`); an AlgebraError of the ring is a ParseError at column 1."""
    try:
        return _Parser(text, hat, coeffs is not None).parse(coeffs)
    except AlgebraError as exc:
        raise ParseError(str(exc), 1) from exc


def parse_density(text: str, hat: bool = False) -> SuperPolynomial:
    """Parse a density expression; raises ParseError on bad syntax and on
    Laurent powers outside hat mode."""
    return _parse(text, hat)[0]


def parse_operator(text: str, hat: bool = False) -> DiffOperator:
    """Parse a `D:`-prefixed operator expression into sum of P_j del^j."""
    stripped = text.lstrip()
    if stripped.startswith("D:"):
        text = " " * (len(text) - len(stripped) + 2) + stripped[2:]
    coeffs: dict = {}
    _parse(text, hat, coeffs)
    if not all(map(_theta_free, coeffs.values())):
        raise ParseError("operator coefficients must be even", 1)
    return DiffOperator(coeffs)


def parse_expression(text: str, hat: bool = False):
    """Dispatch on the `D:` prefix: returns a SuperPolynomial or DiffOperator."""
    if text.lstrip().startswith("D:"):
        return parse_operator(text, hat=hat)
    return parse_density(text, hat=hat)


def format_operator(d: DiffOperator) -> str:
    return "D: " + str(d)
