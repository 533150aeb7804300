"""Surface syntax for densities and differential operators (q = 1).

Grammar: rationals `a/b`; variables `u`, `u_k`, `theta`, `theta_k`;
operators `+ - * ^` with `^` > `*` > `+ -` and unary minus; `d(expr)` for the
total derivative; a `D:` prefix switches to operator mode, where terms have
the shape `coeff*del^j` (`del` last in each product).  Hat mode admits
negative exponents on u_1.  Whitespace is insignificant.  Printing uses the
canonical term order, so parse(print(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, DiffOperator, SuperPolynomial


class ParseError(Exception):
    """Syntax error with 1-based column, offending token and expected set."""

    def __init__(self, message, column, token=None, expected=()):
        super().__init__(f"{message} at column {column}")
        self.column = column
        self.token = token
        self.expected = tuple(expected)


_SYMBOLS = "+-*^()/"


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1, ch)
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text, hat=False, operator=False):
        self.hat = hat
        self.operator = operator
        self.tokens = _tokenize(text)
        self.pos = 0

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

    # value type: (SuperPolynomial coefficient, del-power)

    def parse(self):
        val = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[1], ("end",))
        return val

    def expr(self):
        val = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            val = self._add(val, rhs if op == "+" else self._neg(rhs))
        return val

    def term(self):
        val = self.factor()
        while self.peek()[0] == "*":
            self.next()
            val = self._mul(val, self.factor())
        return val

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return self._neg(self.factor())
        val = self.atom()
        if self.peek()[0] == "^":
            self.next()
            e = self._signed_int()
            val = self._pow(val, e)
        return val

    def _signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("int")
        return sign * int(tok[1])

    def atom(self):
        tok = self.next()
        if tok[0] == "int":
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2], den_tok[1])
                return self._const(Fraction(num, den))
            return self._const(Fraction(num))
        if tok[0] == "(":
            val = self.expr()
            close = self.next()
            if close[0] != ")":
                raise ParseError("expected ')'", close[2], close[1], (")",))
            return val
        if tok[0] == "name":
            return self._name_atom(tok)
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[1],
                         ("int", "name", "(", "-"))

    def _name_atom(self, tok):
        name, col = tok[1], tok[2]
        if name == "d":
            self.expect("(")
            val = self.expr()
            close = self.next()
            if close[0] != ")":
                raise ParseError("expected ')'", close[2], close[1], (")",))
            poly, delpow = val
            if delpow:
                raise ParseError("d(...) takes a density, not an operator", col, name)
            return (poly.total_derivative(), 0)
        if name == "del":
            if not self.operator:
                raise ParseError("'del' is only valid after the 'D:' prefix",
                                 col, name)
            return (SuperPolynomial.const(1, 1, self.hat), 1)
        base, _, sub = name.partition("_")
        k = 0
        if sub:
            if not sub.isdigit():
                raise ParseError(f"bad subscript in {name!r}", col, name)
            k = int(sub)
        if base == "u":
            return (SuperPolynomial.u(k, hat=self.hat), 0)
        if base == "theta":
            return (SuperPolynomial.theta(k, hat=self.hat), 0)
        raise ParseError(f"unknown variable {name!r}", col, name,
                         ("u", "u_k", "theta", "theta_k", "d", "del"))

    def _const(self, c):
        return (SuperPolynomial.const(c, 1, self.hat), 0)

    def _neg(self, val):
        return (-val[0], val[1])

    def _add(self, a, b):
        if a[1] or b[1]:
            raise ParseError("'del' terms cannot be grouped; write a flat sum "
                             "of coeff*del^j terms", self.peek()[2])
        return (a[0] + b[0], 0)

    def _mul(self, a, b):
        if a[1]:
            if not _is_const_one(b[0]) or b[1] == 0:
                raise ParseError("'del' must be the last factor of a term",
                                 self.peek()[2])
            return (a[0], a[1] + b[1])
        return (a[0] * b[0], a[1] + b[1])

    def _pow(self, val, e):
        poly, delpow = val
        if delpow:
            if not _is_const_one(poly) or delpow != 1 or e < 0:
                raise ParseError("only 'del^j' with j >= 0 is allowed",
                                 self.peek()[2])
            return (poly, e)
        if e >= 0:
            return (poly ** e, 0)
        # negative exponents: only u_1 in hat mode (the Laurent generator)
        mono = _single_monomial(poly)
        if mono is None or mono[1] or len(mono[0]) != 1:
            raise ParseError("negative powers apply to a single variable only",
                             self.peek()[2])
        (coord, ee), = mono[0]
        coeff = poly.terms[mono]
        if coord != (1, 1) or not self.hat:
            raise ParseError("negative powers are only allowed for u_1 in hat "
                             "mode (use --hat)", self.peek()[2])
        if coeff != 1:
            raise ParseError("negative powers apply to the bare variable",
                             self.peek()[2])
        return (SuperPolynomial({(((coord, ee * e),), ()): Fraction(1)},
                                1, self.hat), 0)


def _is_const_one(p: SuperPolynomial) -> bool:
    return p.terms == {((), ()): Fraction(1)}


def _single_monomial(p: SuperPolynomial):
    if len(p.terms) == 1:
        return next(iter(p.terms))
    return None


def parse_density(text: str, hat: bool = False) -> SuperPolynomial:
    """Parse a density expression; raises ParseError on bad syntax and on
    Laurent powers outside hat mode."""
    parser = _Parser(text, hat=hat, operator=False)
    try:
        poly, delpow = parser.parse()
    except AlgebraError as exc:
        raise ParseError(str(exc), 1) from exc
    if delpow:
        raise ParseError("'del' is only valid after the 'D:' prefix", 1)
    return poly


def parse_operator(text: str, hat: bool = False) -> DiffOperator:
    """Parse a `D:`-prefixed operator expression into sum of P_j del^j."""
    body = text
    stripped = text.lstrip()
    if stripped.startswith("D:"):
        offset = len(text) - len(stripped)
        body = " " * (offset + 2) + stripped[2:]
    parser = _Parser(body, hat=hat, operator=True)
    # operator expressions are sums of coeff*del^j products; parse term by term
    coeffs: dict = {}

    def add_term(poly, j):
        cur = coeffs.get(j)
        coeffs[j] = poly if cur is None else cur + poly

    try:
        val = parser.term()
        tok = parser.peek()
        add_term(val[0], val[1])
        while tok[0] in ("+", "-"):
            parser.next()
            nxt = parser.term()
            add_term(nxt[0] if tok[0] == "+" else -nxt[0], nxt[1])
            tok = parser.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[1], ("end",))
        for j, p in coeffs.items():
            if p.theta_degree() not in (0, None):
                raise ParseError("operator coefficients must be even", 1)
        return DiffOperator(coeffs, 1, hat)
    except AlgebraError as exc:
        raise ParseError(str(exc), 1) from exc


def parse_expression(text: str, hat: bool = False):
    """Dispatch on the `D:` prefix: returns a SuperPolynomial or DiffOperator."""
    if text.lstrip().startswith("D:"):
        return parse_operator(text, hat=hat)
    return parse_density(text, hat=hat)


def format_operator(d: DiffOperator) -> str:
    return "D: " + str(d)
