"""The recursive-descent parser of `jetbrackets.parsing` as it was before
that module parsed into ring numerators: a token list from a loop over the
characters, and a `SuperPolynomial` for every token and every operation.

It is kept only as the reference that `tests/test_parser_agreement.py`
checks the module's parser against: every text must give an equal value
(numerators in the same order, same denominator) or an equal `ParseError`
(message, column, token and expected set).  One change from the old code:
a product of two factors goes through the public constructor (`_product`
below), so that the reference shares no product code with the parser.
"""

from __future__ import annotations

from fractions import Fraction

from jetbrackets.algebra import (_RANGE, AlgebraError, DiffOperator, SuperPolynomial,
                                 _is_laurent, _theta_free)
from jetbrackets.parsing import (_MAX_LAURENT_JET_ORDER, _MAX_NESTING, _MAX_POWER_SIZE,
                                 ParseError, _power_size)

_SYMBOLS = "+-*^()/"
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
        return (_product(a[0], b[0]), a[1] + b[1])

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


def _product(a, b):
    """a b through the public constructor: its Koszul sign comes from
    `_normal_key`, not from the packed-key product that `*` and the parser
    share, so a wrong sign there cannot agree with itself here.  A pair of
    terms with a common odd factor is 0 before its exponents are read, and
    an exponent out of range is refused as `*` refuses it."""
    raw: dict = {}
    for (e1, o1), c1 in a.terms.items():
        for (e2, o2), c2 in b.terms.items():
            if not set(o1) & set(o2):
                mono = (e1 + e2, o1 + o2)
                raw[mono] = raw.get(mono, 0) + c1 * c2
    try:
        return SuperPolynomial(raw)
    except AlgebraError:
        raise AlgebraError("a product leaves the supported exponent range "
                           f"({_RANGE})") from None


def _parse(text, hat, coeffs=None):
    """The parsed value of text, an operator's when coeffs is a dict (see
    `_Parser.expr`); an AlgebraError of the ring is a ParseError at column 1."""
    try:
        return _Parser(text, hat, coeffs is not None).parse(coeffs)
    except AlgebraError as exc:
        raise ParseError(str(exc), 1) from exc


def parse_density(text, hat=False):
    """Parse a density expression; raises ParseError on bad syntax and on
    Laurent powers outside hat mode."""
    return _parse(text, hat)[0]


def parse_operator(text, hat=False):
    """Parse a `D:`-prefixed operator expression into sum of P_j del^j."""
    stripped = text.lstrip()
    if stripped.startswith("D:"):
        text = " " * (len(text) - len(stripped) + 2) + stripped[2:]
    coeffs: dict = {}
    _parse(text, hat, coeffs)
    if not all(map(_theta_free, coeffs.values())):
        raise ParseError("operator coefficients must be even", 1)
    return DiffOperator(coeffs)
