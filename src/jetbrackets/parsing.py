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

One regex scan splits the text into tokens before any of it is parsed, so
a character outside the grammar is refused first.  The recursive descent
carries each value in the ring's own integer form: numerators under packed
keys, one denominator and the power of del.  A number is filed under the
key of 1, u_k^e is `SuperPolynomial.u(k, power=e)`, a product adds keys
with the Koszul sign (`algebra._product`), and a sum adds into one dict and
deletes a term that cancels, so the terms come out in the order that a sum
of polynomials gives them.  Each input is normalized (`algebra._make`) once,
at its end, and so is the operand of `d(...)` and of any other power, which
need the whole polynomial.  A range error of the ring is raised at the
operation that leaves the range, and re-raised as a ParseError at column 1.
Only an error needs a column: it comes from a second scan.
"""

from __future__ import annotations

import re
from math import comb, gcd

from .algebra import (_ONE, AlgebraError, DiffOperator, SuperPolynomial, _is_laurent, _make,
                      _masks, _numerators, _product, _unpack)


class ParseError(Exception):
    """Syntax error with 1-based column, offending token and expected set."""

    def __init__(self, message, column, token=None, expected=()):
        super().__init__(f"{message} at column {column}")
        self.column = column
        self.token = token
        self.expected = tuple(expected)


_MAX_NESTING = 100  # nested factors; each costs at most five frames of the descent
_MAX_LAURENT_JET_ORDER = 20  # jet-order bound wherever u_1^-1 appears: d(...), CLI inputs
_MAX_POWER_SIZE = 1_000_000  # bound on `_power_size`: about a second of work at most
# a symbol, a number, a name, or any other character, which is refused;
# what no alternative matches is whitespace, exactly the str.isspace() set
_TOKEN = re.compile(r"[-+*^()/]|[0-9]+|\w+|\S")
_STRAY = re.compile(r"[^\s\w+\-*^()/]")  # the characters refused, in ASCII text
# the numerators of the generators u_k and theta_k named with at most two
# subscript digits, by name, with k for u_k and None for theta_k, built on
# first use; the dicts are shared, so the parser never changes a value in place
_ATOMS: dict = {}
_UNIT = {_ONE: 1}  # the numerators of del's coefficient, 1


def _tokenize(text):
    """The tokens of text, then "" for its end: one regex scan.  A name
    starts with a letter or `_`, so a token that starts otherwise is refused
    at its first character, before any of the text is parsed.  In ASCII text
    only a `_STRAY` character can start one; in other text a run of word
    characters may start with a digit of another script, so every token is
    read."""
    tokens = _TOKEN.findall(text)
    if not text.isascii() or _STRAY.search(text):
        for m in _TOKEN.finditer(text):
            ch = m.group()[0]
            if not (ch.isalpha() or ch in "_0123456789+-*^()/"):
                raise ParseError(f"unexpected character {ch!r}", m.start() + 1, ch)
    tokens.append("")
    return tokens


def _add_into(acc, A, nums, D, sign):
    """acc/A += sign nums/D, in place, over the lcm of A and D, which it
    returns.  A term that cancels is deleted at once, so it comes back last,
    as it did in a sum of polynomials."""
    L = A // gcd(A, D) * D
    if L != A:
        f = L // A
        for m in acc:
            acc[m] *= f
    f = sign * (L // D)
    get = acc.get
    for m, c in nums.items():
        c = get(m, 0) + c * f
        if c:
            acc[m] = c
        else:
            del acc[m]
    return L


class _Parser:
    """A value is (numerators, denominator, del power): the numerators an int
    dict under packed keys with no zero, never changed once made."""

    def __init__(self, text, hat=False, operator=False):
        self.text, self.hat, self.operator = text, hat, operator
        self.toks = _tokenize(text)
        self.i = self.depth = 0  # the next token, and the factors being parsed

    def error(self, message, i=None, token=None, expected=()):
        """A ParseError at token i, the next token by default."""
        columns = [m.start() + 1 for m in _TOKEN.finditer(self.text)]
        columns.append(len(self.text) + 1)
        return ParseError(message, columns[self.i if i is None else i], token, expected)

    def expect(self, kind):
        """The next token, which must be `kind`: "int", "(" or ")"."""
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if not ("0" <= tok[:1] <= "9" if kind == "int" else tok == kind):
            raise self.error("expected ')'" if kind == ")" else
                             f"expected {kind!r}, found {tok!r}", i, tok, (kind,))
        return tok

    def number(self, digits, i):
        """The value of a run of digits.  int() refuses more digits than
        Python's int/str limit; that limit is process-global, so a longer run
        is a ParseError, and the limit is never lifted."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"integer of {len(digits)} digits is too long", i, digits) from None

    def parse(self, coeffs):
        self.expr(coeffs)
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"trailing input {tok!r}", None, tok, ("end",))

    def expr(self, coeffs=None):
        """A sum of terms, added into one dict.  At the top level, coeffs
        maps each power j of del to the [numerators, denominator] of its
        coefficient; below it, a sum of del terms is refused."""
        toks = self.toks
        val = self.term()
        below = coeffs is None
        if below:
            if toks[self.i] not in ("+", "-"):
                return val
            coeffs = {}
        sign = 1
        while True:
            nums, D, j = val
            acc = coeffs.setdefault(j, [{}, 1])
            acc[1] = _add_into(acc[0], acc[1], nums, D, sign)
            tok = toks[self.i]
            if tok not in ("+", "-"):
                break
            sign = -1 if tok == "-" else 1
            self.i += 1
            val = self.term()
            if below and (val[2] or 0 not in coeffs):
                raise self.error("'del' terms cannot be grouped; write a flat sum "
                                 "of coeff*del^j terms")
        if below:
            nums, D = coeffs[0]
            return nums, D, 0

    def term(self):
        toks = self.toks
        nums, D, j = self.factor()
        while toks[self.i] == "*":
            self.i += 1
            b, bD, bj = self.factor()
            if j:
                if not bj or b != {_ONE: bD}:
                    raise self.error("'del' must be the last factor of a term")
                j += bj
            else:
                nums, D, j = _product(nums, b), D * bD, bj
                if 0 in nums.values():
                    nums = {m: c for m, c in nums.items() if c}
        return nums, D, j

    def factor(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        if self.depth == _MAX_NESTING:
            raise self.error(f"more than {_MAX_NESTING} nested factors", i, tok)
        atom = _ATOMS.get(tok)
        if atom is not None:
            self.i = i + 1
            val = atom[0], 1, 0
        else:
            self.depth += 1
            if tok == "-":
                self.i = i + 1
                nums, D, j = self.factor()
                self.depth -= 1
                return {m: -c for m, c in nums.items()}, D, j
            val = self.atom()
            self.depth -= 1
        if toks[self.i] != "^":
            return val
        at = self.i
        self.i += 1 + (toks[at + 1] == "-")  # past the ^ and a minus sign
        e = self.number(self.expect("int"), self.i - 1) * (-1 if toks[at + 1] == "-" else 1)
        if atom is not None and atom[1] is not None and e >= 0:
            return _numerators(SuperPolynomial.u(atom[1], power=e))[0], 1, 0  # as u_k ** e
        return self.power(val, e, at)

    def atom(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        self.i = i + 1
        if "0" <= tok[:1] <= "9":
            num, den = self.number(tok, i), 1
            if toks[i + 1] == "/":
                self.i = i + 2
                den = self.number(self.expect("int"), i + 2)
                if den == 0:
                    raise self.error("zero denominator", i + 2, toks[i + 2])
            return ({_ONE: num} if num else {}), den, 0
        if tok == "(":
            val = self.expr()
            self.expect(")")
            return val
        if tok[:1].isalpha() or tok[:1] == "_":
            return self.name(tok, i)
        raise self.error(f"unexpected token {tok!r}", i, tok, ("int", "name", "(", "-"))

    def name(self, tok, i):
        if tok == "d":
            self.expect("(")
            nums, D, j = self.expr()
            self.expect(")")
            if j:
                raise self.error("d(...) takes a density, not an operator", i, tok)
            p = _make(nums, D)
            if p.order() > _MAX_LAURENT_JET_ORDER and _is_laurent(p):
                raise self.error(f"d(...) of an operand with a negative power of u_1 must "
                                 f"have jet order at most {_MAX_LAURENT_JET_ORDER}", i, tok)
            return *_numerators(p.total_derivative()), 0
        if tok == "del":
            if not self.operator:
                raise self.error("'del' is only valid after the 'D:' prefix", i, tok)
            return _UNIT, 1, 1
        base, sep, sub = tok.partition("_")
        k = 0
        if sep:
            if not (sub.isascii() and sub.isdigit()):
                raise self.error(f"bad subscript in {tok!r}", i, tok)
            k = self.number(sub, i)
        if base in ("u", "theta"):
            nums = _numerators(SuperPolynomial.u(k) if base == "u" else SuperPolynomial.theta(k))[0]
            if len(sub) < 3:
                _ATOMS[tok] = nums, k if base == "u" else None
            return nums, 1, 0
        raise self.error(f"unknown variable {tok!r}", i, tok,
                         ("u", "u_k", "theta", "theta_k", "d", "del"))

    def power(self, val, e, at):
        """val^e; `at` is the token index of the `^`."""
        nums, D, j = val
        if j:
            if nums != {_ONE: D} or j != 1 or e < 0:
                raise self.error("only 'del^j' with j >= 0 is allowed")
            return nums, D, e
        if e >= 0:
            p = _make(nums, D)
            if _power_size(p, e) > _MAX_POWER_SIZE:
                raise self.error(f"a power whose terms may need more than {_MAX_POWER_SIZE} "
                                 "bits", at, "^")
            return *_numerators(p ** e), 0
        # negative exponents: only on u_1, and only where hat admits them
        (m, c), = nums.items() if len(nums) == 1 else ((None, 0),)
        even, odd = ((), ()) if m is None else _unpack(m)  # u_1^-8192 has the key 0
        if len(even) + len(odd) != 1:
            raise self.error("negative powers apply to a single variable only")
        if not even or even[0][0] != (1, 1):
            raise self.error("negative powers are only allowed for u_1")
        if not self.hat:
            raise self.error("negative powers are only allowed for u_1 in hat mode (use --hat)")
        if c != D:
            raise self.error("negative powers apply to the bare variable")
        return _numerators(SuperPolynomial.u(1, power=even[0][1] * e))[0], 1, 0


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


def _parse(text, hat, operator=False):
    """{j: the coefficient of del^j} of text, each normalized once (only j
    = 0 for a density); an AlgebraError of the ring is a ParseError at
    column 1."""
    coeffs: dict = {}
    try:
        _Parser(text, hat, operator).parse(coeffs)
    except AlgebraError as exc:
        raise ParseError(str(exc), 1) from exc
    return {j: _make(nums, D) for j, (nums, D) in coeffs.items()}


def parse_density(text: str, hat: bool = False) -> SuperPolynomial:
    """Parse a density expression; raises ParseError on bad syntax and on
    Laurent powers outside hat mode."""
    return _parse(text, hat)[0]


def parse_operator(text: str, hat: bool = False) -> DiffOperator:
    """Parse a `D:`-prefixed operator expression into sum of P_j del^j."""
    stripped = text.lstrip()
    if stripped.startswith("D:"):
        text = " " * (len(text) - len(stripped) + 2) + stripped[2:]
    coeffs = _parse(text, hat, True)
    try:
        return DiffOperator(coeffs)
    except AlgebraError:  # the one refusal of parsed coefficients: an odd factor
        raise ParseError("operator coefficients must be even", 1) from None


def parse_expression(text: str, hat: bool = False):
    """Dispatch on the `D:` prefix: returns a SuperPolynomial or DiffOperator."""
    if text.lstrip().startswith("D:"):
        return parse_operator(text, hat=hat)
    return parse_density(text, hat=hat)


def format_operator(d: DiffOperator) -> str:
    return "D: " + str(d)
