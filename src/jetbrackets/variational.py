"""The quotient calculus on functional multivectors.

A functional k-vector is a density with k odd factors taken modulo total
derivatives.  This module provides the (higher) variational derivatives, the
normalization operator N = sum_a theta_a delta_{theta_a}, canonical
representatives for classes, a decision procedure for membership in the image
of the total derivative (with an explicit antiderivative as witness), and the
dictionaries between densities, evolutionary vector fields and matrices of
differential operators.

Canonical representatives: for theta-degree k >= 1 the representative is
(1/k) N applied to any density of the class; N kills total derivatives and
N F - k F is always a total derivative, so this is a well-defined projection
onto normal forms.  For k = 0 the representative is the residue of a
deterministic integration-by-parts descent.

Every variational derivative (delta_u and delta_theta at every level) and N
run through one integer kernel, `_variational`.  It clears denominators once
(D, the lcm of the coefficient denominators), files the partial derivatives
of all terms under their power of d in a single sweep, evaluates the
alternating sum p_0 - d(p_1 - d(p_2 - ...)) on int coefficients through the
algebra layer's table of monomial derivatives, and divides by D once at the
end (by D k for a canonical representative).  Coefficients are Fractions
again at the API, and no zero coefficient is ever stored.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, lcm

from .algebra import (
    _DERIV_CACHE,
    AlgebraError,
    DiffOperator,
    SkewnessError,
    SuperPolynomial,
    _derive_monomial,
)


class NotExact(AlgebraError):
    """The density is not a total derivative; carries the canonical residue."""

    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


def _variational(a: SuperPolynomial, odd: bool, alpha: int, level: int):
    """Integer kernel of delta_{level, u^alpha} (odd false) and
    delta_{level, theta_alpha} (odd true).

    Returns (terms, D): the derivative is sum_m terms[m]/D m, with terms an
    int dict without zeros and D the lcm of the denominators of a.  One sweep
    over a.terms files C(level+j, level) times the partial derivative by the
    coordinate of order level+j of every term under piece j; then
    p_0 - d(p_1 - d(p_2 - ...)) is evaluated on int dicts through the shared
    table of monomial derivatives, dropping zeros after each round.
    """
    terms = a.terms
    D = lcm(*(c.denominator for c in terms.values()))
    pieces: dict = {}
    for (even, odds), c in terms.items():
        n = c.numerator * (D // c.denominator)
        if odd:
            for i, (b, k) in enumerate(odds):
                if b != alpha or k < level:
                    continue
                v = n * comb(k, level)
                key = (even, odds[:i] + odds[i + 1:])
                piece = pieces.setdefault(k - level, {})
                piece[key] = piece.get(key, 0) + (-v if i & 1 else v)
        else:
            for i, ((b, k), e) in enumerate(even):
                if b != alpha or k < level:
                    continue
                if e == 1:
                    key = (even[:i] + even[i + 1:], odds)
                else:
                    key = (even[:i] + (((b, k), e - 1),) + even[i + 1:], odds)
                piece = pieces.setdefault(k - level, {})
                piece[key] = piece.get(key, 0) + n * e * comb(k, level)
    if not pieces:
        return {}, D
    cache = _DERIV_CACHE
    acc: dict = {}
    for j in range(max(pieces), -1, -1):
        out = pieces.get(j, {})
        get = out.get
        for mono, c in acc.items():
            ents = cache.get(mono)
            if ents is None:
                ents = _derive_monomial(mono)
                cache[mono] = ents
            for key, mult in ents:
                out[key] = get(key, 0) - c * mult
        acc = {m: c for m, c in out.items() if c}
    return acc, D


def _to_poly(terms: dict, D: int, q: int, hat: bool) -> SuperPolynomial:
    """The polynomial sum_m terms[m]/D m; terms must be free of zeros."""
    if D == 1:
        return SuperPolynomial({m: Fraction(c) for m, c in terms.items()}, q, hat)
    return SuperPolynomial({m: Fraction(c, D) for m, c in terms.items()}, q, hat)


def higher_variational_u(a: SuperPolynomial, alpha: int = 1, level: int = 0) -> SuperPolynomial:
    """delta_{k,u^alpha} = sum_j (-1)^j C(k+j, k) d^j o partial_{u^alpha_{k+j}}."""
    return _to_poly(*_variational(a, False, alpha, level), a.q, a.hat)


def higher_variational_theta(a: SuperPolynomial, alpha: int = 1, level: int = 0) -> SuperPolynomial:
    """delta_{k,theta_alpha}, the odd counterpart."""
    return _to_poly(*_variational(a, True, alpha, level), a.q, a.hat)


def variational_derivative(a: SuperPolynomial, slot: str = "u", alpha: int = 1,
                           level: int = 0) -> SuperPolynomial:
    """Euler operator (level 0) or higher variational derivative."""
    if slot == "u":
        return higher_variational_u(a, alpha, level)
    if slot == "theta":
        return higher_variational_theta(a, alpha, level)
    raise AlgebraError(f"unknown variational slot {slot!r}")


def _normalize(a: SuperPolynomial):
    """Integer form (terms, D) of N(a), with theta_alpha prepended to the
    output of the kernel."""
    out: dict = {}
    get = out.get
    D = 1
    for alpha in range(1, a.q + 1):
        terms, D = _variational(a, True, alpha, 0)
        head = (alpha, 0)
        for (even, odds), c in terms.items():
            # theta_alpha passes the i factors sorted before it (the sign of
            # _merge_odd) and kills the term if it is already present
            i = bisect_left(odds, head)
            if i < len(odds) and odds[i] == head:
                continue
            key = (even, odds[:i] + (head,) + odds[i:])
            out[key] = get(key, 0) + (-c if i & 1 else c)
    return {m: c for m, c in out.items() if c}, D


def normalize_N(a: SuperPolynomial) -> SuperPolynomial:
    """The normalization operator N = sum_alpha theta_alpha delta_{theta_alpha}."""
    return _to_poly(*_normalize(a), a.q, a.hat)


# ---------------------------------------------------------------------------
# Formal integration in x
# ---------------------------------------------------------------------------

def _antidiff_u(p: SuperPolynomial, k: int, alpha: int = 1):
    """Antiderivative of p with respect to u^alpha_k, term by term.

    Returns (antiderivative, blocked) where blocked collects the terms whose
    antiderivative would need a logarithm (exponent -1, hat mode only).
    """
    good: dict = {}
    blocked: dict = {}
    coord = (alpha, k)
    for (even, odd), c in p.terms.items():
        e = 0
        pos = None
        for i, (co, ee) in enumerate(even):
            if co == coord:
                e, pos = ee, i
                break
        if e == -1:
            blocked[(even, odd)] = c
            continue
        ne = e + 1
        if pos is None:
            new_even = tuple(sorted(even + ((coord, ne),)))
        else:
            new_even = even[:pos] + ((coord, ne),) + even[pos + 1:]
        good[(new_even, odd)] = c / ne
    return (SuperPolynomial(good, p.q, p.hat),
            SuperPolynomial(blocked, p.q, p.hat))


def antidiff_square(p: SuperPolynomial, k: int, alpha: int = 1) -> SuperPolynomial:
    """Solve (d/du^alpha_k)^2 h = p by two formal antidifferentiations."""
    h1, b1 = _antidiff_u(p, k, alpha)
    h2, b2 = _antidiff_u(h1, k, alpha)
    if b1 or b2:
        raise NotExact(
            f"double antiderivative in u_{k} requires a logarithm", residue=b1 + b2
        )
    return h2


def _decompose_even(a: SuperPolynomial):
    """Descent for theta-free densities: a = d(g) + residue with a canonical
    residue.  Linear in a, and exact inputs reduce to residue 0."""
    q, hat = a.q, a.hat
    g = SuperPolynomial.zero(q, hat)
    residue = SuperPolynomial.zero(q, hat)
    work = a
    while work:
        n = work.order()
        if n == 0:
            residue = residue + work
            break
        if n == 1:
            # exact order-1 densities are exactly sums d(G(u)) = u^alpha_1
            # partial_alpha G; build the potential sequentially over alpha,
            # everything else is irreducible
            pot = SuperPolynomial.zero(q, hat)
            cur = work
            for alpha in range(1, q + 1):
                layers = cur.coefficient_layers(1, alpha)
                p = layers.get(1, SuperPolynomial.zero(q, hat))
                # only the part with no other first-order jets integrates here
                p_ok = SuperPolynomial(
                    {m: c for m, c in p.terms.items()
                     if all(k == 0 for (_b, k), _e in m[0]) and not m[1]},
                    q, hat)
                if p_ok:
                    anti, blocked = _antidiff_u(p_ok, 0, alpha)
                    if blocked:
                        raise AssertionError("antiderivative in u cannot be blocked")
                    pot = pot + anti
                    cur = cur - anti.total_derivative()
            g = g + pot
            residue = residue + cur
            break
        # order n >= 2: split the top layer
        moved: dict = {}
        linear: dict = {alpha: {} for alpha in range(1, q + 1)}
        rest: dict = {}
        top_coords = {(alpha, n) for alpha in range(1, q + 1)}
        for (even, odd), c in work.terms.items():
            tops = [(co, e) for co, e in even if co in top_coords]
            if not tops:
                rest[(even, odd)] = c
            elif len(tops) == 1 and tops[0][1] == 1:
                linear[tops[0][0][0]][(even, odd)] = c
            else:
                moved[(even, odd)] = c  # nonlinear in the top layer
        residue = residue + SuperPolynomial(moved, q, hat)
        work = SuperPolynomial(rest, q, hat)
        for alpha in range(1, q + 1):
            if linear[alpha]:
                work = work + SuperPolynomial(linear[alpha], q, hat)
        # one sweep over alpha: p_alpha is the current u^alpha_n coefficient
        for alpha in range(1, q + 1):
            layers = work.coefficient_layers(n, alpha)
            p = layers.get(1)
            if p is None or not p:
                continue
            anti, blocked = _antidiff_u(p, n - 1, alpha)
            if blocked:
                blocked_term = SuperPolynomial.u(n, alpha, 1, q, hat) * blocked
                residue = residue + blocked_term
                work = work - blocked_term
            if anti:
                g = g + anti
                work = work - anti.total_derivative()
        # any surviving top dependence is irreducible (q > 1 integrability)
        leftover: dict = {}
        clean: dict = {}
        for (even, odd), c in work.terms.items():
            if any(co in top_coords for co, _e in even):
                leftover[(even, odd)] = c
            else:
                clean[(even, odd)] = c
        if leftover:
            residue = residue + SuperPolynomial(leftover, q, hat)
            work = SuperPolynomial(clean, q, hat)
    return g, residue


def _witness_from_N(a: SuperPolynomial, k: int) -> SuperPolynomial:
    """For theta-degree k >= 1 with N(a) = 0, an explicit g with d(g) = a,
    namely (1/k) sum_j d^j (theta_alpha delta_{j+1,theta_alpha} a)."""
    layers = []
    for j in range(a.order()):
        layer = SuperPolynomial.zero(a.q, a.hat)
        for alpha in range(1, a.q + 1):
            d = higher_variational_theta(a, alpha, j + 1)
            if d:
                layer = layer + SuperPolynomial.theta(0, alpha, a.q, a.hat) * d
        layers.append(layer)
    # sum_j d^j layer_j = layer_0 + d(layer_1 + d(layer_2 + ...))
    acc = None
    for layer in reversed(layers):
        acc = layer if acc is None else layer + acc.total_derivative()
    return (acc if acc is not None else SuperPolynomial.zero(a.q, a.hat)) / k


def decompose_total_derivative(a: SuperPolynomial):
    """Split a = d(g) + r with r the canonical residue; works per
    theta-degree.  Returns (g, r)."""
    g = SuperPolynomial.zero(a.q, a.hat)
    r = SuperPolynomial.zero(a.q, a.hat)
    for k, comp in a.theta_components().items():
        if k == 0:
            gk, rk = _decompose_even(comp)
            g, r = g + gk, r + rk
        else:
            nres = normalize_N(comp) / k
            body = comp - nres
            w = _witness_from_N(body, k)
            g, r = g + w, r + nres
    return g, r


def integrate_x(a: SuperPolynomial) -> SuperPolynomial:
    """Return g with total_derivative(g) = a, or raise NotExact.

    The failure is a decision for this algebra: the residue attached to the
    exception is the canonical obstruction (e.g. u_2/u_1, whose antiderivative
    log u_1 does not live in the ring).
    """
    g, r = decompose_total_derivative(a)
    if r:
        raise NotExact(f"density is not a total derivative (residue {r})", residue=r)
    return g


# ---------------------------------------------------------------------------
# Multivectors
# ---------------------------------------------------------------------------

class MultiVector:
    """An equivalence class of densities modulo total derivatives, stored via
    its canonical representative."""

    __slots__ = ("rep", "theta_degree", "q", "hat")

    def __init__(self, rep: SuperPolynomial, theta_degree: int):
        self.rep = rep
        self.theta_degree = theta_degree
        self.q = rep.q
        self.hat = rep.hat

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def homogeneity(self):
        """Uniform homogeneity degree of the class, or None."""
        return self.rep.degree()

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        if self.q != other.q or self.hat != other.hat:
            return False
        if self.rep.is_zero() and other.rep.is_zero():
            return True
        return self.theta_degree == other.theta_degree and self.rep == other.rep

    def __add__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.theta_degree != other.theta_degree:
            raise AlgebraError("cannot add multivectors of different theta-degree")
        return canonical_class(self.rep + other.rep)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "MultiVector":
        return MultiVector(self.rep * c, self.theta_degree)

    def to_hat(self) -> "MultiVector":
        return MultiVector(self.rep.to_hat(), self.theta_degree)

    def __str__(self):
        return f"int({self.rep}) dx"

    def __repr__(self):
        return f"MultiVector({self}, k={self.theta_degree})"


def canonical_class(a: SuperPolynomial) -> MultiVector:
    """The class of the density a, via the canonical representative."""
    k = a.theta_degree()
    if k is None and a:
        raise AlgebraError("density has mixed theta-degree; no canonical class")
    if not a:
        return MultiVector(a, 0)
    if k == 0:
        _g, r = _decompose_even(a)
        return MultiVector(r, 0)
    terms, D = _normalize(a)
    return MultiVector(_to_poly(terms, D * k, a.q, a.hat), k)


class EvolutionaryVF:
    """An evolutionary vector field, stored by its characteristic."""

    __slots__ = ("chars",)

    def __init__(self, chars):
        if isinstance(chars, SuperPolynomial):
            chars = (chars,)
        self.chars = tuple(chars)
        for c in self.chars:
            if c.theta_degree() not in (0, None):
                raise AlgebraError("characteristics must be even densities")

    @property
    def q(self):
        return len(self.chars)

    @property
    def hat(self):
        return self.chars[0].hat

    def apply(self, a: SuperPolynomial) -> SuperPolynomial:
        """Act as the derivation sum d^j(f^alpha) partial_{u^alpha_j}."""
        out = SuperPolynomial.zero(a.q, a.hat)
        for alpha, f in enumerate(self.chars, start=1):
            fj = f
            for j in range(a.order() + 1):
                term = a.partial_u(j, alpha)
                if term:
                    out = out + fj * term
                fj = fj.total_derivative()
        return out

    def commutator(self, other: "EvolutionaryVF") -> "EvolutionaryVF":
        return EvolutionaryVF(tuple(
            self.apply(g) - other.apply(f) for f, g in zip(self.chars, other.chars)
        ))

    def as_class(self) -> MultiVector:
        density = SuperPolynomial.zero(self.chars[0].q, self.hat)
        for alpha, f in enumerate(self.chars, start=1):
            density = density + f * SuperPolynomial.theta(0, alpha, f.q, f.hat)
        return canonical_class(density)

    def is_zero(self):
        return all(not c for c in self.chars)

    def __eq__(self, other):
        if not isinstance(other, EvolutionaryVF):
            return NotImplemented
        return self.chars == other.chars

    def __repr__(self):
        return f"EvolutionaryVF({', '.join(str(c) for c in self.chars)})"


def vf_from_density(a: SuperPolynomial) -> EvolutionaryVF:
    """Characteristic tuple of the vector field int(a) dx, a of theta-degree 1:
    the characteristic of u^alpha is delta_{theta_alpha} a."""
    if a.theta_degree() != 1:
        raise AlgebraError("vector fields come from theta-degree-1 densities")
    return EvolutionaryVF(tuple(higher_variational_theta(a, alpha)
                                for alpha in range(1, a.q + 1)))


# ---------------------------------------------------------------------------
# Operator matrices and the bivector dictionary
# ---------------------------------------------------------------------------

class OperatorMatrix:
    """A q x q matrix of differential operators."""

    __slots__ = ("entries", "q", "hat")

    def __init__(self, entries):
        if isinstance(entries, DiffOperator):
            entries = [[entries]]
        self.entries = [list(row) for row in entries]
        self.q = len(self.entries)
        self.hat = self.entries[0][0].hat
        for row in self.entries:
            if len(row) != self.q:
                raise AlgebraError("operator matrix must be square")

    def __getitem__(self, idx):
        a, b = idx
        return self.entries[a - 1][b - 1]

    def single(self) -> DiffOperator:
        if self.q != 1:
            raise AlgebraError("single() is only defined for q = 1")
        return self.entries[0][0]

    def is_skew_adjoint(self) -> bool:
        for a in range(self.q):
            for b in range(self.q):
                if not (self.entries[a][b].adjoint() + self.entries[b][a]).is_zero():
                    return False
        return True

    def apply(self, vec):
        """Apply to a q-tuple of densities."""
        return tuple(
            sum((self.entries[a][b].apply(vec[b]) for b in range(self.q)),
                SuperPolynomial.zero(self.entries[0][0].q, self.hat))
            for a in range(self.q)
        )

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        if self.q == 1:
            return f"OperatorMatrix({self.entries[0][0]})"
        return "OperatorMatrix(" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries) + ")"


def _as_matrix(D) -> OperatorMatrix:
    if isinstance(D, OperatorMatrix):
        return D
    if isinstance(D, DiffOperator):
        return OperatorMatrix([[D]])
    raise AlgebraError("expected a differential operator or operator matrix")


def operator_to_bivector(D) -> MultiVector:
    """The bivector (1/2) int theta_a D^{ab} theta_b dx of a skew-adjoint
    operator matrix.  The operators d and u d + u_1/2 map to the brackets'
    generating bivectors (1/2) int theta theta_1 and (1/2) int u theta theta_1."""
    D = _as_matrix(D)
    if not D.is_skew_adjoint():
        raise SkewnessError("operator is not skew-adjoint")
    q = D.q
    hat = D.hat
    density = SuperPolynomial.zero(q, hat)
    for a in range(1, q + 1):
        ta = SuperPolynomial.theta(0, a, q, hat)
        for b in range(1, q + 1):
            op = D[a, b]
            for j, p in op.coeffs.items():
                density = density + ta * p * SuperPolynomial.theta(j, b, q, hat)
    return canonical_class(density / 2)


def bivector_to_operator(B: MultiVector) -> OperatorMatrix:
    """Inverse of operator_to_bivector on theta-degree-2 classes."""
    if B.theta_degree != 2:
        raise AlgebraError("only theta-degree-2 classes correspond to operators")
    q, hat = B.q, B.hat
    rep = B.rep  # canonical: every term theta_{a,0} theta_{b,k}
    # raw[a][b][k] collects the coefficient polynomials of theta_{a,0} theta_{b,k}
    raw = {}
    for (even, odd), c in rep.terms.items():
        if len(odd) != 2:
            raise AlgebraError("not a bivector density")
        (a1, k1), (a2, k2) = odd
        coeff = SuperPolynomial({(even, ()): c}, q, hat)
        if k1 == 0:
            raw.setdefault((a1, a2, k2), SuperPolynomial.zero(q, hat))
            raw[(a1, a2, k2)] = raw[(a1, a2, k2)] + coeff
            if k2 == 0:
                # theta_{a,0} theta_{b,0}: also readable in the other order
                raw.setdefault((a2, a1, 0), SuperPolynomial.zero(q, hat))
                raw[(a2, a1, 0)] = raw[(a2, a1, 0)] - coeff
        elif k2 == 0:
            raw.setdefault((a2, a1, k1), SuperPolynomial.zero(q, hat))
            raw[(a2, a1, k1)] = raw[(a2, a1, k1)] - coeff
        else:
            raise AlgebraError("canonical bivector representative expected")
    zero_op = DiffOperator.zero(q, hat)
    entries = [[zero_op for _ in range(q)] for _ in range(q)]
    for a in range(1, q + 1):
        for b in range(a, q + 1):
            # higher coefficients P_k, k >= 1, read off directly
            coeffs = {k: raw[(a, b, k)] * 2 for (x, y, k) in raw if x == a and y == b and k >= 1}
            Dab = DiffOperator(coeffs, q, hat)
            # tail = sum_k (-1)^k d^k P_k, the order-0 part of the adjoint
            tail = Dab.adjoint().coeffs.get(0, SuperPolynomial.zero(q, hat))
            if a == b:
                # P_0 from skew-adjointness of the diagonal entry
                entries[a - 1][a - 1] = Dab + DiffOperator({0: -tail / 2}, q, hat)
            else:
                # the visible order-0 part is (P^{ab}_0 - P^{ba}_0)/2 and
                # (D^{ab})* = -D^{ba} fixes the split
                c0 = raw.get((a, b, 0), SuperPolynomial.zero(q, hat))
                Dab = Dab + DiffOperator({0: c0 - tail / 2}, q, hat)
                entries[a - 1][b - 1] = Dab
                entries[b - 1][a - 1] = -Dab.adjoint()
    M = OperatorMatrix(entries)
    if not M.is_skew_adjoint():
        raise SkewnessError("reconstructed operator is not skew-adjoint")
    if operator_to_bivector(M) != B:
        raise AlgebraError("bivector does not come from a differential operator")
    return M
