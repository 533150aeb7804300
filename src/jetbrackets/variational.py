"""The quotient calculus on functional multivectors.

A functional k-vector is a density with k odd factors taken modulo total
derivatives.  This module provides the (higher) variational derivatives, the
normalization operator N = theta delta_theta, canonical representatives for
classes, a decision procedure for membership in the image of the total
derivative (with an explicit antiderivative as witness), and the
dictionaries between densities, evolutionary vector fields and differential
operators.

Canonical representatives: for theta-degree k >= 1 the representative is
(1/k) N applied to any density of the class; N kills total derivatives and
N F - k F is always a total derivative, so this is a well-defined projection
onto normal forms.  For k = 0 the representative is the residue r of the
integration-by-parts descent below.

One descent on the top order n (`algebra._integrate`) splits every density
as a = d(g) + r: the theta_n terms move down to theta_{n-1} with their
coefficients, the u_n-linear rest integrates in u_{n-1}, and d of both is
subtracted; a term the step cannot take (a theta_n term with theta_{n-1} or
u_n, a term nonlinear in u_n, u_1^-1 u_2, which needs log u_1, or a
remainder at order 0) goes to r, so r = 0 exactly when a is exact.  Since
ker d is 0 in theta-degree k >= 1, an exact density there gets the one
antiderivative, the same g as the higher-Euler homotopy
(1/k) sum_j d^j (theta delta_{j+1,theta} a); a nonzero r is replaced by the
canonical residue (1/k) N(a) for NotExact.  The descent applies d once to
each term of g, n steps in all, where the homotopy took about n^2/2.

Every variational derivative (delta_u and delta_theta at every level) and N
run through the algebra layer's integer derivation kernel, which works on
the numerators and keeps the denominator: delta_u through
`algebra._variational`, delta_theta and N through `algebra._theta_pass`,
which moves the terms of one odd part as a group when they are many.  N
multiplies by theta, a shift of the keys, and a canonical representative
divides by k, which multiplies the denominator by k; both skip the theta_0
terms, which theta kills, at the last level.  An operator D becomes the
class of theta (D theta) / 2, whose delta_theta is (D - D*) theta / 2: D is
skew exactly when that is D theta.  Back, the D_j of a bivector are read
off delta_theta B = sum_j D_j theta_j by their theta_j bit, so neither
direction takes an adjoint or a ring product.  `antidiff_square` and the
dKdV hierarchy lift are antiderivatives in u_k (`algebra._antidiff_u`).  A
class carries the theta_0 part of its delta_theta and derives the rest only
when a bracket reads it (see MultiVector), so the Schouten bracket
differentiates each class at most once per variable, and a result that is
only compared never does; delta_u comes from the density a class was built
from when that density is smaller than the representative.
"""

from __future__ import annotations

from math import lcm

from .algebra import (
    AlgebraError,
    DiffOperator,
    SkewnessError,
    SuperPolynomial,
    _antidiff_u,
    _check_density,
    _check_scalar,
    _check_size,
    _file,
    _horner,
    _integrate,
    _jet,
    _make,
    _numerators,
    _off_theta,
    _on_theta,
    _theta_free,
    _theta_pass,
    _theta_times,
    _variational,
)


class NotExact(AlgebraError):
    """The density is not a total derivative; carries the canonical residue."""

    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


def _check_level(level) -> None:
    _check_size(level, "the level of a variational derivative", None)
    if level < 0:
        raise AlgebraError(f"the level of a variational derivative must be nonnegative, got {level}")


def higher_variational_u(a: SuperPolynomial, *, level: int = 0) -> SuperPolynomial:
    """delta_{k,u} = sum_j (-1)^j C(k+j, k) d^j o partial_{u_{k+j}}, k = level >= 0."""
    _check_density(a)
    _check_level(level)
    return _variational(a, level)


def higher_variational_theta(a: SuperPolynomial, *, level: int = 0) -> SuperPolynomial:
    """delta_{k,theta}, the odd counterpart."""
    _check_density(a)
    _check_level(level)
    return _make(_theta_pass(a, level), _numerators(a)[1])


def variational_derivative(a: SuperPolynomial, slot: str = "u", *,
                           level: int = 0) -> SuperPolynomial:
    """Euler operator (level 0) or higher variational derivative."""
    if slot == "u":
        return higher_variational_u(a, level=level)
    if slot == "theta":
        return higher_variational_theta(a, level=level)
    raise AlgebraError(f"unknown variational slot {slot!r}")


def normalize_N(a: SuperPolynomial) -> SuperPolynomial:
    """The normalization operator N = theta delta_theta."""
    _check_density(a)
    # theta kills the theta_0 terms of delta_theta, so they are left out
    return _theta_times(_make(_theta_pass(a, 0, {}), _numerators(a)[1]), 1)


# ---------------------------------------------------------------------------
# Formal integration in x
# ---------------------------------------------------------------------------

def antidiff_square(p: SuperPolynomial, k: int) -> SuperPolynomial:
    """Solve (d/du_k)^2 h = p by two formal antidifferentiations."""
    _check_density(p)
    _check_size(k, "jet index")
    h1, b1 = _antidiff_u(p, k)
    h2, b2 = _antidiff_u(h1, k)
    if b1 or b2:
        raise NotExact(f"double antiderivative in u_{k} requires a logarithm",
                       residue=b1 + b2)
    return h2


def decompose_total_derivative(a: SuperPolynomial):
    """Split a = d(g) + r with r the canonical residue; works per
    theta-degree.  Returns (g, r)."""
    _check_density(a)
    g = r = SuperPolynomial()
    for k, comp in a.theta_components().items():
        gk, rk = _integrate(comp)
        if k and rk:
            # comp is not exact; minus its canonical residue (1/k) N(comp) it is
            rk = canonical_class(comp).rep
            gk, rest = _integrate(comp - rk)
            if rest:
                raise AssertionError("the descent stalled on an exact density")
        g, r = g + gk, r + rk
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
    its canonical representative.

    A class carries delta_theta rep and delta_u rep, which the Schouten
    bracket reads, each computed at most once.  N a - k a is a total
    derivative, so delta_theta rep = delta_theta a, and theta kills its
    theta_0 terms.  At the last Horner level of delta_theta a a term theta_0
    x gives theta_1 x + theta_0 d(x), so `canonical_class` (theta-degree
    k >= 1) builds rep from theta_1 x and keeps the sum y of those x, the
    theta_0 part: delta_theta = k (rep less its theta_0) + theta_0 d(y) is
    formed in one pass over y when first read, and at once when y = 0 (so
    at theta-degree 0).  Likewise delta_u a = delta_u rep, so the class
    keeps the density a while it has fewer terms than rep and takes delta_u
    from it.  All are linear, so `scale` scales them, and a sum adds the
    representatives (N / k is a linear projection) and the theta_0 parts.

    `MultiVector(rep, k)` refuses a k that is not an int >= 0, a rep that
    is not a SuperPolynomial and a nonzero rep whose theta-degree is not k,
    and stores the canonical representative, so `MultiVector(a, k) ==
    canonical_class(a)`; a zero rep gives the zero class of theta-degree k
    and takes no derivative.  Engine paths, whose rep is canonical already,
    build through the unchecked `_make_class`, as the ring's through
    `algebra._make`.  `rep`, `theta_degree` and the theta_0 part are never
    reassigned: the carried derivatives rely on them."""

    __slots__ = ("rep", "theta_degree", "_dtheta", "_du", "_src", "_y")

    def __new__(cls, rep: SuperPolynomial, theta_degree: int):
        _check_size(theta_degree, "theta-degree")
        _check_density(rep, "a representative")
        if not rep:
            return _make_class(rep, theta_degree)
        k = rep.theta_degree()
        if k != theta_degree:
            raise AlgebraError(f"the density has theta-degree "
                               f"{'mixed' if k is None else k}, not {theta_degree}")
        return _class_of_degree(rep, k)

    def __getnewargs__(self):
        # copy and pickle rebuild the class, then restore its slots
        return self.rep, self.theta_degree

    def _delta_theta(self) -> SuperPolynomial:
        """delta_theta rep, computed at most once, from the theta_0 part y
        the class carries in one pass over y (see the class docstring)."""
        d = self._dtheta
        if d is None:
            # k (rep less its theta_0) + theta_0 d(y), over one denominator
            (r, Dr), (y, Dy) = _numerators(self.rep), _numerators(self._y)
            L = lcm(Dr, Dy)
            f, g = self.theta_degree * (L // Dr), L // Dy
            nums = {m - 1: c * f for m, c in r.items()}
            for m, c in _horner({1: y}, 1).items():
                nums[m + 1] = c * g
            d = self._dtheta = _make(nums, L)
        return d

    def _delta_u(self) -> SuperPolynomial:
        """delta_u rep, computed at most once, from the smaller density of
        the class when it carries one (see the class docstring)."""
        d = self._du
        if d is None:
            src, self._src = self._src, None
            d = self._du = _variational(self.rep if src is None else src, 0)
        return d

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def homogeneity(self):
        """Uniform homogeneity degree of the class, or None."""
        return self.rep.degree()

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
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
        k = self.theta_degree
        if k != other.theta_degree:
            raise AlgebraError("cannot add multivectors of different theta-degree")
        # rep is a linear projection of the class, so reps add
        rep = self.rep + other.rep
        if not rep:
            return canonical_class(rep)  # the zero class, of theta-degree 0
        return _make_class(rep, k, self._y + other._y)

    def __sub__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "MultiVector":
        """The class c times self, for an exact rational c (a bool is not one)."""
        _check_scalar(c)
        out = _make_class(self.rep * c, self.theta_degree, self._y * c)
        if self._dtheta is not None:
            out._dtheta = self._dtheta * c
        if self._du is not None:
            out._du = self._du * c
        return out

    def to_hat(self) -> "MultiVector":
        # benchmark shim, see the comment on SuperPolynomial.zero
        return self

    def __str__(self):
        return f"int({self.rep}) dx"

    def __repr__(self):
        return f"MultiVector({self}, k={self.theta_degree})"


_ZERO = SuperPolynomial()


def _make_class(rep: SuperPolynomial, k: int, y=_ZERO) -> MultiVector:
    """The class of rep with the theta_0 part y (see MultiVector), unchecked:
    rep must be canonical and, unless zero, of theta-degree k; y = 0 fits
    theta-degree 0, a zero rep and rep = theta f, f theta-free."""
    out = object.__new__(MultiVector)
    out.rep, out.theta_degree, out._du, out._src, out._y = rep, k, None, None, y
    out._dtheta = None if k else _ZERO
    return out


def canonical_class(a: SuperPolynomial) -> MultiVector:
    """The class of the density a, via the canonical representative; a class
    of theta-degree k >= 1 carries delta_theta a, and one of theta-degree 0
    carries delta_theta = 0."""
    _check_density(a)
    k = a.theta_degree()
    if k is None and a:
        raise AlgebraError("density has mixed theta-degree; no canonical class")
    return _class_of_degree(a, k) if a else _make_class(a, 0)


def _class_of_degree(a: SuperPolynomial, k: int) -> MultiVector:
    """canonical_class(a) for a nonzero a of known theta-degree k, with no scan for k."""
    if k == 0:
        return _make_class(_integrate(a)[1], 0)
    (nums, D), y = _numerators(a), {}
    r = _make(_theta_pass(a, 0, y), D)
    out = _make_class(_theta_times(r, k), k, _make(y, D) if y else _ZERO)
    if not y:
        out._dtheta = r  # nothing waits: delta_theta is its theta_0-free part
    if len(nums) < len(_numerators(out.rep)[0]):
        out._src = a  # the smaller density of the class, for delta_u
    return out


class EvolutionaryVF:
    """An evolutionary vector field, stored by its characteristic f; `chars`
    is the 1-tuple (f,), and its class is read off f = delta_theta (f theta)."""

    __slots__ = ("chars",)

    def __init__(self, char: SuperPolynomial):
        _check_density(char, "a characteristic")
        if not _theta_free(char):
            raise AlgebraError("characteristics must be even densities")
        self.chars = (char,)

    def apply(self, a: SuperPolynomial) -> SuperPolynomial:
        """Act as the derivation sum_j d^j(f) partial_{u_j}; piece j of one
        filing of a is (-1)^j partial_{u_j} a."""
        _check_density(a)
        nums, D = _numerators(a)
        pieces = _file(nums, False, 0)
        df = _jet(self.chars[0], max(pieces) if pieces else 0)
        out = SuperPolynomial()
        for j, piece in sorted(pieces.items()):
            term = df[j] * _make(piece, D)
            out = out - term if j & 1 else out + term
        return out

    def commutator(self, other: "EvolutionaryVF") -> "EvolutionaryVF":
        return EvolutionaryVF(self.apply(other.chars[0]) - other.apply(self.chars[0]))

    def as_class(self) -> MultiVector:
        f = self.chars[0]
        # rep = theta f, so delta_theta rep = f and its theta_0 part is 0
        out = _make_class(_theta_times(f, 1), 1 if f else 0)
        out._dtheta = f
        return out

    def is_zero(self):
        return not self.chars[0]

    def __eq__(self, other):
        if not isinstance(other, EvolutionaryVF):
            return NotImplemented
        return self.chars == other.chars

    def __repr__(self):
        return f"EvolutionaryVF({self.chars[0]})"


def vf_from_density(a: SuperPolynomial) -> EvolutionaryVF:
    """The vector field int(a) dx, a of theta-degree 1 or zero: its
    characteristic is delta_theta a."""
    _check_density(a)
    if a and a.theta_degree() != 1:
        raise AlgebraError("vector fields come from theta-degree-1 densities")
    return EvolutionaryVF(higher_variational_theta(a))


# ---------------------------------------------------------------------------
# The bivector dictionary
# ---------------------------------------------------------------------------

def operator_to_bivector(D: DiffOperator) -> MultiVector:
    """The bivector (1/2) int theta D theta dx of a skew-adjoint operator.
    The operators d and u d + u_1/2 map to the brackets' generating
    bivectors (1/2) int theta theta_1 and (1/2) int u theta theta_1.  The
    density is theta (D theta) / 2, a shift of the keys of the D_j.  Its
    class has delta_theta = (D - D*) theta / 2, which is D theta exactly
    when D* = -D, so skewness is read off the class with no adjoint.  A
    nonzero D of even order n is refused before its class is built: D + D*
    has the term 2 p_n d^n.  So is one of odd order n whose two top
    coefficients fail 2 p_{n-1} = n d(p_n): D + D* has the term
    (2 p_{n-1} - n d(p_n)) d^(n-1).  That test is necessary, not sufficient,
    so an operator that passes it is still read off its class."""
    if D.coeffs:
        n = D.order()
        if not n & 1 or D.coeffs.get(n - 1, SuperPolynomial()) / n \
                != D.coeffs[n].total_derivative() / 2:
            raise SkewnessError("operator is not skew-adjoint")
    dtheta = _on_theta(D.coeffs)
    density = _theta_times(dtheta, 2)
    B = _class_of_degree(density, 2) if density else _make_class(density, 0)
    if B._delta_theta() != dtheta:
        raise SkewnessError("operator is not skew-adjoint")
    return B


def bivector_to_operator(B: MultiVector) -> DiffOperator:
    """Inverse of operator_to_bivector on theta-degree-2 classes: the
    operator is read off delta_theta B = sum_j D_j theta_j, each D_j from
    the keys with the bit of theta_j, in one pass.  Every zero class, of
    any theta-degree, is the zero operator's.

    No round trip is needed to check the result.  A density of
    theta-degree 2 is a sum of terms c theta_i theta_j, and integrating by
    parts gives int theta K theta / 2 dx for some operator K.  Since
    int theta K* theta dx = int (K theta) theta dx = -int theta K theta dx,
    the skew part (K - K*) / 2 gives the same class, so every class B of
    theta-degree 2 is int theta K theta / 2 dx for a skew K.  Its
    delta_theta is (K - K*) theta / 2 = K theta, which fixes K, since an
    operator is known by its action on theta.  So the D read off delta_theta
    B is that skew K, and operator_to_bivector(D) is the canonical class of
    theta D theta / 2, which is B."""
    if B.is_zero():
        return DiffOperator.zero()
    if B.theta_degree != 2:
        raise AlgebraError("only theta-degree-2 classes correspond to operators")
    coeffs = _off_theta(B._delta_theta())
    if coeffs is None:
        raise AlgebraError("not a bivector density")
    return DiffOperator(coeffs)
