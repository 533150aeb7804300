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
run through the algebra layer's integer derivation kernel,
`algebra._variational`, which works on the numerators and keeps the
denominator; N multiplies by theta, a shift of the keys, and a canonical
representative divides by k, which multiplies the denominator by k.  The
operator of a bivector B is read off delta_theta B = sum_j D_j theta_j as
D_j = partial_theta(j) of it, and `antidiff_square` and the dKdV hierarchy
lift are antiderivatives in u_k (`algebra._antidiff_u`).  A class carries
the delta_theta and delta_u of its representative (see MultiVector), so the
Schouten bracket differentiates each class at most once per variable, and
takes delta_u from the density a class was built from when that density is
smaller than the representative.
"""

from __future__ import annotations

from .algebra import (
    AlgebraError,
    DiffOperator,
    SkewnessError,
    SuperPolynomial,
    _antidiff_u,
    _check_scalar,
    _check_size,
    _file,
    _integrate,
    _make,
    _numerators,
    _theta_free,
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
    _check_level(level)
    return _variational(a, False, level)


def higher_variational_theta(a: SuperPolynomial, *, level: int = 0) -> SuperPolynomial:
    """delta_{k,theta}, the odd counterpart."""
    _check_level(level)
    return _variational(a, True, level)


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
    return _theta_times(_variational(a, True, 0), 1)


# ---------------------------------------------------------------------------
# Formal integration in x
# ---------------------------------------------------------------------------

def antidiff_square(p: SuperPolynomial, k: int) -> SuperPolynomial:
    """Solve (d/du_k)^2 h = p by two formal antidifferentiations."""
    h1, b1 = _antidiff_u(p, k)
    h2, b2 = _antidiff_u(h1, k)
    if b1 or b2:
        raise NotExact(f"double antiderivative in u_{k} requires a logarithm",
                       residue=b1 + b2)
    return h2


def decompose_total_derivative(a: SuperPolynomial):
    """Split a = d(g) + r with r the canonical residue; works per
    theta-degree.  Returns (g, r)."""
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

    A class carries the variational derivatives delta_theta rep and delta_u
    rep that the Schouten bracket reads, in two private slots: each is
    computed at most once per class, on first use, unless the class was
    built with it.  `canonical_class` (theta-degree k >= 1) stores the
    delta_theta it differentiates anyway: N a - k a is a total derivative,
    so delta_theta (theta delta_theta a / k) = delta_theta a.  For the same
    reason delta_u a = delta_u rep, so when the density a has fewer terms
    than rep the class keeps it in a third slot, and delta_u is taken from
    a, which is then dropped; a class with no such density differentiates
    rep.  The derivatives are linear, so `scale` scales the known ones, and
    the sum of two classes of theta-degree k >= 1 with known delta_theta is
    theta (delta_theta a + delta_theta b) / k, with no differentiation.

    `MultiVector(rep, k)` refuses a k that is not an int >= 0, a rep that
    is not a SuperPolynomial and a nonzero rep whose theta-degree is not k,
    and stores the canonical representative, so `MultiVector(a, k) ==
    canonical_class(a)`; a zero rep gives the zero class of theta-degree k
    and takes no derivative.  Engine paths, whose rep is canonical already,
    build through the unchecked `_make_class`, as the ring's through
    `algebra._make`.  `rep` and `theta_degree` are never reassigned: the
    carried derivatives rely on it."""

    __slots__ = ("rep", "theta_degree", "_dtheta", "_du", "_src")

    def __init__(self, rep: SuperPolynomial, theta_degree: int):
        _check_size(theta_degree, "theta-degree")
        if not isinstance(rep, SuperPolynomial):
            raise TypeError(f"a representative must be a SuperPolynomial, got {rep!r}")
        self._dtheta = self._du = self._src = None
        if rep:
            k = rep.theta_degree()
            if k != theta_degree:
                raise AlgebraError(f"the density has theta-degree "
                                   f"{'mixed' if k is None else k}, not {theta_degree}")
            c = _class_of_degree(rep, k)
            rep, self._dtheta, self._du, self._src = c.rep, c._dtheta, c._du, c._src
        self.rep = rep
        self.theta_degree = theta_degree

    def _delta_theta(self) -> SuperPolynomial:
        """delta_theta rep, computed at most once."""
        d = self._dtheta
        if d is None:
            d = self._dtheta = _variational(self.rep, True, 0)
        return d

    def _delta_u(self) -> SuperPolynomial:
        """delta_u rep, computed at most once, from the smaller density of
        the class when it carries one (see the class docstring)."""
        d = self._du
        if d is None:
            src, self._src = self._src, None
            d = self._du = _variational(self.rep if src is None else src, False, 0)
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
        if k >= 1 and self._dtheta is not None and other._dtheta is not None:
            dtheta = self._dtheta + other._dtheta
            # a zero sum takes the general path, which gives the zero class
            # of theta-degree 0
            if dtheta:
                return _class_of(dtheta, k)
        return canonical_class(self.rep + other.rep)

    def __sub__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "MultiVector":
        """The class c times self, for an exact rational c (a bool is not one)."""
        _check_scalar(c)
        out = _make_class(self.rep * c, self.theta_degree)
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


def _make_class(rep: SuperPolynomial, k: int) -> MultiVector:
    """The class of rep, unchecked: rep must be canonical and, unless zero,
    of theta-degree k (see MultiVector)."""
    out = object.__new__(MultiVector)
    out.rep, out.theta_degree = rep, k
    out._dtheta = out._du = out._src = None
    return out


def _class_of(dtheta: SuperPolynomial, k: int) -> MultiVector:
    """The class of theta-degree k >= 1 whose representative has the
    theta-variational derivative dtheta: rep = theta dtheta / k."""
    # (1/k) N(a) from the delta_theta a at hand, not a second normalize_N
    out = _make_class(_theta_times(dtheta, k), k)
    out._dtheta = dtheta
    return out


def canonical_class(a: SuperPolynomial) -> MultiVector:
    """The class of the density a, via the canonical representative; a class
    of theta-degree k >= 1 carries delta_theta a, and one of theta-degree 0
    carries delta_theta = 0."""
    k = a.theta_degree()
    if k is None and a:
        raise AlgebraError("density has mixed theta-degree; no canonical class")
    if not a:
        out = _make_class(a, 0)
        out._dtheta = out._du = a
        return out
    return _class_of_degree(a, k)


def _class_of_degree(a: SuperPolynomial, k: int) -> MultiVector:
    """canonical_class(a) for a nonzero a of known theta-degree k, with no scan for k."""
    if k == 0:
        out = _make_class(_integrate(a)[1], 0)
        out._dtheta = _ZERO
        return out
    out = _class_of(_variational(a, True, 0), k)
    if len(_numerators(a)[0]) < len(_numerators(out.rep)[0]):
        out._src = a  # the smaller density of the class, for delta_u
    return out


class EvolutionaryVF:
    """An evolutionary vector field, stored by its characteristic f; `chars`
    is the 1-tuple (f,), and its class is read off f = delta_theta (f theta)."""

    __slots__ = ("chars",)

    def __init__(self, char: SuperPolynomial):
        if not isinstance(char, SuperPolynomial):
            raise TypeError(f"a characteristic must be a SuperPolynomial, got {char!r}")
        if not _theta_free(char):
            raise AlgebraError("characteristics must be even densities")
        self.chars = (char,)

    def apply(self, a: SuperPolynomial) -> SuperPolynomial:
        """Act as the derivation sum_j d^j(f) partial_{u_j}; piece j of one
        filing of a is (-1)^j partial_{u_j} a."""
        nums, D = _numerators(a)
        out, fj, done = SuperPolynomial(), self.chars[0], 0
        for j, piece in sorted(_file(nums, False, 0).items()):
            fj, done = fj.dx(j - done), j
            term = fj * _make(piece, D)
            out = out - term if j & 1 else out + term
        return out

    def commutator(self, other: "EvolutionaryVF") -> "EvolutionaryVF":
        return EvolutionaryVF(self.apply(other.chars[0]) - other.apply(self.chars[0]))

    def as_class(self) -> MultiVector:
        f = self.chars[0]
        return _class_of(f, 1) if f else canonical_class(f)

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
    if a and a.theta_degree() != 1:
        raise AlgebraError("vector fields come from theta-degree-1 densities")
    return EvolutionaryVF(higher_variational_theta(a))


# ---------------------------------------------------------------------------
# The bivector dictionary
# ---------------------------------------------------------------------------

def operator_to_bivector(D: DiffOperator) -> MultiVector:
    """The bivector (1/2) int theta D theta dx of a skew-adjoint operator.
    The operators d and u d + u_1/2 map to the brackets' generating
    bivectors (1/2) int theta theta_1 and (1/2) int u theta theta_1."""
    if not D.is_skew_adjoint():
        raise SkewnessError("operator is not skew-adjoint")
    theta = SuperPolynomial.theta()
    density = SuperPolynomial()
    for j, p in D.coeffs.items():
        density = density + theta * p * SuperPolynomial.theta(j)
    return canonical_class(density / 2)


def bivector_to_operator(B: MultiVector) -> DiffOperator:
    """Inverse of operator_to_bivector on theta-degree-2 classes: the
    operator is read off delta_theta B = sum_j D_j theta_j."""
    if B.theta_degree != 2:
        raise AlgebraError("only theta-degree-2 classes correspond to operators")
    dtheta = B._delta_theta()
    if dtheta and dtheta.theta_degree() != 1:
        raise AlgebraError("not a bivector density")
    D = DiffOperator({j: dtheta.partial_theta(j) for j in range(dtheta.order() + 1)})
    # operator_to_bivector raises SkewnessError for a D that is not skew-adjoint
    if operator_to_bivector(D) != B:
        raise AlgebraError("bivector does not come from a differential operator")
    return D
