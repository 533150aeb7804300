"""Schouten bracket, Hamiltonian certificates, hydrodynamic constructors and
the certified dispersionless KdV pencil (d, u d + u_1/2).

The bracket of two classes int(F) dx, int(G) dx is the class of

    (-1)^(|F|+1) delta_theta F . delta_u G  -  delta_u F . delta_theta G

with |F| the theta-degree of F and the products taken in the displayed
order.  It only involves variational derivatives, so it is well defined on
classes, and the fixed product order pins every sign in the calculus built
on top of it.

Each class carries its delta_theta and delta_u (see
`variational.MultiVector`): the bracket reads them, computing a missing one
at most once per class and a delta_u only against a nonzero delta_theta,
so d_P, d_Q, the Maurer-Cartan residuals and the Jacobi checks
differentiate each operand at most once per variable however often they
bracket it.  The density is formed in one pass: both products accumulate
into one int dict over the lcm of their denominators (`algebra._mul_into`),
and its known theta-degree goes with it to the canonical form.  The
bracket's result carries the delta_theta its representative was formed from.

The dKdV pencil (`dkdv_pencil`, with its second operator `dkdv_q_operator`)
lives here, beside `Pencil`: certifying it needs only the ring, the quotient
calculus and the bracket, so a script that stops at the pencil never loads
the slice solver (`deform`) or `dkdv`, which imports both from here.
"""

from __future__ import annotations

from math import lcm

from ._records import FrozenRecord
from .algebra import (AlgebraError, DiffOperator, SkewnessError, SuperPolynomial, _is_scalar,
                      _make, _mul_into, _numerators, _theta_free)
from .variational import (MultiVector, _class_of_degree, _make_class, canonical_class,
                          operator_to_bivector)


def schouten_bracket(a: MultiVector, b: MultiVector) -> MultiVector:
    """The bracket [[a, b]]; theta-degree drops by one.  It reads the
    variational derivatives each class carries, so a class bracketed many
    times (a differential d_H, a slice column) is differentiated once."""
    ka, kb = a.theta_degree, b.theta_degree
    k = max(ka + kb - 1, 0)
    if a.is_zero() or b.is_zero():
        return _make_class(SuperPolynomial(), k)
    # both products go into one int dict over the lcm of their denominators
    nums, D = {}, 1
    dtF, dtG = a._delta_theta(), b._delta_theta()
    if dtF:
        (f, Df), (g, Dg) = _numerators(dtF), _numerators(b._delta_u())
        D = Df * Dg
        _mul_into(nums, f, g, 1 if ka & 1 else -1)
    if dtG:
        (f, Df), (g, Dg) = _numerators(a._delta_u()), _numerators(dtG)
        L = lcm(D, Df * Dg)
        if L != D or 0 in nums.values():
            # drop cancelled keys, as the two-step sum did: one that comes back goes last
            nums = {m: c * (L // D) for m, c in nums.items() if c}
        _mul_into(nums, f, g, -(L // (Df * Dg)))
        D = L
    density = _make(nums, D)
    return _class_of_degree(density, k) if density else _make_class(density, k)


def differential_dH(H: MultiVector, a: MultiVector) -> MultiVector:
    """d_H = [[H, .]]; a differential as soon as [[H, H]] = 0."""
    return schouten_bracket(H, a)


def is_hamiltonian(B: MultiVector) -> bool:
    """[[B, B]] = 0 for a bivector B; the zero class (the bivector of the
    zero operator, of theta-degree 0) is Hamiltonian."""
    if B.theta_degree != 2 and not B.is_zero():
        raise AlgebraError("Hamiltonianity is a property of bivectors")
    return schouten_bracket(B, B).is_zero()


def are_compatible(B1: MultiVector, B2: MultiVector) -> bool:
    """[[B1, B2]] = 0 for bivectors, each possibly the zero class."""
    for B in (B1, B2):
        if B.theta_degree != 2 and not B.is_zero():
            raise AlgebraError("compatibility is a property of bivectors")
    return schouten_bracket(B1, B2).is_zero()


def poisson_bracket_functionals(F: MultiVector, G: MultiVector, D: DiffOperator) -> MultiVector:
    """{F, G}_D = int delta_u F . D delta_u G dx as a functional class; D
    must be skew-adjoint."""
    if not D.is_skew_adjoint():
        raise SkewnessError("Poisson bracket needs a skew-adjoint operator")
    if F.theta_degree != 0 or G.theta_degree != 0:
        raise AlgebraError("functional bracket takes theta-degree-0 classes")
    dF = F._delta_u()
    return canonical_class(dF * D.apply(G._delta_u()) if dF else dF)


class Pencil(FrozenRecord):
    """A compatible pair of Hamiltonian bivectors."""

    __slots__ = ("P", "Q", "certified")
    _fields = __slots__

    def __init__(self, P: MultiVector, Q: MultiVector, certified: bool = False):
        super().__init__(P, Q, certified)

    @classmethod
    def make(cls, P: MultiVector, Q: MultiVector) -> "Pencil":
        if not is_hamiltonian(P):
            raise AlgebraError("[[P, P]] != 0: first structure is not Hamiltonian")
        if not is_hamiltonian(Q):
            raise AlgebraError("[[Q, Q]] != 0: second structure is not Hamiltonian")
        if not are_compatible(P, Q):
            raise AlgebraError("[[P, Q]] != 0: structures are not compatible")
        return cls(P, Q, certified=True)

    def member(self, lam) -> MultiVector:
        """P + lambda Q, again Hamiltonian for every rational lambda (`scale`
        refuses any other lambda)."""
        return self.P + self.Q.scale(lam)

    def d_P(self, a: MultiVector) -> MultiVector:
        return schouten_bracket(self.P, a)

    def d_Q(self, a: MultiVector) -> MultiVector:
        return schouten_bracket(self.Q, a)


_PENCIL = None


def dkdv_q_operator() -> DiffOperator:
    """The second operator u d + u_1/2 of the dKdV pencil."""
    return DiffOperator({1: SuperPolynomial.u(0), 0: SuperPolynomial.u(1) / 2})


def dkdv_pencil() -> Pencil:
    """The certified pencil of d and u d + u_1/2 of dispersionless KdV."""
    global _PENCIL
    if _PENCIL is None:
        P = operator_to_bivector(DiffOperator.d(1))
        _PENCIL = Pencil.make(P, operator_to_bivector(dkdv_q_operator()))
    return _PENCIL


def hydrodynamic_bivector(h):
    """Build the order-one bivector of a coefficient h(u).

    Returns (bivector, operator) with the operator h d + h'(u) u_1 / 2.
    """
    if not isinstance(h, SuperPolynomial):
        if not _is_scalar(h):
            raise TypeError(f"h must be a SuperPolynomial, int or Fraction, got {h!r}")
        h = SuperPolynomial.const(h)
    if h.order() != 0 or not _theta_free(h):
        raise AlgebraError("h must depend on u only")
    if h.is_zero():
        raise AlgebraError("degenerate h: the coefficient vanishes identically")
    op = DiffOperator({1: h, 0: h.total_derivative() / 2})
    return operator_to_bivector(op), op
