"""Schouten bracket, Hamiltonian certificates and hydrodynamic constructors.

The bracket of two classes int(F) dx, int(G) dx is the class of

    (-1)^(|F|+1) delta_theta F . delta_u G  -  delta_u F . delta_theta G

summed over the dependent variables, with |F| the theta-degree of F and the
products taken in the displayed order.  It only involves variational
derivatives, so it is well defined on classes, and the fixed product order
pins every sign in the calculus built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, DiffOperator, SkewnessError, SuperPolynomial, _theta_free
from .variational import (
    MultiVector,
    OperatorMatrix,
    _as_matrix,
    canonical_class,
    higher_variational_theta,
    higher_variational_u,
    operator_to_bivector,
)


def schouten_bracket(a: MultiVector, b: MultiVector) -> MultiVector:
    """The bracket [[a, b]]; theta-degree drops by one."""
    if a.q != b.q or a.hat != b.hat:
        raise AlgebraError("bracket operands live in different algebras")
    F, G = a.rep, b.rep
    ka = a.theta_degree
    if F.is_zero() or G.is_zero():
        k = max(a.theta_degree + b.theta_degree - 1, 0)
        return MultiVector(SuperPolynomial.zero(a.q, a.hat), k)
    sign = 1 if (ka + 1) % 2 == 0 else -1
    density = SuperPolynomial.zero(a.q, a.hat)
    for alpha in range(1, a.q + 1):
        dtF = higher_variational_theta(F, alpha, 0)
        duG = higher_variational_u(G, alpha, 0)
        if dtF and duG:
            density = density + dtF * duG * sign
        duF = higher_variational_u(F, alpha, 0)
        dtG = higher_variational_theta(G, alpha, 0)
        if duF and dtG:
            density = density - duF * dtG
    if density.is_zero():
        return MultiVector(density, max(a.theta_degree + b.theta_degree - 1, 0))
    return canonical_class(density)


def _in_algebra_of(H: MultiVector, a: MultiVector) -> MultiVector:
    """H, moved to hat mode when a lives there, so that [[H, a]] is defined."""
    return H.to_hat() if a.hat and not H.hat else H


def differential_dH(H: MultiVector, a: MultiVector) -> MultiVector:
    """d_H = [[H, .]]; a differential as soon as [[H, H]] = 0."""
    return schouten_bracket(H, a)


def is_hamiltonian(B: MultiVector) -> bool:
    if B.theta_degree != 2:
        raise AlgebraError("Hamiltonianity is a property of bivectors")
    return schouten_bracket(B, B).is_zero()


def are_compatible(B1: MultiVector, B2: MultiVector) -> bool:
    if B1.theta_degree != 2 or B2.theta_degree != 2:
        raise AlgebraError("compatibility is a property of bivectors")
    return schouten_bracket(B1, B2).is_zero()


def poisson_bracket_functionals(F: MultiVector, G: MultiVector, D) -> MultiVector:
    """{F, G}_D as a functional class; D must be skew-adjoint."""
    D = _as_matrix(D)
    if not D.is_skew_adjoint():
        raise SkewnessError("Poisson bracket needs a skew-adjoint operator")
    if F.theta_degree != 0 or G.theta_degree != 0:
        raise AlgebraError("functional bracket takes theta-degree-0 classes")
    density = SuperPolynomial.zero(F.q, F.hat)
    dG = [higher_variational_u(G.rep, b, 0) for b in range(1, F.q + 1)]
    for a in range(1, F.q + 1):
        dFa = higher_variational_u(F.rep, a, 0)
        if not dFa:
            continue
        for b in range(1, F.q + 1):
            density = density + dFa * D[a, b].apply(dG[b - 1])
    return canonical_class(density)


@dataclass(frozen=True)
class Pencil:
    """A compatible pair of Hamiltonian bivectors."""

    P: MultiVector
    Q: MultiVector
    certified: bool = False

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
        """P + lambda Q, again Hamiltonian for every rational lambda."""
        return self.P + self.Q.scale(Fraction(lam))

    def d_P(self, a: MultiVector) -> MultiVector:
        return schouten_bracket(_in_algebra_of(self.P, a), a)

    def d_Q(self, a: MultiVector) -> MultiVector:
        return schouten_bracket(_in_algebra_of(self.Q, a), a)


def hydrodynamic_bivector(h, q: int = 1):
    """Build the order-one bivector of a symmetric coefficient matrix h(u).

    Returns (bivector, operator_matrix, gamma, flat) where gamma is the
    matrix of Christoffel-type coefficients and flat reports the flatness
    identity.  For q = 1 the operator is h d + h'(u) u_1 / 2.
    """
    if isinstance(h, (SuperPolynomial, int, Fraction)):
        h = [[h]]
    h = [[SuperPolynomial.const(e, q) if isinstance(e, (int, Fraction)) else e
          for e in row] for row in h]
    if len(h) != q or any(len(row) != q for row in h):
        raise AlgebraError("h must be a q x q matrix")
    for row in h:
        for e in row:
            if e.order() != 0 or not _theta_free(e):
                raise AlgebraError("h entries must depend on u only")
    for a in range(q):
        for b in range(q):
            if h[a][b] != h[b][a]:
                raise AlgebraError("h must be symmetric")

    if q == 1:
        h00 = h[0][0]
        if h00.is_zero():
            raise AlgebraError("degenerate h: the coefficient vanishes identically")
        gamma = [[[h00.partial_u(0, 1) / 2]]]
        op = DiffOperator({1: h00, 0: h00.total_derivative() / 2}, 1, False)
        M = OperatorMatrix([[op]])
        B = operator_to_bivector(M)
        return B, M, gamma, True

    hinv = _invert_constant_det(h, q)
    # gamma[a][b][g] = -1/2 sum h^{ad} h^{be} (d_d h_{eg} - d_e h_{dg} + d_g h_{de})
    gamma = [[[SuperPolynomial.zero(q) for _ in range(q)] for _ in range(q)] for _ in range(q)]
    for a in range(q):
        for b in range(q):
            for g in range(q):
                s = SuperPolynomial.zero(q)
                for d in range(q):
                    for e in range(q):
                        t = (hinv[e][g].partial_u(0, d + 1)
                             - hinv[d][g].partial_u(0, e + 1)
                             + hinv[d][e].partial_u(0, g + 1))
                        if t:
                            s = s + h[a][d] * h[b][e] * t
                gamma[a][b][g] = -s / 2
    entries = []
    for a in range(q):
        row = []
        for b in range(q):
            p0 = SuperPolynomial.zero(q)
            for g in range(q):
                p0 = p0 + gamma[a][b][g] * SuperPolynomial.u(1, g + 1, 1, q)
            row.append(DiffOperator({1: h[a][b], 0: p0}, q, False))
        entries.append(row)
    M = OperatorMatrix(entries)
    flat = _flatness_holds(h, gamma, q)
    B = operator_to_bivector(M)
    return B, M, gamma, flat


def _invert_constant_det(h, q):
    """Inverse of a polynomial matrix whose determinant is a nonzero constant
    (adjugate over determinant); raises on anything else."""
    det = _det(h, q)
    if det.is_zero() or det.order() != 0 or det.degree() != 0 or len(det.terms) != 1 \
            or next(iter(det.terms)) != ((), ()):
        raise AlgebraError("h is not invertible over the polynomial ring")
    dval = next(iter(det.terms.values()))
    inv = []
    for i in range(q):
        row = []
        for j in range(q):
            minor = [[h[a][b] for b in range(q) if b != i] for a in range(q) if a != j]
            c = _det(minor, q - 1)
            if (i + j) & 1:
                c = -c
            row.append(c / dval)
        inv.append(row)
    return inv


def _det(m, n):
    if n == 0:
        return SuperPolynomial.const(1)
    if n == 1:
        return m[0][0]
    out = SuperPolynomial.zero(m[0][0].q)
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        t = m[0][j] * _det(minor, n - 1)
        out = out + (-t if j & 1 else t)
    return out


def _flatness_holds(h, gamma, q):
    """Literal check of h^{ad} d_d Gamma^b - h^{bd} d_d Gamma^a
    + [Gamma^a, Gamma^b] = 0 with (Gamma^a)_{bg} = gamma[a][b][g]."""
    for a in range(q):
        for b in range(q):
            for r in range(q):
                for s in range(q):
                    t = SuperPolynomial.zero(q)
                    for d in range(q):
                        t = t + h[a][d] * gamma[b][r][s].partial_u(0, d + 1)
                        t = t - h[b][d] * gamma[a][r][s].partial_u(0, d + 1)
                    for c in range(q):
                        t = t + gamma[a][r][c] * gamma[b][c][s]
                        t = t - gamma[b][r][c] * gamma[a][c][s]
                    if not t.is_zero():
                        return False
    return True
