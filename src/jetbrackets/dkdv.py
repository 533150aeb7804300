"""The dispersionless KdV pencil (d, u d + u_1/2) and its deformation theory.

Hierarchy generation by the functional recursion from the Casimir, the
infinitesimal-symmetry checks, the e/S/E systems attached to a pair of
characteristics, the order-lowering reduction step, and the full
quasi-trivialization of tail cocycles: every positive-degree infinitesimal
bihamiltonian deformation is trivialized by a vector field with u_1-inverse
coefficients, produced here explicitly and re-verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import AlgebraError, DiffOperator, SuperPolynomial
from .deform import (
    Cochain,
    GradedSlice,
    enumerate_basis,
    linear_combination,
    primitive_solve,
    slice_matrix,
)
from .schouten import Pencil
from .variational import (
    EvolutionaryVF,
    MultiVector,
    _antidiff_u,
    antidiff_square,
    canonical_class,
    higher_variational_u,
    integrate_x,
    operator_to_bivector,
)

_PENCIL = None


def _q_operator(hat=False) -> DiffOperator:
    return DiffOperator({1: SuperPolynomial.u(0, hat=hat),
                         0: SuperPolynomial.u(1, hat=hat) / 2}, 1, hat)


def dkdv_pencil() -> Pencil:
    """The certified pencil of d and u d + u_1/2."""
    global _PENCIL
    if _PENCIL is None:
        P = operator_to_bivector(DiffOperator.d(1))
        _PENCIL = Pencil.make(P, operator_to_bivector(_q_operator()))
    return _PENCIL


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------

def _euler_lift(s: SuperPolynomial) -> SuperPolynomial:
    """A density H with delta_u H = s, for s in the image of the Euler
    operator: the standard homotopy int_0^1 u s(lambda . jets) dlambda."""
    out = SuperPolynomial.zero(s.q, s.hat)
    u0 = SuperPolynomial.u(0, q=s.q, hat=s.hat)
    for (even, odd), c in s.terms.items():
        if odd:
            raise AlgebraError("lift expects an even density")
        d = sum(e for _co, e in even)
        out = out + u0 * SuperPolynomial({(even, odd): c}, s.q, s.hat) / (d + 1)
    return out


def hierarchy(N: int):
    """Hamiltonians H_{-1}, ..., H_N of the dispersionless KdV hierarchy,
    recursively from the Casimir (4/3) int u dx."""
    if N < 0:
        raise AlgebraError("N must be nonnegative")
    Qop = _q_operator()
    out = [canonical_class(SuperPolynomial.u(0) * Fraction(4, 3))]
    for _n in range(0, N + 1):
        delta = higher_variational_u(out[-1].rep, 1, 0)
        rhs = Qop.apply(delta)
        new_delta = integrate_x(rhs)
        lift = _euler_lift(new_delta)
        if higher_variational_u(lift, 1, 0) != new_delta:
            raise AssertionError("hierarchy lift failed")
        out.append(canonical_class(lift))
    return out


def hierarchy_flow(H: MultiVector) -> EvolutionaryVF:
    """The evolutionary field d u/dt = d(delta_u H) of a Hamiltonian."""
    return _flow(H.rep)


def _flow(w: SuperPolynomial) -> EvolutionaryVF:
    """The vector field d_P int(w) dx, with characteristic d(delta_u w)."""
    return EvolutionaryVF(higher_variational_u(w, 1, 0).total_derivative())


# ---------------------------------------------------------------------------
# Infinitesimal symmetries
# ---------------------------------------------------------------------------

def symmetry_check(Z) -> bool:
    """Exact test of d_P Z = d_Q Z = 0 for a vector field."""
    if isinstance(Z, EvolutionaryVF):
        Z = Z.as_class()
    pencil = dkdv_pencil()
    return pencil.d_P(Z).is_zero() and pencil.d_Q(Z).is_zero()


def symmetry_space(ell: int, max_udeg: int = 6, max_order: int | None = None):
    """Basis of characteristics of the joint kernel of d_P and d_Q among
    homogeneous degree-ell polynomial vector fields with bounded u-power."""
    pencil = dkdv_pencil()
    sl = GradedSlice(max_order=ell if max_order is None else max_order,
                     max_udeg=max_udeg)
    chars = enumerate_basis(sl, 0, ell)
    if not chars:
        return []
    theta = SuperPolynomial.theta(0)
    fields = [canonical_class(b * theta) for b in chars]
    matrix = slice_matrix(fields, [pencil.d_P, pencil.d_Q])
    return [linear_combination(v, chars) for v in matrix.kernel()]


# ---------------------------------------------------------------------------
# The e / S / E systems
# ---------------------------------------------------------------------------

def build_eSE(f: SuperPolynomial, g: SuperPolynomial, n: int):
    """Coefficient systems of the pair (f, g) of order <= n.

    e_j = F_j - G_j with F_j = d_j f and G_j the order-one pushforward
    coefficients of g; the constraint system is S_k = 0, k = 0..n, and for
    even n the equivalent packed system E_l, l = 0..n/2 (None for odd n).
    """
    if f.order() > n or g.order() > n:
        raise AlgebraError("pair has order larger than declared")
    half = Fraction(1, 2)
    e = []
    for j in range(n + 1):
        Fj = f.partial_u(j)
        Gj = SuperPolynomial.zero(f.q, f.hat)
        for l in range(0, n - j + 1):
            dg = g.partial_u(j + l)
            if dg:
                Gj = Gj + SuperPolynomial.u(l, hat=f.hat) * dg * (
                    half * (comb(j + l, l) + comb(j + l + 1, l)))
        if j == 0:
            Gj = Gj - g * half
        e.append(Fj - Gj)
    return e, _s_system(e, n), _e_system(e, n) if n % 2 == 0 else None


def _s_system(e, n: int):
    """S_k = e_k + sum_{j=k..n} (-1)^j C(j+1, k+1) d^(j-k) e_j, k = 0..n."""
    S = []
    for k in range(n + 1):
        Sk = e[k]
        for j in range(k, n + 1):
            t = e[j].dx(j - k) * comb(j + 1, k + 1)
            Sk = Sk + (-t if j & 1 else t)
        S.append(Sk)
    return S


def _e_system(e, n: int):
    """E_l = sum_{j=2l..m+l} (-1)^j C(2m-j, m-l) C(j+1, 2l+1) d^(j-2l) e_j,
    l = 0..m, for n = 2m."""
    m = n // 2
    E = []
    for l in range(m + 1):
        El = SuperPolynomial.zero(e[0].q, e[0].hat)
        for j in range(2 * l, m + l + 1):
            t = e[j].dx(j - 2 * l) * (comb(2 * m - j, m - l) * comb(j + 1, 2 * l + 1))
            El = El + (-t if j & 1 else t)
        E.append(El)
    return E


def verify_SE_equivalence(e, n: int) -> bool:
    """Check the packed identity expressing S_k through the E_l for the
    given e-data (n even); missing entries e_j, j <= n, count as zero."""
    if n % 2:
        raise AlgebraError("the packed E-system is defined for even n only")
    m = n // 2
    q, hat = e[0].q, e[0].hat
    e = list(e) + [SuperPolynomial.zero(q, hat)] * (n + 1 - len(e))
    E = _e_system(e, n)
    for k, Sk in enumerate(_s_system(e, n)):
        if k == n:
            rhs = E[m] * 2
        else:
            rhs = SuperPolynomial.zero(q, hat)
            for l in range(m + 1):
                num = comb(2 * l + 1, k + 1)
                if num == 0:
                    continue
                # num != 0 gives k <= 2l; with k < 2m that is k < m + l, so the
                # denominator C(2m-k-1, m-l) is nonzero
                rhs = rhs + E[l].dx(2 * l - k) * Fraction(num, comb(2 * m - k - 1, m - l))
        if Sk != rhs:
            return False
    return True


def binomial_identity_check(alpha: int, beta: int) -> bool:
    """sum_p C(alpha+1, beta-2p) C(alpha+p, p) = C(alpha+beta, beta)."""
    if alpha < 0 or beta < 0:
        raise AlgebraError("nonnegative arguments required")
    lhs = sum(comb(alpha + 1, beta - 2 * p) * comb(alpha + p, p)
              for p in range(beta // 2 + 1))
    return lhs == comb(alpha + beta, beta)


# ---------------------------------------------------------------------------
# The order-lowering step
# ---------------------------------------------------------------------------

@dataclass
class CocyclePair:
    """Characteristics f, g of order <= n with d_P int(f theta) = d_Q int(g theta),
    equivalently with identically vanishing S-system."""

    f: SuperPolynomial
    g: SuperPolynomial
    n: int
    ell: int | None = None

    def s_system(self):
        _e, S, _E = build_eSE(self.f, self.g, self.n)
        return S

    def verify(self) -> bool:
        return all(s.is_zero() for s in self.s_system())


class _MoveState:
    """Sequential application of the allowed pair modifications
    f += d delta_u(a) + K delta_u(b), g += -d delta_u(b) + K delta_u(c)."""

    def __init__(self, f, g, hat=True):
        self.f = f
        self.g = g
        self.K = _q_operator(hat=hat)
        self.a = SuperPolynomial.zero(1, hat)
        self.b = SuperPolynomial.zero(1, hat)
        self.c = SuperPolynomial.zero(1, hat)

    def move(self, a, b, c):
        da = higher_variational_u(a, 1, 0)
        db = higher_variational_u(b, 1, 0)
        dc = higher_variational_u(c, 1, 0)
        self.f = self.f + da.total_derivative() + self.K.apply(db)
        self.g = self.g - db.total_derivative() + self.K.apply(dc)
        self.a = self.a + a
        self.b = self.b + b
        self.c = self.c + c


def _one_reduction(state: _MoveState, n: int, last_step: int = 9):
    """Steps 1-9 at even order n = 2m; lowers the pair order to n - 2.

    With last_step = 3 only the u_n layer is removed (the order-2 endgame,
    where the remaining constraint forces the pair to vanish outright).
    """
    m = n // 2
    sgn_m = -1 if m & 1 else 1
    u0 = SuperPolynomial.u(0, hat=True)
    u1inv = SuperPolynomial.u(1, power=-1, hat=True)
    zero = SuperPolynomial.zero(1, True)

    # step 1: the top coefficient of f - u g is already absent
    diff = state.f - u0 * state.g
    if diff.partial_u(n):
        raise AssertionError("step 1: d_n(f - u g) != 0 on a cocycle pair")
    # step 2 consequences: g is linear in u_n with coefficient of order <= m
    g0 = state.g.partial_u(n)
    if g0.partial_u(n) or g0.order() > m:
        raise AssertionError("step 2: top coefficient of g is not reduced")
    # step 3: remove the u_n layer of both characteristics
    if g0:
        r = g0 * u1inv * Fraction(sgn_m * 2, 2 * m + 1)
        h = antidiff_square(r, m)
        state.move(-(u0 * u0 * h), u0 * h, h)
    if state.f.order() > n - 1 or state.g.order() > n - 1:
        raise AssertionError("step 3 did not lower the order")
    if last_step <= 3:
        return
    # steps 4-5 consequences, then step 6: clear d_{n-1}(f - u g)
    e_top = (state.f - u0 * state.g).partial_u(n - 1)
    if e_top.partial_u(n - 1) or e_top.order() > m - 1:
        raise AssertionError("steps 4-5: e_{n-1} is not reduced")
    if e_top:
        h6 = antidiff_square(e_top * sgn_m, m - 1)
        state.move(h6, zero, zero)
    if (state.f - u0 * state.g).order() > n - 2:
        raise AssertionError("step 6 did not clear e_{n-1}")
    # steps 7-8 consequences, then step 9: clear the u_{n-1} layer of g
    g0p = state.g.partial_u(n - 1)
    if g0p.partial_u(n - 1) or g0p.order() > m - 1:
        raise AssertionError("steps 7-8: top coefficient of g is not reduced")
    if g0p:
        h9 = antidiff_square(g0p * (-sgn_m), m - 1)
        state.move(u0 * h9 * (-2), h9, zero)
    if state.f.order() > n - 2 or state.g.order() > n - 2:
        raise AssertionError("step 9 did not lower the order")


def quasi_step(pair: CocyclePair):
    """One reduction of Theorem-style order n = 2m > 4 to order n - 2.

    Returns (a, b, c, new_pair): the three densities of the combined move and
    the reduced pair, whose S-system is re-verified.
    """
    n = pair.n
    if n % 2 or n <= 4:
        raise AlgebraError("the reduction step needs even order n = 2m > 4")
    if not pair.verify():
        raise AlgebraError("pair does not satisfy the cocycle equation")
    state = _MoveState(pair.f.to_hat(), pair.g.to_hat())
    _one_reduction(state, n)
    new_pair = CocyclePair(state.f, state.g, n - 2, pair.ell)
    if not new_pair.verify():
        raise AssertionError("reduced pair lost the cocycle equation")
    return state.a, state.b, state.c, new_pair


# ---------------------------------------------------------------------------
# Quasi-trivialization
# ---------------------------------------------------------------------------

@dataclass
class NontrivialAtDegreeZero:
    """Marker result: degree-0 tail classes s(u) theta theta_1 with
    nonconstant s are not quasi-trivial."""

    cocycle: MultiVector

    def __bool__(self):
        return False


def _characteristic(Y: MultiVector) -> SuperPolynomial:
    """The characteristic f of a vector-field class with canonical
    representative f theta."""
    return Y.rep.partial_theta(0)


def _tail_degree(c1: MultiVector, ell: int | None) -> int:
    """The degree ell0 of a nonzero tail class c1, homogeneous of degree
    ell0 + 1 >= 1, checked against a declared degree ell."""
    deg = c1.homogeneity()
    if deg is None or deg < 1:
        raise AlgebraError("tail class must be homogeneous of degree ell + 1 >= 1")
    ell0 = deg - 1
    if ell is not None and ell != ell0:
        raise AlgebraError(f"declared degree {ell} but the class is in degree {ell0}")
    return ell0


def quasi_trivialize(c, ell: int | None = None):
    """Quasi-triviality witness for a tail cocycle (0, c1) of the pencil.

    For homogeneity degree ell >= 1 returns the vector field b0 (with
    u_1-inverses allowed) satisfying d_P b0 = 0 and d_Q b0 = c1, both
    re-verified exactly before returning.  At degree 0 only the constant
    multiples of theta theta_1 are trivial; anything else yields
    NontrivialAtDegreeZero.
    """
    pencil = dkdv_pencil()
    if isinstance(c, Cochain):
        if len(c.entries) != 2 or not c[0].is_zero():
            raise AlgebraError("expected a tail cochain (0, c1); reduce_to_tail first")
        c1 = c[1]
    elif isinstance(c, MultiVector):
        c1 = c
    else:
        raise AlgebraError("expected a cochain or bivector class")
    if not pencil.d_P(c1).is_zero() or not pencil.d_Q(c1).is_zero():
        raise AlgebraError("(0, c1) is not a cocycle of the double complex")
    if c1.is_zero():
        return EvolutionaryVF(SuperPolynomial.zero(1, True))
    ell0 = _tail_degree(c1, ell)

    if ell0 == 0:
        # the only trivial degree-0 classes are constant multiples of
        # theta theta_1 = d_Q(-2 int theta dx)
        rep = c1.rep
        key = ((), ((1, 0), (1, 1)))
        lam = rep.terms.get(key)
        if lam is not None and len(rep.terms) == 1:
            w = EvolutionaryVF(SuperPolynomial.const(-2 * lam, 1, True))
            _verify_witness(w, c1, pencil)
            return w
        return NontrivialAtDegreeZero(c1)

    sl = GradedSlice(max_order=max(ell0, 2), max_udeg=8)
    Y = primitive_solve(c1, pencil.P, sl)
    g = _characteristic(Y)
    rhs = pencil.d_Q(Y)
    X = primitive_solve(rhs, pencil.P, sl)
    f = _characteristic(X)
    return _trivialize_pair(f, g, ell0, c1, pencil)


def quasi_trivialize_from_generator(g: SuperPolynomial, ell: int | None = None,
                                    max_udeg: int | None = None):
    """Witness for the tail class c1 = d_P int(g theta) dx; returns (b0, c1).

    The partner characteristic f with d_P int(f theta) = d_Q int(g theta) is
    produced by the primitive solver.  g must be even (theta-degree 0).
    """
    k = g.theta_degree()
    if g and k != 0:
        raise AlgebraError(f"g must have theta-degree 0, got {'mixed' if k is None else k}")
    pencil = dkdv_pencil()
    gmv = canonical_class((g * SuperPolynomial.theta(0, q=g.q, hat=g.hat)))
    c1 = pencil.d_P(gmv)
    if c1.is_zero():
        return EvolutionaryVF(SuperPolynomial.zero(1, True)), c1
    ell0 = _tail_degree(c1, ell)
    if ell0 == 0:
        return quasi_trivialize(c1), c1
    if not pencil.d_Q(c1).is_zero():
        raise AlgebraError("d_P int(g theta) is not d_Q-closed: g is not admissible")
    rhs = pencil.d_Q(gmv)
    udeg = max(8, g.max_u_power() + 3) if max_udeg is None else max_udeg
    sl = GradedSlice(max_order=max(ell0, g.order(), 2), max_udeg=udeg)
    X = primitive_solve(rhs, pencil.P, sl)
    f = _characteristic(X)
    return _trivialize_pair(f, g, ell0, c1, pencil), c1


def _trivialize_pair(f, g, ell0, c1, pencil):
    f = f.to_hat()
    g = g.to_hat()
    state = _MoveState(f, g)
    n = max(state.f.order(), state.g.order())
    pair = CocyclePair(state.f, state.g, max(n, 1), ell0)
    if not pair.verify():
        raise AssertionError("pair fails the cocycle equation before reduction")
    while n > 2:
        N = n if n % 2 == 0 else n + 1
        _one_reduction(state, N)
        n = N - 2
        if not CocyclePair(state.f, state.g, max(n, 1), ell0).verify():
            raise AssertionError("reduction lost the cocycle equation")

    if ell0 == 1:
        raise AssertionError("nonzero tail cocycle in degree 1 cannot exist")

    if ell0 == 2:
        u0 = SuperPolynomial.u(0, hat=True)
        u1 = SuperPolynomial.u(1, hat=True)
        u2 = SuperPolynomial.u(2, hat=True)
        if (state.f - u0 * state.g).partial_u(2):
            raise AssertionError("degree-2 endgame: f - u g still has u_2")
        p = state.g.partial_u(2)
        if p.order() != 0:
            raise AssertionError("degree-2 endgame: d_2 g is not a function of u")
        if state.g != u2 * p + u1 * u1 * p.partial_u(0):
            raise AssertionError("degree-2 endgame: g is not d(u_1 p(u))")
        if state.f != u0 * state.g + u1 * u1 * p:
            raise AssertionError("degree-2 endgame: f is not u g + u_1^2 p(u)")
        h = _antidiff_u(p, 0)[0] * Fraction(2, 3)
        carrier = state.c + u2 * SuperPolynomial.u(1, power=-1, hat=True) * h
        witness = _flow(carrier)
        _verify_witness(witness, c1, pencil)
        return witness

    # ell0 > 2: one more top-layer removal at order 2 lands at order <= 1,
    # where the constraint system forces the pair to vanish identically
    _one_reduction(state, 2, last_step=3)
    if state.f.order() > 1 or state.g.order() > 1:
        raise AssertionError("order-2 reduction failed")
    if state.f or state.g:
        raise AssertionError("pair did not vanish at order 1: not a cocycle")
    witness = _flow(state.c)
    _verify_witness(witness, c1, pencil)
    return witness


def _verify_witness(b0: EvolutionaryVF, c1: MultiVector, pencil: Pencil):
    cls = b0.as_class()
    if not pencil.d_P(cls).is_zero():
        raise AssertionError("witness is not d_P-closed")
    if pencil.d_Q(cls) != c1.to_hat():
        raise AssertionError("witness does not map to the cocycle under d_Q")


# ---------------------------------------------------------------------------
# The quasi-Miura seed of the KdV equation
# ---------------------------------------------------------------------------

def psi_density() -> SuperPolynomial:
    """psi = -(u_3/u_1 - u_2^2/u_1^2)/2, the second-order correction of the
    coordinate change taking dispersionless KdV to KdV."""
    u1i = SuperPolynomial.u(1, power=-1, hat=True)
    u2 = SuperPolynomial.u(2, hat=True)
    u3 = SuperPolynomial.u(3, hat=True)
    return (u3 * u1i - u2 * u2 * u1i * u1i) * Fraction(-1, 2)


def psi_residual(psi: SuperPolynomial | None = None, source: int = 1) -> SuperPolynomial:
    """D_t psi - u d(psi) - u_1 psi + source * u_3 along the flow u_t = u u_1."""
    if psi is None:
        psi = psi_density()
    u0 = SuperPolynomial.u(0, hat=True)
    u1 = SuperPolynomial.u(1, hat=True)
    u3 = SuperPolynomial.u(3, hat=True)
    Dt = EvolutionaryVF(u0 * u1)
    return Dt.apply(psi) - u0 * psi.total_derivative() - u1 * psi + u3 * source


def psi_check(psi: SuperPolynomial | None = None, source: int = 1) -> bool:
    """Exact check of the transfer identity for the quasi-Miura seed.

    With psi = -(1/2) d^2 log u_1 the identity D_t psi = u d(psi) + u_1 psi
    - u_3 holds exactly; this is the coefficient equation for the coordinate
    change carrying the dispersive variable to the dispersionless one, and
    it is sign-sensitive in both psi and the u_3 source term.
    """
    return psi_residual(psi, source).is_zero()
