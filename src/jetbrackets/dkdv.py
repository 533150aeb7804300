"""Deformation theory of the dispersionless KdV pencil (d, u d + u_1/2).

The pencil itself, `dkdv_pencil`, and its second operator
`dkdv_q_operator` are defined in `schouten`; `dkdv_pencil` is re-exported
here.

Hierarchy generation by the functional recursion from the Casimir (every
H_n is c_n u^(n+2), so delta_u H_n lifts to H_n by an antiderivative in u),
the infinitesimal-symmetry checks, the e/S/E systems attached to a pair of
characteristics (the e_j from their defining sums in the ring, every d^i e_j
computed once), the order-lowering reduction step, and the full
quasi-trivialization of tail cocycles: every positive-degree infinitesimal
bihamiltonian deformation is trivialized by a vector field with u_1-inverse
coefficients, produced here explicitly; its exact check is the proof.  Its
d_P primitives come from the contracting homotopy of d_P (Getzler, 2002).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._koszul import _contract, _koszul_dP
from ._records import Record
from .algebra import (
    AlgebraError,
    SuperPolynomial,
    _antidiff_u,
    _check_density,
    _check_size,
    _jet,
    _theta_times,
)
from .deform import (
    Cochain,
    GradedSlice,
    NoSolution,
    _solve_in_slices,
    enumerate_basis,
    linear_combination,
    slice_matrix,
)
from .schouten import Pencil, dkdv_pencil, dkdv_q_operator
from .variational import (
    EvolutionaryVF,
    MultiVector,
    NotExact,
    antidiff_square,
    canonical_class,
    higher_variational_u,
    integrate_x,
)

# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------

def hierarchy(N: int):
    """Hamiltonians H_{-1}, ..., H_N of the dispersionless KdV hierarchy,
    recursively from the Casimir (4/3) int u dx."""
    _check_size(N, "N", None)
    if N < 0:
        raise AlgebraError("N must be nonnegative")
    Qop = dkdv_q_operator()
    out = [canonical_class(SuperPolynomial.u(0) * Fraction(4, 3))]
    for _n in range(0, N + 1):
        new_delta = integrate_x(Qop.apply(out[-1]._delta_u()))
        lift = _antidiff_u(new_delta, 0)[0]
        if higher_variational_u(lift) != new_delta:
            raise AssertionError("hierarchy lift failed")
        out.append(canonical_class(lift))
    return out


def hierarchy_flow(H: MultiVector) -> EvolutionaryVF:
    """The evolutionary field d u/dt = d(delta_u H) of a Hamiltonian."""
    return EvolutionaryVF(H._delta_u().total_derivative())


def _flow(w: SuperPolynomial) -> EvolutionaryVF:
    """The vector field d_P int(w) dx, with characteristic d(delta_u w)."""
    return EvolutionaryVF(higher_variational_u(w).total_derivative())


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
    # b theta is a key shift: every characteristic is theta-free
    matrix, _ = slice_matrix([_theta_times(b, 1) for b in chars], [pencil.P, pencil.Q])
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
    e = _e_data(f, g, n)
    de = [_jet(ej, j) for j, ej in enumerate(e)]
    return e, _s_system(de, n), _e_system(de, n) if n % 2 == 0 else None


def _e_data(f: SuperPolynomial, g: SuperPolynomial, n: int):
    """e_j = F_j - G_j, j = 0..n (see build_eSE), with
    2 G_j = sum_{i=j..n} (C(i, j) + C(i+1, i-j)) u_{i-j} partial_{u_i} g - [j = 0] g."""
    _check_density(f)
    _check_density(g)
    _check_size(n, "order")
    if f.order() > n or g.order() > n:
        raise AlgebraError("pair has order larger than declared")
    dg = [g.partial_u(i) for i in range(n + 1)]
    e = []
    for j in range(n + 1):
        G2 = -g if j == 0 else SuperPolynomial()
        for i in range(j, n + 1):
            if dg[i]:
                G2 = G2 + SuperPolynomial.u(i - j) * dg[i] * (comb(i, j) + comb(i + 1, i - j))
        e.append(f.partial_u(j) - G2 * Fraction(1, 2))
    return e


def _s_system(de, n: int):
    """S_k = e_k + sum_{j=k..n} (-1)^j C(j+1, k+1) d^(j-k) e_j, k = 0..n,
    from the prolongations de[j][i] = d^i e_j, i <= j."""
    S = []
    for k in range(n + 1):
        Sk = de[k][0]
        for j in range(k, n + 1):
            t = de[j][j - k] * comb(j + 1, k + 1)
            Sk = Sk + (-t if j & 1 else t)
        S.append(Sk)
    return S


def _e_system(de, n: int):
    """E_l = sum_{j=2l..m+l} (-1)^j C(2m-j, m-l) C(j+1, 2l+1) d^(j-2l) e_j,
    l = 0..m, for n = 2m, from the prolongations of _s_system."""
    m = n // 2
    E = []
    for l in range(m + 1):
        El = SuperPolynomial()
        for j in range(2 * l, m + l + 1):
            t = de[j][j - 2 * l] * (comb(2 * m - j, m - l) * comb(j + 1, 2 * l + 1))
            El = El + (-t if j & 1 else t)
        E.append(El)
    return E


def verify_SE_equivalence(e, n: int) -> bool:
    """Check the packed identity expressing S_k through the E_l for the
    given e-data (n even); missing entries e_j, j <= n, count as zero."""
    _check_size(n, "order")
    if n % 2:
        raise AlgebraError("the packed E-system is defined for even n only")
    m = n // 2
    e = list(e) + [SuperPolynomial()] * (n + 1 - len(e))
    de = [_jet(ej, j) for j, ej in enumerate(e)]
    E = _e_system(de, n)
    dE = [_jet(El, 2 * l) for l, El in enumerate(E)]
    for k, Sk in enumerate(_s_system(de, n)):
        if k == n:
            rhs = E[m] * 2
        else:
            rhs = SuperPolynomial()
            for l in range(m + 1):
                num = comb(2 * l + 1, k + 1)
                if num == 0:
                    continue
                # num != 0 gives k <= 2l; with k < 2m that is k < m + l, so the
                # denominator C(2m-k-1, m-l) is nonzero
                rhs = rhs + dE[l][2 * l - k] * Fraction(num, comb(2 * m - k - 1, m - l))
        if Sk != rhs:
            return False
    return True


def binomial_identity_check(alpha: int, beta: int) -> bool:
    """sum_p C(alpha+1, beta-2p) C(alpha+p, p) = C(alpha+beta, beta)."""
    _check_size(alpha, "alpha", None)
    _check_size(beta, "beta", None)
    if alpha < 0 or beta < 0:
        raise AlgebraError("nonnegative arguments required")
    lhs = sum(comb(alpha + 1, beta - 2 * p) * comb(alpha + p, p)
              for p in range(beta // 2 + 1))
    return lhs == comb(alpha + beta, beta)


# ---------------------------------------------------------------------------
# The order-lowering step
# ---------------------------------------------------------------------------

class CocyclePair(Record):
    """Characteristics f, g of order <= n with d_P int(f theta) = d_Q int(g theta),
    equivalently with identically vanishing S-system."""

    _fields = ("f", "g", "n")

    def __init__(self, f: SuperPolynomial, g: SuperPolynomial, n: int):
        _check_density(f)
        _check_density(g)
        self.f = f
        self.g = g
        self.n = n

    def s_system(self):
        e = _e_data(self.f, self.g, self.n)
        return _s_system([_jet(ej, j) for j, ej in enumerate(e)], self.n)

    def verify(self) -> bool:
        return all(s.is_zero() for s in self.s_system())


class _MoveState:
    """Sequential application of the allowed pair modifications
    f += d delta_u(a) + K delta_u(b), g += -d delta_u(b) + K delta_u(c)."""

    def __init__(self, f, g):
        self.f = f
        self.g = g
        self.K = dkdv_q_operator()
        self.a = SuperPolynomial()
        self.b = SuperPolynomial()
        self.c = SuperPolynomial()

    def move(self, a, b, c):
        da = higher_variational_u(a)
        db = higher_variational_u(b)
        dc = higher_variational_u(c)
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
    u0 = SuperPolynomial.u(0)
    u1inv = SuperPolynomial.u(1, power=-1)
    zero = SuperPolynomial()

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
    state = _MoveState(pair.f, pair.g)
    _one_reduction(state, n)
    new_pair = CocyclePair(state.f, state.g, n - 2)
    if not new_pair.verify():
        raise AssertionError("reduced pair lost the cocycle equation")
    return state.a, state.b, state.c, new_pair


# ---------------------------------------------------------------------------
# Quasi-trivialization
# ---------------------------------------------------------------------------

class NontrivialAtDegreeZero(Record):
    """Marker result: polynomial degree-0 tail classes s(u) theta theta_1
    with nonconstant s are not quasi-trivial."""

    _fields = ("cocycle",)

    def __init__(self, cocycle: MultiVector):
        self.cocycle = cocycle

    def __bool__(self):
        return False


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
    u_1-inverses allowed) satisfying d_P b0 = 0 and d_Q b0 = c1, or raises
    NoSolution (undecided) for a Laurent class whose order reduction would
    need log u_1.  The exact check of both equations before returning is
    the proof, and it implies closure (d_P c1 = -d_Q d_P b0 = 0 and
    d_Q c1 = d_Q d_Q b0 = 0), so closure is bracketed only when no witness
    comes out, to refuse an unclosed c1 with its own message.  At degree 0
    closure is checked first: a polynomial class is trivial only as a
    constant multiple of theta theta_1, and anything else yields
    NontrivialAtDegreeZero; a Laurent class gets a witness from the joint
    d_P / d_Q system or raises NoSolution (see _degree_zero).
    """
    if ell is not None:
        _check_size(ell, "declared degree")
    pencil = dkdv_pencil()
    if isinstance(c, Cochain):
        if len(c.entries) != 2 or not c[0].is_zero():
            raise AlgebraError("expected a tail cochain (0, c1); reduce_to_tail first")
        c1 = c[1]
    elif isinstance(c, MultiVector):
        c1 = c
    else:
        raise AlgebraError("expected a cochain or bivector class")
    if c1.is_zero():
        return EvolutionaryVF(SuperPolynomial())
    return _witness(c1, ell, pencil, _check_closed)


def _witness(c1, ell, pencil, check, Y=None):
    """The witness for a nonzero tail class c1 = d_P Y (Y None: found by
    `_d_P_primitive`).  `check` refuses an unclosed c1 with the caller's
    message: first at degree 0, at ell0 >= 1 only when no witness comes out."""
    try:
        ell0 = _tail_degree(c1, ell)
        if ell0 > 0:
            if Y is None:
                Y = _d_P_primitive(c1)
            X = _d_P_primitive(pencil.d_Q(Y))
            return _trivialize_pair(X._delta_theta(), Y._delta_theta(), ell0, c1, pencil)
    except (AssertionError, AlgebraError):
        check(c1, pencil)
        raise
    check(c1, pencil)
    return _degree_zero(c1, pencil)


def _check_closed(c1: MultiVector, pencil: Pencil):
    if not pencil.d_P(c1).is_zero() or not pencil.d_Q(c1).is_zero():
        raise AlgebraError("(0, c1) is not a cocycle of the double complex")


def _d_P_primitive(c: MultiVector) -> MultiVector:
    """The class y with d_P y = c, c d_P-closed of homogeneity at least 2,
    through the homotopy K of D_P (`_koszul._contract`): with a = -rep(c),
    D_P a = d b for b = integrate_x(D_P a), and y = K(a - d(K b)) has D_P y
    = a - d(K b), so d_P y = -class(D_P y) = c.  Polynomial or Laurent, no
    monomial of degree 2 or more has weight 0."""
    a = -c.rep
    b = integrate_x(_koszul_dP(a))
    return canonical_class(_contract(a - _contract(b).total_derivative()))


def _degree_zero(c1: MultiVector, pencil: Pencil):
    """The witness of a degree-0 tail class, or NontrivialAtDegreeZero.

    A polynomial class is s(u) theta theta_1, trivial exactly when s is a
    constant lam, with theta theta_1 = d_Q(-2 int theta dx).  For a Laurent
    class that theorem does not apply: d_P b = 0, d_Q b = c1 is solved as one
    joint system on the Laurent slice of degree-0 vector fields, grown once;
    no solution there raises NoSolution (undecided), never "nontrivial".
    """
    rep = c1.rep
    if min(rep.coefficient_layers(1)) >= 0:
        lam = rep.partial_theta(0).partial_theta(1)
        if (lam.order() or lam.max_u_power()
                or rep != lam * SuperPolynomial.theta(0) * SuperPolynomial.theta(1)):
            return NontrivialAtDegreeZero(c1)
        w = EvolutionaryVF(lam * -2)
        _verify_witness(w, c1, pencil)
        return w
    sl = GradedSlice(max_order=max(2, rep.order()), max_udeg=max(2, rep.max_u_power()),
                     laurent_depth=2)
    # one growth only: the next slice takes tens of seconds (26 s for the
    # 6045 columns of g = u^2/2 + d(u_1^-1), Python 3.11, 2 cores)
    y = _solve_in_slices([pencil.P, pencil.Q], [MultiVector(SuperPolynomial(), 2), c1], sl, 1)
    return EvolutionaryVF(y._delta_theta())


def quasi_trivialize_from_generator(g: SuperPolynomial, ell: int | None = None):
    """Witness for the tail class c1 = d_P int(g theta) dx; returns (b0, c1).

    The partner characteristic f with d_P int(f theta) = d_Q int(g theta)
    comes from _d_P_primitive.  g must be even (theta-degree 0), and
    admissible: c1 is d_P-exact, so d_P c1 = 0, and d_Q c1 = 0 must hold.
    At degree ell0 >= 1 the verified witness implies d_Q c1 = 0, so that
    bracket is taken only when no witness comes out; at degree 0 it is
    taken first.
    """
    _check_density(g)
    if ell is not None:
        _check_size(ell, "declared degree")
    k = g.theta_degree()
    if g and k != 0:
        raise AlgebraError(f"g must have theta-degree 0, got {'mixed' if k is None else k}")
    pencil = dkdv_pencil()
    gmv = EvolutionaryVF(g).as_class()
    c1 = pencil.d_P(gmv)
    if c1.is_zero():
        return EvolutionaryVF(SuperPolynomial()), c1
    _tail_degree(c1, ell)  # an inhomogeneous or misdeclared c1 is refused before closure
    return _witness(c1, ell, pencil, _check_admissible, gmv), c1


def _check_admissible(c1: MultiVector, pencil: Pencil):
    if not pencil.d_Q(c1).is_zero():
        raise AlgebraError("d_P int(g theta) is not d_Q-closed: g is not admissible")


def _trivialize_pair(f, g, ell0, c1, pencil):
    """The witness for c1 from its cocycle pair (f, g), by order reduction.

    The pair's S-system is not evaluated: each step asserts its own
    structural outcome, and the exact check of d_P b0 = 0 and d_Q b0 = c1
    at the end is the proof (the tests re-verify the S-system after every
    step).  A reduction step whose antiderivative needs log u_1 raises
    NoSolution: the class is undecided, not shown to be nontrivial."""
    state = _MoveState(f, g)
    n = max(state.f.order(), state.g.order())
    try:
        while n > 2:
            N = n if n % 2 == 0 else n + 1
            _one_reduction(state, N)
            n = N - 2
        if ell0 > 2:
            # one more top-layer removal at order 2 lands at order <= 1
            _one_reduction(state, 2, last_step=3)
    except NotExact as exc:
        raise NoSolution(f"{exc}: the order reduction stops there, so the class "
                         "is undecided") from exc

    if ell0 == 1:
        raise AssertionError("nonzero tail cocycle in degree 1 cannot exist")

    if ell0 == 2:
        u0 = SuperPolynomial.u(0)
        u1 = SuperPolynomial.u(1)
        u2 = SuperPolynomial.u(2)
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
        carrier = state.c + u2 * SuperPolynomial.u(1, power=-1) * h
        witness = _flow(carrier)
        _verify_witness(witness, c1, pencil)
        return witness

    # ell0 > 2: at order <= 1 the constraint system forces the pair to
    # vanish identically
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
    if pencil.d_Q(cls) != c1:
        raise AssertionError("witness does not map to the cocycle under d_Q")


# ---------------------------------------------------------------------------
# The quasi-Miura seed of the KdV equation
# ---------------------------------------------------------------------------

def psi_density() -> SuperPolynomial:
    """psi = -(u_3/u_1 - u_2^2/u_1^2)/2, the second-order correction of the
    coordinate change taking dispersionless KdV to KdV."""
    u1i = SuperPolynomial.u(1, power=-1)
    u2 = SuperPolynomial.u(2)
    u3 = SuperPolynomial.u(3)
    return (u3 * u1i - u2 * u2 * u1i * u1i) * Fraction(-1, 2)


def psi_residual(psi: SuperPolynomial | None = None, source: int = 1) -> SuperPolynomial:
    """D_t psi - u d(psi) - u_1 psi + source * u_3 along the flow u_t = u u_1."""
    if psi is None:
        psi = psi_density()
    _check_density(psi)
    u0 = SuperPolynomial.u(0)
    u1 = SuperPolynomial.u(1)
    u3 = SuperPolynomial.u(3)
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
