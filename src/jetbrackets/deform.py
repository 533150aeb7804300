"""Deformation calculus for Hamiltonian and bihamiltonian structures.

Epsilon-expansions of bivectors with their Maurer-Cartan residuals and
obstruction cocycles, the double complex of a compatible pair, Miura and
quasi-Miura pushforwards, and a constructive primitive solver: acyclicity of
d_H on the positive-degree graded pieces is realized by enumerating a finite
monomial slice, building d_H on it as a sparse exact rational matrix and
solving with one reduced-row-echelon kernel.  The d_H images of the last
slice are kept, so the Y and X solves of a quasi-trivialization, which share
H, slice and grading, build the system once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import AlgebraError, SuperPolynomial
from .schouten import Pencil, _in_algebra_of, schouten_bracket
from .variational import EvolutionaryVF, MultiVector, canonical_class


class NoSolution(AlgebraError):
    """The linear problem has no solution in the given slice."""


class MCViolation(AlgebraError):
    """The epsilon-series fails the Maurer-Cartan equation at some order."""


class EpsilonDeformation:
    """base + sum_k eps^k H_k, truncated; all entries theta-degree-2 classes."""

    def __init__(self, base: MultiVector, corrections=(), truncation=None):
        if base.theta_degree != 2:
            raise AlgebraError("deformations are built from bivectors")
        self.base = base
        self.corrections = list(corrections)
        for H in self.corrections:
            if not H.is_zero() and H.theta_degree != 2:
                raise AlgebraError("corrections must be bivectors")
        self.truncation = len(self.corrections) if truncation is None else truncation
        while len(self.corrections) < self.truncation:
            self.corrections.append(self._zero())

    def _zero(self) -> MultiVector:
        return MultiVector(SuperPolynomial.zero(self.base.q, self.base.hat), 2)

    def term(self, k: int) -> MultiVector:
        """Coefficient of eps^k (the base at k = 0, zero beyond truncation)."""
        if k == 0:
            return self.base
        if 1 <= k <= len(self.corrections):
            return self.corrections[k - 1]
        return self._zero()

    def to_hat(self) -> "EpsilonDeformation":
        return EpsilonDeformation(self.base.to_hat(),
                                  [H.to_hat() for H in self.corrections],
                                  self.truncation)

    def __eq__(self, other):
        if not isinstance(other, EpsilonDeformation):
            return NotImplemented
        n = max(self.truncation, other.truncation)
        return all(self.term(k) == other.term(k) for k in range(n + 1))

    def __repr__(self):
        return (f"EpsilonDeformation(base={self.base!r}, "
                f"corrections={self.corrections!r}, N={self.truncation})")


def mc_residual(D: EpsilonDeformation, up_to: int | None = None):
    """Coefficients of eps^k, 1 <= k <= up_to, in (1/2)[[H, H]].

    The coefficient is [[H_0, H_k]] + (1/2) sum_{i=1}^{k-1} [[H_i, H_{k-i}]];
    corrections beyond the truncation are zero.
    """
    n = D.truncation if up_to is None else up_to
    out = []
    for k in range(1, n + 1):
        acc = schouten_bracket(D.term(0), D.term(k))
        inner = MultiVector(SuperPolynomial.zero(D.base.q, D.base.hat), 3)
        for i in range(1, k):
            inner = inner + schouten_bracket(D.term(i), D.term(k - i))
        out.append(acc + inner.scale(Fraction(1, 2)))
    return out


def is_order_n_deformation(D: EpsilonDeformation, n: int) -> bool:
    return all(r.is_zero() for r in mc_residual(D, n))


def obstruction(D: EpsilonDeformation, n: int) -> MultiVector:
    """The obstruction cocycle sum_{i=1}^{n} [[H_i, H_{n-i+1}]] blocking the
    extension of an order-n deformation; always closed for the base."""
    if not is_order_n_deformation(D, n):
        raise MCViolation(f"not a deformation of order {n}")
    acc = MultiVector(SuperPolynomial.zero(D.base.q, D.base.hat), 3)
    for i in range(1, n + 1):
        acc = acc + schouten_bracket(D.term(i), D.term(n - i + 1))
    closure = schouten_bracket(D.term(0), acc)
    if not closure.is_zero():
        raise AssertionError("obstruction cocycle is not closed: internal error")
    return acc


# ---------------------------------------------------------------------------
# The double complex of a compatible pair
# ---------------------------------------------------------------------------

class Cochain:
    """A tuple (c_0, ..., c_k) of multivectors of equal theta-degree."""

    def __init__(self, entries):
        self.entries = tuple(entries)
        degs = {c.theta_degree for c in self.entries if not c.is_zero()}
        if len(degs) > 1:
            raise AlgebraError("cochain entries must share their theta-degree")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return len(self.entries) == len(other.entries) and all(
            a == b for a, b in zip(self.entries, other.entries))

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"Cochain({', '.join(repr(c) for c in self.entries)})"


def bicomplex_d(c: Cochain, pencil: Pencil) -> Cochain:
    """(c_0,...,c_k) -> (d_P c_0, d_Q c_0 + d_P c_1, ..., d_Q c_k)."""
    if not pencil.certified:
        raise AlgebraError("the ambient pencil must be certified")
    out = [pencil.d_P(c[0])]
    for i in range(1, len(c)):
        out.append(pencil.d_Q(c[i - 1]) + pencil.d_P(c[i]))
    out.append(pencil.d_Q(c[len(c) - 1]))
    return Cochain(out)


def is_cocycle(c: Cochain, pencil: Pencil) -> bool:
    return bicomplex_d(c, pencil).is_zero()


def biham_obstruction(P1: EpsilonDeformation, Q1: EpsilonDeformation,
                      pencil: Pencil) -> Cochain:
    """First obstruction ((1/2)[[P1,P1]], [[P1,Q1]], (1/2)[[Q1,Q1]]) of a
    first-order compatible deformation pair; asserts its d-closure."""
    p1, q1 = P1.term(1), Q1.term(1)
    lin = bicomplex_d(Cochain([p1, q1]), pencil)
    if not lin.is_zero():
        raise MCViolation("pair is not compatible to first order")
    triple = Cochain([
        schouten_bracket(p1, p1).scale(Fraction(1, 2)),
        schouten_bracket(p1, q1),
        schouten_bracket(q1, q1).scale(Fraction(1, 2)),
    ])
    if not bicomplex_d(triple, pencil).is_zero():
        raise AssertionError("bihamiltonian obstruction is not closed: internal error")
    return triple


# ---------------------------------------------------------------------------
# Miura pushforward
# ---------------------------------------------------------------------------

def miura_push(D: EpsilonDeformation, X, weight: int = 1,
               truncation: int | None = None) -> EpsilonDeformation:
    """exp(-eps^p ad_X) applied to the series, truncated at eps^N.

    X is a vector field (class of theta-degree 1 or an EvolutionaryVF); hat
    characteristics give quasi-Miura transformations.
    """
    if weight < 1:
        raise AlgebraError(f"Miura weight must be at least 1, got {weight}")
    if isinstance(X, EvolutionaryVF):
        X = X.as_class()
    if X.theta_degree != 1:
        raise AlgebraError("Miura generators are vector fields")
    N = D.truncation if truncation is None else truncation
    if X.hat and not D.base.hat:
        D = D.to_hat()
    if D.base.hat and not X.hat:
        X = X.to_hat()
    p = weight
    out = [MultiVector(SuperPolynomial.zero(D.base.q, D.base.hat), 2)
           for _ in range(N + 1)]
    for k in range(0, N + 1):
        H = D.term(k)
        if H.is_zero():
            continue
        m = 0
        cur = H
        fact = Fraction(1)
        while k + m * p <= N:
            out[k + m * p] = out[k + m * p] + cur.scale(fact * (-1) ** m)
            m += 1
            if k + m * p > N:
                break
            cur = schouten_bracket(X, cur)
            fact = fact / m
    return EpsilonDeformation(out[0], out[1:], N)


# ---------------------------------------------------------------------------
# Graded slices and the primitive solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedSlice:
    """A finite-dimensional space of densities: fixed theta-degree and
    homogeneity, capped order, capped power of the undifferentiated u, capped
    Laurent depth in u_1 (hat mode)."""

    max_order: int = 4
    max_udeg: int = 4
    laurent_depth: int = 0

    def grown(self) -> "GradedSlice":
        return replace(self, max_order=self.max_order + 2,
                       max_udeg=self.max_udeg * 2 + 2,
                       laurent_depth=self.laurent_depth * 2 + 2
                       if self.laurent_depth else 0)


def enumerate_basis(slice_: GradedSlice, theta_degree: int, degree: int,
                    q: int = 1, hat: bool = False):
    """All normal-form monomials of the given theta-degree and homogeneity
    degree within the slice caps.  q = 1 only (the graded solver's domain)."""
    if q != 1:
        raise AlgebraError("graded slices are implemented for q = 1")
    n = slice_.max_order
    depth = slice_.laurent_depth if hat else 0
    out = []
    for odd in itertools.combinations(range(0, n + 1), theta_degree):
        rem = degree - sum(odd)
        # even exponents: e_k for k >= 2 with sum k e_k <= rem + depth,
        # e_1 := rem - sum, e_0 free up to the cap
        for evens in _even_parts(rem + depth, 2, n):
            e1 = rem - sum(k * e for k, e in evens)
            if e1 < -depth or (not hat and e1 < 0):
                continue
            for e0 in range(slice_.max_udeg + 1):
                even = []
                if e0:
                    even.append(((1, 0), e0))
                if e1:
                    even.append(((1, 1), e1))
                even.extend((((1, k), e) for k, e in evens))
                key = (tuple(sorted(even)), tuple((1, j) for j in odd))
                out.append(SuperPolynomial({key: Fraction(1)}, 1, hat))
    return out


def _even_parts(budget: int, kmin: int, kmax: int):
    """Exponent patterns [(k, e_k)] with k in [kmin, kmax], e_k >= 1 and
    sum k e_k <= budget."""
    if budget < kmin or kmin > kmax:
        yield []
        return
    for rest in _even_parts(budget, kmin + 1, kmax):
        used = sum(k * e for k, e in rest)
        yield rest
        e = 1
        while kmin * e + used <= budget:
            yield [(kmin, e)] + rest
            e += 1


class SparseMatrix:
    """An exact rational matrix as sparse rows {column: Fraction}.

    Rows are keyed by any hashable label (a monomial, say) so that a right-hand
    side can be given in the same labels.  Both operations reduce a copy of the
    rows to reduced row echelon form with the pivot columns taken in column
    order; that form is unique, so the solution of ``solve`` and the vectors
    of ``kernel`` do not depend on row order or on the choice of pivot rows.
    """

    def __init__(self, rows: dict, ncols: int):
        self.rows = rows
        self.ncols = ncols

    def solve(self, rhs: dict):
        """A solution of M x = rhs as a dense list, free variables set to 0,
        or None when the system is inconsistent."""
        if any(v and key not in self.rows for key, v in rhs.items()):
            return None
        n = self.ncols
        rows = []
        for key, row in self.rows.items():
            row = dict(row)
            b = rhs.get(key)
            if b:
                row[n] = b
            rows.append(row)
        pivots = _rref(rows, n)
        pivot_rows = set(pivots.values())
        if any(rows[i] for i in range(len(rows)) if i not in pivot_rows):
            return None
        sol = [Fraction(0)] * n
        for col, i in pivots.items():
            sol[col] = rows[i].get(n, Fraction(0))
        return sol

    def kernel(self):
        """Basis of the kernel, one dense vector per free column in column
        order, with that column at 1."""
        n = self.ncols
        rows = [dict(row) for row in self.rows.values()]
        pivots = _rref(rows, n)
        basis = []
        for fc in range(n):
            if fc in pivots:
                continue
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for col, i in pivots.items():
                x = rows[i].get(fc)
                if x:
                    v[col] = -x
            basis.append(v)
        return basis


def _rref(rows, ncols):
    """Reduce the sparse rows in place to reduced row echelon form.

    Pivots are taken only in columns < ncols, in column order; entries at
    ncols and beyond (an augmented right-hand side) are carried along.  The
    pivot row of a column is the shortest candidate, which keeps fill-in low.
    Returns {pivot column: row index}, in column order.
    """
    where: dict = {}
    for i, row in enumerate(rows):
        for col in row:
            where.setdefault(col, set()).add(i)
    pivots = {}
    used = set()
    for col in range(ncols):
        hits = where.get(col)
        if not hits:
            continue
        cands = [i for i in hits if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        inv = Fraction(1) / prow[col]
        if inv != 1:
            for c in prow:
                prow[c] *= inv
        for i in list(hits):
            if i == p:
                continue
            row = rows[i]
            f = row[col]
            for c, x in prow.items():
                y = row.get(c)
                if y is None:
                    row[c] = -f * x
                    where.setdefault(c, set()).add(i)
                else:
                    y -= f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(i)
        pivots[col] = p
        used.add(p)
    return pivots


def slice_matrix(columns, maps) -> SparseMatrix:
    """The matrix of the linear maps on a slice: entry ((k, m), j) is the
    coefficient of the monomial m in maps[k](columns[j])."""
    rows: dict = {}
    for j, x in enumerate(columns):
        for k, f in enumerate(maps):
            for mn, v in f(x).rep.terms.items():
                if v:
                    rows.setdefault((k, mn), {})[j] = v
    return SparseMatrix(rows, len(columns))


def linear_combination(vector, basis) -> SuperPolynomial:
    """sum_j vector[j] basis[j] over a nonempty basis, in column order."""
    out = SuperPolynomial.zero(basis[0].q, basis[0].hat)
    for x, b in zip(vector, basis):
        if x:
            out = out + b * x
    return out


# The last slice system of primitive_solve: (key, basis, matrix).  One entry,
# because the Y and X solves of quasi_trivialize share H, slice and grading
# back to back; holding more would only keep dead systems alive.
_LAST_SYSTEM = None


def _primitive_system(H: MultiVector, s: GradedSlice, t: int, deg: int, q: int, hat: bool):
    """Basis of the slice and the sparse matrix of d_H on it, reusing the
    previous call's images when the key matches."""
    global _LAST_SYSTEM
    key = (H, s, t, deg, hat)
    last = _LAST_SYSTEM
    if last is not None and last[0] == key:
        return last[1], last[2]
    basis = enumerate_basis(s, t, deg, q, hat)
    matrix = slice_matrix([canonical_class(b) for b in basis],
                           [lambda X: schouten_bracket(H, X)])
    _LAST_SYSTEM = (key, basis, matrix)
    return basis, matrix


def primitive_solve(c: MultiVector, H: MultiVector, slice_: GradedSlice,
                    max_grows: int = 2) -> MultiVector:
    """Solve d_H y = c for y in the slice; exact, deterministic, growing the
    slice a bounded number of times before reporting NoSolution."""
    Huse = _in_algebra_of(H, c)
    if not schouten_bracket(Huse, c).is_zero():
        raise AlgebraError("primitive_solve needs a d_H-closed input")
    if c.is_zero():
        return MultiVector(SuperPolynomial.zero(c.q, c.hat), max(c.theta_degree - 1, 0))
    t = c.theta_degree - 1
    deg = c.homogeneity()
    if deg is None:
        raise AlgebraError("primitive_solve needs homogeneous input")
    rhs = {(0, mn): v for mn, v in c.rep.terms.items()}
    s = slice_
    for _ in range(max_grows + 1):
        basis, matrix = _primitive_system(Huse, s, t, deg - 1, c.q, c.hat)
        if basis:
            sol = matrix.solve(rhs)
            if sol is not None:
                y = canonical_class(linear_combination(sol, basis))
                if schouten_bracket(Huse, y) != c:
                    raise AssertionError("primitive_solve verification failed")
                return y
        s = s.grown()
    raise NoSolution(
        f"no primitive in slices up to {s}: enlarge the slice or the class is not exact")


def reduce_to_tail(c: Cochain, pencil: Pencil, slice_: GradedSlice):
    """Cohomologous cochain (0, ..., 0, tail) plus the chain used.

    Subtracts d(a_i, 0, ..., 0) repeatedly, where d_P a_i kills the leading
    entry; requires acyclicity of d_P in the slice degrees.
    """
    entries = list(c.entries)
    chain = []
    for i in range(len(entries) - 1):
        lead = entries[i]
        if lead.is_zero():
            chain.append(MultiVector(
                SuperPolynomial.zero(lead.q, lead.hat),
                max(lead.theta_degree - 1, 0)))
            continue
        a = primitive_solve(lead, pencil.P, slice_)
        chain.append(a)
        entries[i] = lead - pencil.d_P(a)
        if not entries[i].is_zero():
            raise AssertionError("reduce_to_tail failed to clear an entry")
        entries[i + 1] = entries[i + 1] - pencil.d_Q(a)
    return Cochain(entries), chain


def homogenize(D: EpsilonDeformation, p: int, slice_: GradedSlice) -> EpsilonDeformation:
    """Equivalent deformation with the eps^k term homogeneous of degree kp+1.

    The first correction must already be homogeneous of degree p+1; stray
    components of later corrections are removed by Miura transformations
    generated by primitives of d_base.
    """
    H1 = D.term(1)
    if not H1.is_zero() and H1.homogeneity() != p + 1:
        raise AlgebraError("first correction is not homogeneous of degree p+1")
    N = D.truncation
    cur = D
    for k in range(2, N + 1):
        target = k * p + 1
        comps = cur.term(k).rep.homogeneous_components()
        stray_degs = [d for d in comps if d != target]
        for d in stray_degs:
            if d - 1 <= 0:
                raise NoSolution("stray component outside the acyclic range")
            stray = canonical_class(comps[d])
            I_k = primitive_solve(stray.scale(-1), D.base, slice_)
            cur = miura_push(cur, I_k, k, N)
        comps = cur.term(k).rep.homogeneous_components()
        if any(d != target for d in comps):
            raise AssertionError("homogenization failed to clean a correction")
    return cur
