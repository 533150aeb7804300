"""Deformation calculus for Hamiltonian and bihamiltonian structures.

Epsilon-expansions of bivectors with their Maurer-Cartan residuals and
obstruction cocycles, the double complex of a compatible pair, Miura and
quasi-Miura pushforwards, and a constructive primitive solver: acyclicity of
d_H on the positive-degree graded pieces is realized by enumerating a finite
monomial slice, building d_H on it as a sparse matrix and solving with one
fraction-free row-echelon kernel on primitive integer rows; its rational
results are formed only on return.  The d_H image of each slice monomial
is computed once per process and kept in a table shared by every slice
problem: the slices nest and the differentials are fixed, so a later
system, a grown slice or the next cocycle of the same degree reads its
images instead of recomputing a Schouten bracket per monomial.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from ._records import FrozenRecord
from .algebra import AlgebraError, SuperPolynomial, _check_size, _make, _numerators, _pack
from .schouten import Pencil, schouten_bracket
from .variational import EvolutionaryVF, MultiVector, canonical_class


class NoSolution(AlgebraError):
    """The linear problem has no solution in the given slice."""


class MCViolation(AlgebraError):
    """The epsilon-series fails the Maurer-Cartan equation at some order."""


class EpsilonDeformation:
    """base + sum_k eps^k H_k, truncated at eps^N; all entries theta-degree-2
    classes, or zero classes of any theta-degree (the zero operator's is of
    theta-degree 0).  corrections[k - 1] is H_k, and there are at most N of
    them."""

    def __init__(self, base: MultiVector, corrections=(), truncation=None):
        if not base.is_zero() and base.theta_degree != 2:
            raise AlgebraError("deformations are built from bivectors")
        self.base = base
        self.corrections = list(corrections)
        for H in self.corrections:
            if not H.is_zero() and H.theta_degree != 2:
                raise AlgebraError("corrections must be bivectors")
        self.truncation = len(self.corrections) if truncation is None else truncation
        _check_size(self.truncation, "truncation")
        if len(self.corrections) > self.truncation:
            raise AlgebraError(f"{len(self.corrections)} corrections exceed the "
                               f"truncation at order {self.truncation}")
        while len(self.corrections) < self.truncation:
            self.corrections.append(self._zero())

    def _zero(self) -> MultiVector:
        return MultiVector(SuperPolynomial(), 2)

    def term(self, k: int) -> MultiVector:
        """Coefficient of eps^k (the base at k = 0, zero beyond truncation)."""
        _check_size(k, "order")
        if k == 0:
            return self.base
        if 1 <= k <= len(self.corrections):
            return self.corrections[k - 1]
        return self._zero()

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
    corrections beyond the truncation are zero.  [[H_i, H_j]] = [[H_j, H_i]],
    so each pair {i, k-i} is bracketed once, and halved for i = k-i.  Only
    nonzero corrections are bracketed, so a sparse series costs time linear
    in up_to.
    """
    n = D.truncation if up_to is None else up_to
    _check_size(n, "order")
    orders = [k for k, H in enumerate(D.corrections[:n], 1) if not H.is_zero()]
    nonzero = set(orders)
    out = []
    for k in range(1, n + 1):
        acc = MultiVector(SuperPolynomial(), 3)
        if k in nonzero:
            acc = schouten_bracket(D.term(0), D.term(k))
        for i in orders:
            if 2 * i > k:
                break
            if k - i in nonzero:
                b = schouten_bracket(D.term(i), D.term(k - i))
                acc = acc + (b if 2 * i < k else b.scale(Fraction(1, 2)))
        out.append(acc)
    return out


def obstruction(D: EpsilonDeformation, n: int) -> MultiVector:
    """The obstruction cocycle sum_{i=1}^{n} [[H_i, H_{n-i+1}]] blocking the
    extension of an order-n deformation; always closed for the base."""
    _check_size(n, "truncation")
    cocycle = _residual_and_obstruction(D, n)[1]
    if cocycle is None:
        raise MCViolation(f"not a deformation of order {n}")
    return cocycle


def _residual_and_obstruction(D: EpsilonDeformation, n: int):
    """(mc_residual(D, n), the obstruction cocycle or None if D is not a
    deformation of order n), from one residual: the series cut at eps^n has
    no H_{n+1}, so its mc_residual to order n + 1 is the Maurer-Cartan
    residual of order n and then half the cocycle."""
    *residual, half = mc_residual(EpsilonDeformation(D.base, D.corrections[:n], n), n + 1)
    if not all(r.is_zero() for r in residual):
        return residual, None
    acc = half.scale(2)
    if not acc.is_zero() and not schouten_bracket(D.base, acc).is_zero():
        raise AssertionError("obstruction cocycle is not closed: internal error")
    return residual, acc


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
    if not len(c):
        raise AlgebraError("the cochain must have at least one entry")
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

    X is a vector field (class of theta-degree 1 or an EvolutionaryVF); a
    characteristic with u_1^-1 gives a quasi-Miura transformation, and X = 0
    the identity.  H_k adds the running term (-1)^m ad_X^m H_k / m! at
    eps^(k + m p) until the truncation or a zero term.
    """
    _check_size(weight, "Miura weight", 1)
    if isinstance(X, EvolutionaryVF):
        X = X.as_class()
    if X.theta_degree != 1 and not X.is_zero():
        raise AlgebraError("Miura generators are vector fields")
    N = D.truncation if truncation is None else truncation
    _check_size(N, "truncation")
    out = [MultiVector(SuperPolynomial(), 2) for _ in range(N + 1)]
    for k in range(N + 1):
        term = D.term(k)
        for m, j in enumerate(range(k, N + 1, weight)):
            if m:
                term = schouten_bracket(X, term).scale(Fraction(-1, m))
            if term.is_zero():
                break
            out[j] = out[j] + term
    return EpsilonDeformation(out[0], out[1:], N)


# ---------------------------------------------------------------------------
# Graded slices and the primitive solver
# ---------------------------------------------------------------------------

class GradedSlice(FrozenRecord):
    """A finite-dimensional space of densities: fixed theta-degree and
    homogeneity, capped order, capped power of the undifferentiated u, capped
    Laurent depth in u_1 (the largest admitted power of u_1^-1; 0 keeps the
    slice polynomial)."""

    __slots__ = ("max_order", "max_udeg", "laurent_depth")
    _fields = __slots__

    def __init__(self, max_order: int = 4, max_udeg: int = 4, laurent_depth: int = 0):
        super().__init__(max_order, max_udeg, laurent_depth)
        for name, v in zip(self._fields, self._astuple()):
            _check_size(v, f"GradedSlice {name}")

    def grown(self) -> "GradedSlice":
        return type(self)(max_order=self.max_order + 2,
                          max_udeg=self.max_udeg * 2 + 2,
                          laurent_depth=self.laurent_depth * 2 + 2
                          if self.laurent_depth else 0)


def enumerate_basis(slice_: GradedSlice, theta_degree: int, degree: int):
    """All normal-form monomials of the given theta-degree and homogeneity
    degree within the slice caps.  They are built in normal form, so they
    are packed and go through the private constructor."""
    _check_size(theta_degree, "theta-degree")
    _check_size(degree, "degree", None)
    n = slice_.max_order
    depth = slice_.laurent_depth
    out = []
    for odd in itertools.combinations(range(0, n + 1), theta_degree):
        rem = degree - sum(odd)
        odd_key = tuple((1, j) for j in odd)
        # even exponents: e_k for k >= 2 with sum k e_k <= rem + depth,
        # e_1 := rem - sum, e_0 free up to the cap
        for evens in _even_parts(rem + depth, 2, n):
            e1 = rem - sum(k * e for k, e in evens)
            if e1 < -depth or (e1 and n < 1):
                continue
            tail = ((((1, 1), e1),) if e1 else ()) + tuple(((1, k), e) for k, e in evens)
            for e0 in range(slice_.max_udeg + 1):
                even = ((((1, 0), e0),) + tail) if e0 else tail
                out.append(_make({_pack((even, odd_key)): 1}, 1))
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
    """An exact rational matrix as sparse rows {column: int or Fraction}.

    Rows are keyed by any hashable label (a monomial, say) so that a right-hand
    side can be given in the same labels.  The given rows are kept, not
    copied.  Each row is scaled to a primitive integer row (nonzero integer
    entries with gcd 1) only when an elimination takes it, and ``rows`` and
    ``scales`` show every row so scaled.  A row given as d times the row it
    stands for has the same kernel, and the same solutions once its
    right-hand side entry is multiplied by d; ``slice_matrix`` gives its
    rows so and returns each block's d.  Both operations run one
    fraction-free row-echelon elimination (``_echelon``) and convert to
    Fraction only in what they return.  Its pivot columns are those of the
    unique reduced row echelon form, so the solution of ``solve`` (free
    variables at 0) and the vectors of ``kernel`` do not depend on row order
    or on the choice of pivot rows.
    """

    def __init__(self, rows: dict, ncols: int):
        self._given = rows
        self.ncols = ncols

    @property
    def rows(self) -> dict:
        """label -> the primitive integer row, m/d times the given row."""
        return {key: _primitive(row)[0] for key, row in self._given.items()}

    @property
    def scales(self) -> dict:
        """label -> (m, d), for the rows whose m/d is not 1."""
        scaled = ((key, _primitive(row)[1:]) for key, row in self._given.items())
        return {key: md for key, md in scaled if md != (1, 1)}

    def solve(self, rhs: dict):
        """A solution of M x = rhs as a dense list, free variables set to 0,
        or None when the system is inconsistent.

        The right-hand side is column ncols of the eliminated rows, so a row
        that reduces to that entry alone is inconsistent.  The rows that the
        elimination did not take are checked in integers against the
        solution written as num / L."""
        given = self._given
        if any(v and key not in given for key, v in rhs.items()):
            return None
        n = self.ncols
        labels = list(given)

        def take(i):
            # the rational row | b, times m/d, is row | p/q in lowest terms,
            # so q row | p is a primitive integer row
            key = labels[i]
            row, m, d = _primitive(given[key])
            b = rhs.get(key)
            if b:
                p, q = b.numerator * m, b.denominator * d
                g = gcd(p, q)
                p, q = p // g, q // g
                if q != 1:
                    for c in row:
                        row[c] *= q
                row[n] = p
            return row

        order = _row_order(list(given.values()))
        pivots, taken = _echelon(order, take, n)
        if pivots is None:
            return None
        # the free variables are 0, so only pivot columns and b are reduced
        for row in pivots.values():
            for c in [c for c in row if c not in pivots and c != n]:
                del row[c]
        _back_substitute(pivots)
        sol = [Fraction(0)] * n
        for col, row in pivots.items():
            if n in row:
                sol[col] = Fraction(row[n], row[col])
        L = lcm(*(x.denominator for x in sol))
        num = [x.numerator * (L // x.denominator) for x in sol]
        done = set(order[:taken])
        for i in range(len(labels)):
            if i not in done:
                row = take(i)
                b = row.pop(n, 0)
                if sum(x * num[c] for c, x in row.items()) != b * L:
                    return None
        return sol

    def kernel(self):
        """Basis of the kernel, one dense vector per free column in column
        order, with that column at 1."""
        n = self.ncols
        given = list(self._given.values())
        pivots, _ = _echelon(_row_order(given), lambda i: _primitive(given[i])[0], n)
        if len(pivots) == n:
            return []
        _back_substitute(pivots)
        basis = []
        for fc in range(n):
            if fc in pivots:
                continue
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for col, row in pivots.items():
                if fc in row:
                    v[col] = -Fraction(row[fc], row[col])
            basis.append(v)
        return basis


def _primitive(row):
    """(ints, m, d): the rational row times m/d as a new primitive integer
    row with its zero entries dropped; m is the lcm of the denominators and
    d the gcd of the integer entries."""
    vals = row.values()
    try:
        d = gcd(*vals)
    except TypeError:  # a Fraction entry
        m = lcm(*(v.denominator for v in vals))
        ints = {c: v.numerator * (m // v.denominator) for c, v in row.items() if v}
        d = gcd(*ints.values())
    else:
        m = 1
        ints = {c: v for c, v in row.items() if v} if 0 in vals else dict(row)
    if d > 1:
        for c in ints:
            ints[c] //= d
    return ints, m, d or 1


def _row_order(rows):
    """The order in which the elimination takes the nonempty rows: shortest
    first (ties by index), grouped by first column and taken round-robin
    over the groups in column order.  A row of slice_matrix is built column
    by column, so its first column is its lowest, and the first round puts
    a row on every column that leads some row, each a new pivot with no
    elimination.  The order is only a choice: the result does not depend
    on it."""
    groups: dict = {}
    lengths = [len(row) for row in rows]
    for i in sorted(range(len(rows)), key=lengths.__getitem__):
        if lengths[i]:
            groups.setdefault(next(iter(rows[i])), []).append(i)
    rounds = itertools.zip_longest(*(groups[c] for c in sorted(groups)))
    return [i for r in rounds for i in r if i is not None]


def _echelon(order, take, ncols):
    """Row-incremental fraction-free echelon form of the rows take(i), i in
    order, with pivots only in columns < ncols.

    Each row taken is reduced against the pivot rows found so far, lowest
    column first, until its lowest column has no pivot row; that column
    becomes a new pivot, so every pivot is the lowest column of a vector in
    the row space.  The elimination stops once every column has a pivot.
    Returns ({pivot column: row}, the number of rows taken), or (None, that
    number) when a row reduces to entries at ncols and beyond alone (an
    inconsistent augmented row).
    """
    pivots: dict = {}
    for taken, i in enumerate(order, 1):
        row = take(i)
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                break
            _eliminate(row, prow, col)
        if row:
            if col >= ncols:
                return None, taken
            pivots[col] = row
            if len(pivots) == ncols:
                return pivots, taken
    return pivots, len(order)


def _back_substitute(pivots):
    """Reduce the echelon rows in place to reduced row echelon form: every
    pivot column is cleared from the other pivot rows, highest first.
    Pivot entries are not scaled to 1: dividing a pivot row by its pivot
    entry gives the unique normalized form."""
    done: dict = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c in done]:
            _eliminate(row, done[c], c)
        done[col] = row


def _eliminate(row, prow, col):
    """Clear column col of a primitive integer row with the pivot row prow:
    with a = prow[col], f = row[col] and g = gcd(a, f) signed so that a/g > 0,
    row becomes (a/g) row - (f/g) prow, divided by its content, so it stays
    a primitive integer row and no step does rational arithmetic."""
    a, f = prow[col], row[col]
    g = gcd(a, f)
    if a < 0:
        g = -g
    s, t = a // g, f // g
    if s != 1:
        for c in row:
            row[c] *= s
    for c, x in prow.items():
        y = row.get(c)
        if y is None:
            row[c] = -t * x
        else:
            y -= t * x
            if y:
                row[c] = y
            else:
                del row[c]
    h = gcd(*row.values())
    if h > 1:
        for c in row:
            row[c] //= h


# The d_H images of single monomials: (H, monomial) -> (terms, D), the
# image [[H, class(monomial)]] held the way the ring holds a polynomial:
# integer numerators under the ring's packed monomial keys, as a tuple of
# (key, numerator) pairs, over one denominator D > 0.  H is keyed by the
# numerators and denominator of its representative.  Every slice_matrix
# call reads and fills it.  The values are deterministic, so emptying the
# table once _IMAGE_LIMIT images are held changes no result; the limit is
# well above the 528 images of symmetry_space over ell = 1..7, caps 2..5,
# and the 24 of the degree-0 request of `quasi-trivialize --hat --g
# "d(u_1^-1)"`.
_IMAGES: dict = {}
_IMAGE_LIMIT = 16384


def slice_matrix(monomials, brackets):
    """(matrix, dens): the matrix of the maps d_H, H in brackets, on the
    span of the monomials, with row (k, m) given as dens[k] times the row
    whose entry j is the coefficient of the monomial with key m in
    [[brackets[k], class(monomials[j])]].  The images come from the
    table above; a monomial missing from it has its class built once for all
    brackets, and every class carries its variational derivatives, so each
    is differentiated at most once.

    dens[k] is the lcm of the denominators of bracket k's images and of the
    monomials' coefficients, so no entry is a Fraction; a solve multiplies
    the block-k entries of its right-hand side by dens[k].  The rows are
    built column by column, so the first column of each row is its lowest.
    Polynomial terms carry no zero coefficients, so every stored entry is
    nonzero."""
    hkeys = []
    for H in brackets:
        nums, D = _numerators(H.rep)
        hkeys.append((frozenset(nums.items()), D))
    dens = [1] * len(brackets)
    found = []
    for j, x in enumerate(monomials):
        nums, D = _numerators(x)
        ((mono, n),) = nums.items()
        column = None
        for k, H in enumerate(brackets):
            image = _IMAGES.get((hkeys[k], mono))
            if image is None:
                if len(_IMAGES) >= _IMAGE_LIMIT:
                    _IMAGES.clear()
                if column is None:
                    column = canonical_class(_make({mono: 1}, 1))
                inums, iD = _numerators(schouten_bracket(H, column).rep)
                image = _IMAGES[(hkeys[k], mono)] = (tuple(inums.items()), iD)
            terms, iD = image
            if terms:
                found.append((j, k, terms, n, iD * D))
                dens[k] = lcm(dens[k], iD * D)
    # a block's denominator is known once all its images are read
    rows: dict = {}
    get = rows.get
    for j, k, terms, n, d in found:
        f = n * (dens[k] // d)
        for mn, v in terms:
            key = (k, mn)
            row = get(key)
            if row is None:
                rows[key] = {j: v * f}
            else:
                row[j] = v * f
    return SparseMatrix(rows, len(monomials)), dens


def linear_combination(vector, basis) -> SuperPolynomial:
    """sum_j vector[j] basis[j] over a nonempty basis, in column order."""
    out = SuperPolynomial()
    for x, b in zip(vector, basis):
        if x:
            out = out + b * x
    return out


def _solve_in_slices(brackets, targets, slice_: GradedSlice, max_grows: int) -> MultiVector:
    """The class y with [[H, y]] = T for each bracket H and its target T,
    searched in the slice and then in up to max_grows grown slices.  The
    targets are homogeneous classes of one theta-degree k >= 1 and degree d,
    not all zero; y has theta-degree t = k - 1 and degree d - 1.  y is
    verified exactly; NoSolution names the last slice tried."""
    c = next(T for T in targets if not T.is_zero())
    t, deg = c.theta_degree - 1, c.homogeneity() - 1
    target = [_numerators(T.rep) for T in targets]
    s = slice_
    for grow in range(max_grows + 1):
        if grow:
            s = s.grown()
        basis = enumerate_basis(s, t, deg)
        if basis:
            matrix, dens = slice_matrix(basis, brackets)
            sol = matrix.solve({(k, mn): Fraction(v * dens[k], D)
                                for k, (nums, D) in enumerate(target)
                                for mn, v in nums.items()})
            if sol is not None:
                y = canonical_class(linear_combination(sol, basis))
                if any(schouten_bracket(H, y) != T for H, T in zip(brackets, targets)):
                    raise AssertionError("slice solution verification failed")
                return y
    raise NoSolution(f"no solution in slices up to {s}: "
                     "enlarge the slice or the class is not exact")


def primitive_solve(c: MultiVector, H: MultiVector, slice_: GradedSlice,
                    max_grows: int = 2) -> MultiVector:
    """Solve d_H y = c for y in the slice; exact, deterministic, growing the
    slice a bounded number of times before reporting NoSolution."""
    _check_size(max_grows, "max_grows")
    if not schouten_bracket(H, c).is_zero():
        raise AlgebraError("primitive_solve needs a d_H-closed input")
    if c.is_zero():
        return MultiVector(SuperPolynomial(), max(c.theta_degree - 1, 0))
    if c.theta_degree < 1:
        raise AlgebraError(f"primitive_solve needs theta-degree at least 1, got "
                           f"{c.theta_degree}: d_H raises the theta-degree by one")
    if c.homogeneity() is None:
        raise AlgebraError("primitive_solve needs homogeneous input")
    return _solve_in_slices([H], [c], slice_, max_grows)


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
            chain.append(MultiVector(SuperPolynomial(), max(lead.theta_degree - 1, 0)))
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
    _check_size(p, "p")
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
