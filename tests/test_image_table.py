"""The process-wide table of d_H images of slice monomials.

A slice matrix built from a cold table, the same matrix built again from the
warm table, and the direct build the table replaced (one canonical_class and
one Schouten bracket per column, column outer, map inner, in Fraction rows)
must agree entry for entry and in row order, for every bracket partner, on
polynomial and Laurent slices of theta-degree 0, 1 and 2: the cold and warm
builds return the same block denominators, and each of their integer rows
is its block's denominator times the direct build's rational row.  The size
bounds of the image table and of the derivation cache change no result.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from jetbrackets import (
    GradedSlice,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    enumerate_basis,
    quasi_trivialize,
    schouten_bracket,
    symmetry_space,
)
from jetbrackets import algebra, deform, variational

PENCIL = dkdv_pencil()
PARTNERS = {"P": PENCIL.P, "Q": PENCIL.Q, "P+2Q": PENCIL.member(2)}


def _direct_build(monomials, brackets):
    """Frozen copy of the build the table replaced, in the table's row
    labels: the ring's monomial keys, read with the coefficients through
    algebra._numerators."""
    columns = [canonical_class(x) for x in monomials]
    maps = [lambda X, H=H: schouten_bracket(H, X) for H in brackets]
    rows: dict = {}
    for j, x in enumerate(columns):
        for k, f in enumerate(maps):
            nums, D = algebra._numerators(f(x).rep)
            for mn, v in nums.items():
                rows.setdefault((k, mn), {})[j] = Fraction(v, D)
    return deform.SparseMatrix(rows, len(columns))


def _assert_same(a, b):
    """a and b, each (matrix, dens), are the same system."""
    (a, a_dens), (b, b_dens) = a, b
    assert list(a.rows) == list(b.rows)
    assert a.rows == b.rows
    assert a.scales == b.scales
    assert a.ncols == b.ncols
    assert a_dens == b_dens


def _assert_direct(built, direct):
    """The integer rows of built, (matrix, dens), are dens[k] times the
    rational rows of the direct build, in the same order."""
    matrix, dens = built
    assert list(matrix.rows) == list(direct.rows)
    assert matrix.rows == direct.rows
    assert matrix.ncols == direct.ncols
    for (k, mn), row in direct._given.items():
        ints = matrix._given[(k, mn)]
        assert all(type(x) is int for x in ints.values())
        assert ints == {j: x * dens[k] for j, x in row.items()}


@pytest.fixture
def cold(monkeypatch):
    monkeypatch.setattr(deform, "_IMAGES", {})


def _seeded_columns(t, depth, name):
    """A seeded slice of theta-degree t, in a seeded column order, plus one
    scaled monomial."""
    rng = random.Random(f"image-table/{t}/{depth}/{name}")
    sl = GradedSlice(max_order=3, max_udeg=2, laurent_depth=depth)
    basis = enumerate_basis(sl, t, rng.randint(t + 1, t + 3))
    assert basis
    rng.shuffle(basis)
    return basis + [basis[0] * Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 2, 7]))]


@pytest.mark.parametrize("name", sorted(PARTNERS))
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("t", [0, 1, 2])
def test_cold_warm_and_direct_builds_agree(cold, t, depth, name):
    H = PARTNERS[name]
    columns = _seeded_columns(t, depth, name)
    first = deform.slice_matrix(columns, [H])
    assert len(deform._IMAGES) == len(columns) - 1  # the scaled column is a hit
    assert first[0].rows
    _assert_same(deform.slice_matrix(columns, [H]), first)
    _assert_direct(first, _direct_build(columns, [H]))


@pytest.mark.parametrize("depth", [0, 2])
def test_joint_system_reads_the_table(cold, monkeypatch, depth):
    brackets_made, calls = [], []

    def counting_bracket(a, b):
        brackets_made.append(1)
        return bracket(a, b)

    def counting_kernel(a, level):
        calls.append((a, False))
        return kernel(a, level)

    def counting_pass(a, level, y=None):
        calls.append((a, True))
        return theta_pass(a, level, y)

    def counting_read(pieces, top, y=None):
        reads.append(pieces[1])
        return read(pieces, top, y)

    bracket, kernel, theta_pass, read, reads = deform.schouten_bracket, \
        variational._variational, variational._theta_pass, variational._horner, []
    theta = SP.theta(0)
    sl = GradedSlice(max_order=3, max_udeg=3, laurent_depth=depth)
    columns = [b * theta for b in enumerate_basis(sl, 0, 3)]
    reps = [canonical_class(x).rep for x in columns]
    brackets = [PENCIL.P, PENCIL.Q]
    monkeypatch.setattr(deform, "schouten_bracket", counting_bracket)
    monkeypatch.setattr(variational, "_variational", counting_kernel)
    monkeypatch.setattr(variational, "_theta_pass", counting_pass)
    monkeypatch.setattr(variational, "_horner", counting_read)
    first = deform.slice_matrix(columns, brackets)
    assert len(brackets_made) == 2 * len(columns)
    # each column's class is differentiated once per variable, however many
    # brackets read it, and each bracket at most once per process (the
    # pencil is shared, so it may be warm); the other calls put one image
    # each in canonical form, whose theta_0 part no bracket reads
    counts = Counter(calls)
    assert all(counts[(x, True)] == 1 for x in columns)
    assert all(counts[(r, False)] == 1 for r in reps if r)
    assert all(counts[(H.rep, odd)] <= 1 for H in brackets for odd in (True, False))
    assert len(calls) <= 4 * len(columns) + 4
    # the theta_0 part of each column is read once, and a bracket's at most
    # once per process
    assert len(reads) <= len(columns) + len(brackets)
    # a smaller slice nests in the larger one: no new image is computed
    inner = [b * theta for b in enumerate_basis(GradedSlice(3, 1, 0), 0, 3)]
    assert set(x for c in inner for x in c.terms) <= set(x for c in columns for x in c.terms)
    made, differentiated, read_ = len(brackets_made), len(calls), len(reads)
    deform.slice_matrix(inner, brackets)
    _assert_same(deform.slice_matrix(columns, brackets), first)
    assert (len(brackets_made), len(calls), len(reads)) == (made, differentiated, read_)
    _assert_direct(first, _direct_build(columns, brackets))


def _results():
    basis = enumerate_basis(GradedSlice(max_order=2, max_udeg=2), 0, 4)
    w = basis[1] * Fraction(3, 2) - basis[5]
    c1 = PENCIL.d_Q(PENCIL.d_P(canonical_class(w)))
    assert not c1.is_zero()
    witness = quasi_trivialize(c1)
    columns = _seeded_columns(1, 2, "bound")
    matrix, dens = deform.slice_matrix(columns, [PENCIL.P, PENCIL.Q])
    return (symmetry_space(1, 3), symmetry_space(2, 2), witness.chars,
            list(matrix.rows.items()), matrix.scales, dens)


def test_size_bounds_change_no_result(monkeypatch):
    expected = _results()
    monkeypatch.setattr(deform, "_IMAGES", {})
    monkeypatch.setattr(deform, "_IMAGE_LIMIT", 3)
    monkeypatch.setattr(algebra, "_DERIV_CACHE", {})
    monkeypatch.setattr(algebra, "_DERIV_LIMIT", 5)
    assert _results() == expected
    assert 0 < len(deform._IMAGES) <= 3
    assert 0 < len(algebra._DERIV_CACHE) <= 5


def test_an_image_is_put_in_canonical_form_through_the_counted_kernel(cold, monkeypatch):
    calls = []
    kernel, theta_pass, read = variational._variational, variational._theta_pass, \
        variational._horner

    def counting_kernel(a, level):
        calls.append((False, False))
        return kernel(a, level)

    def counting_pass(a, level, y=None):
        calls.append((True, y is not None))
        return theta_pass(a, level, y)

    def counting_read(pieces, top, y=None):
        calls.append("read")
        return read(pieces, top, y)

    H = PENCIL.Q
    H._delta_theta(), H._delta_u()
    monkeypatch.setattr(variational, "_variational", counting_kernel)
    monkeypatch.setattr(variational, "_theta_pass", counting_pass)
    monkeypatch.setattr(variational, "_horner", counting_read)
    matrix, _ = deform.slice_matrix([SP.u(0) ** 2 * SP.u(2) * SP.theta(0)], [H])
    assert matrix.rows
    # the column's canonical form, split at theta_0, which leaves nothing to
    # wait (u^2 u_2 theta has no theta_k, k > 0), then its delta_u, then the
    # canonical form of its image, which the bracket reaches through the
    # variational module
    assert calls == [(True, True), (False, False), (True, True)]
