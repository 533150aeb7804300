"""The slice solver against the whole slice, for unknowns of theta-degree >= 1.

Its answer, witness or NoSolution, must be the one of every column of the
slice (conftest.full_slice_solve), for t = 1 and 2 and the brackets P, Q and
P + 2Q, on polynomial slices whose order reaches the unknown's degree
(INSIDE) and on Laurent slices and slices of order below the degree
(OUTSIDE).  Every solve builds its system on every column of the slice.
"""

import random

import pytest

from conftest import full_slice_solve, rand_coeff
from jetbrackets import (
    GradedSlice,
    NoSolution,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    enumerate_basis,
    primitive_solve,
    schouten_bracket,
)
from jetbrackets import deform

PENCIL = dkdv_pencil()
BRACKETS = {"P": PENCIL.P, "Q": PENCIL.Q, "P+2Q": PENCIL.member(2)}

# (slice the solver searches, slice the seeded primitive is drawn from, the
# unknown's degree); a primitive drawn beyond the searched slice often has
# no counterpart in it, which gives NoSolution cases
INSIDE = [  # polynomial, max_order >= degree
    (GradedSlice(3, 2), GradedSlice(3, 2), 3),
    (GradedSlice(4, 2), GradedSlice(4, 3), 4),
    (GradedSlice(3, 1), GradedSlice(3, 3), 3),
    (GradedSlice(5, 1), GradedSlice(5, 2), 5),
]
OUTSIDE = [  # Laurent or of order below the degree
    (GradedSlice(3, 2, 1), GradedSlice(3, 2, 1), 3),
    (GradedSlice(3, 1, 2), GradedSlice(3, 2, 2), 2),
    (GradedSlice(2, 2, 2), GradedSlice(2, 2, 2), 3),
    (GradedSlice(2, 2), GradedSlice(2, 2), 4),
    (GradedSlice(3, 2), GradedSlice(4, 2), 5),
]


def _targets(rng, H, t, source, degree, n):
    """n nonzero closed classes d_H y0 of theta-degree t + 1, y0 a seeded
    class of theta-degree t and the given degree in the source slice."""
    basis = enumerate_basis(source, t, degree)
    out = []
    while len(out) < n:
        y0 = SP.zero()
        for b in rng.sample(basis, min(3, len(basis))):
            y0 = y0 + b * rand_coeff(rng)
        c = schouten_bracket(H, canonical_class(y0))
        if not c.is_zero():
            out.append(c)
    return out


def _agree(c, H, slice_):
    """primitive_solve and the whole-slice solve give the same answer;
    returns whether it is a witness."""
    want, _ = full_slice_solve([H], [c], slice_)
    if want is None:
        with pytest.raises(NoSolution):
            primitive_solve(c, H, slice_, max_grows=0)
        return False
    assert primitive_solve(c, H, slice_, max_grows=0) == want
    return True


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("name", sorted(BRACKETS))
@pytest.mark.parametrize("case", range(len(INSIDE)))
def test_canonical_columns_give_the_whole_slice_answer(case, name, t):
    slice_, source, degree = INSIDE[case]
    H = BRACKETS[name]
    rng = random.Random(f"canonical/{case}/{name}/{t}")
    found = [_agree(c, H, slice_) for c in _targets(rng, H, t, source, degree, 4)]
    if source == slice_:
        assert all(found)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("name", sorted(BRACKETS))
@pytest.mark.parametrize("case", range(len(OUTSIDE)))
def test_slices_outside_the_guard_keep_every_column(case, name, t, monkeypatch):
    slice_, source, degree = OUTSIDE[case]
    H = BRACKETS[name]
    rng = random.Random(f"outside/{case}/{name}/{t}")
    ncols = []

    class Recording(deform.SparseMatrix):
        def __init__(self, rows, n):
            ncols.append(n)
            super().__init__(rows, n)

    for c in _targets(rng, H, t, source, degree, 4):
        del ncols[:]
        with monkeypatch.context() as m:
            m.setattr(deform, "SparseMatrix", Recording)
            found = _agree(c, H, slice_)
        if source == slice_:
            assert found
        # the solver's system (built after the reference one) keeps every
        # column of the slice
        assert ncols == [len(enumerate_basis(slice_, t, degree))] * 2


def test_both_kinds_of_answer_occur():
    """The seeded cases above include witnesses and NoSolution, on INSIDE
    and on OUTSIDE slices."""
    seen = set()
    for cases, tag in ((INSIDE, "in"), (OUTSIDE, "out")):
        for case, (slice_, source, degree) in enumerate(cases):
            if source == slice_:
                continue
            rng = random.Random(f"kinds/{case}")
            for c in _targets(rng, PENCIL.P, 1, source, degree, 4):
                seen.add((tag, _agree(c, PENCIL.P, slice_)))
    assert seen == {("in", True), ("in", False), ("out", True), ("out", False)}
