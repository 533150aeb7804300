"""Engine branches that the other tests do not reach, each pinned.

A product of `del` factors in an operator adds their powers; the zero
operator prints as 0; a class keeps its carried derivatives through copy,
deepcopy and pickle; a name with an empty subscript is refused before the
parser's table of generators can store it.  The refusals among these
branches are rows of `_REFUSALS` in `test_refusals`.
"""

import copy
import pickle

import pytest

from jetbrackets import DiffOperator, ParseError, SuperPolynomial as SP, canonical_class, parsing
from jetbrackets.parsing import parse_density, parse_operator


def test_a_product_of_del_factors_adds_their_powers():
    assert parse_operator("D: del*del") == parse_operator("D: del^2") == DiffOperator.d(2)
    assert parse_operator("D: u*del*del^2") == parse_operator("D: u*del^3")


def test_the_zero_operator_prints_as_zero():
    assert str(DiffOperator.zero()) == "0"
    assert parse_operator("D: " + str(DiffOperator.zero())) == DiffOperator.zero()


def _class_with_both_derivatives():
    u, th = SP.u(0), SP.theta(0)
    # theta-degree 2 with a theta_0 part, so delta_theta is formed from it
    c = canonical_class(u * SP.u(2) * th * SP.theta(1) + SP.u(1) ** 2 * th * SP.theta(2))
    assert c._y and c._dtheta is None
    c._delta_theta()
    c._delta_u()
    return c


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_copied_class_keeps_its_carried_derivatives(clone):
    c = _class_with_both_derivatives()
    x = clone(c)
    assert (x.rep, x.theta_degree) == (c.rep, c.theta_degree) and x == c
    # restored, not recomputed: the slots hold the derivatives already
    assert x._dtheta == c._dtheta and x._du == c._du
    assert x._dtheta is not None and x._du is not None
    fresh = canonical_class(c.rep)
    assert x._delta_theta() == fresh._delta_theta()
    assert x._delta_u() == fresh._delta_u()


@pytest.mark.parametrize("name", ["u_", "theta_"])
def test_an_empty_subscript_is_refused_and_not_stored(name):
    with pytest.raises(ParseError, match=f"^bad subscript in '{name}' at column 1$"):
        parse_density(name)
    assert name not in parsing._ATOMS
    # the names with a subscript still parse, and their generator is stored
    gen = SP.u(3) if name == "u_" else SP.theta(3)
    assert parse_density(name + "3") == parse_density(name + "3") == gen
    assert name + "3" in parsing._ATOMS
