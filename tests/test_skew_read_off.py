"""The operator dictionary reads skewness off the class it builds.

`operator_to_bivector(D)` forms theta (D theta) / 2 by key shifts and takes
its class B; since delta_theta B = (D - D*) theta / 2, D is skew exactly
when delta_theta B = D theta, and no adjoint is taken.  Checked here over
random operators of orders 0-6 with polynomial and Laurent coefficients,
the zero operator and operators of order 0 alone: the refusal against
`DiffOperator.is_skew_adjoint`, the class against the one built by ring
products, the identity delta_theta B = (D - D*) theta / 2 itself, and the
round trip of D - D* through `bivector_to_operator`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import densities
from jetbrackets import (
    DiffOperator,
    SkewnessError,
    SuperPolynomial as SP,
    bivector_to_operator,
    canonical_class,
    operator_to_bivector,
    variational_derivative,
)

th = SP.theta(0)


def ref_density(D):
    """sum_j theta p_j theta_j / 2, by ring products."""
    out = SP()
    for j, p in D.coeffs.items():
        out = out + th * p * SP.theta(j)
    return out / 2


@st.composite
def operators(draw):
    """The zero operator, one of order 0 alone, or one of order 0-6 whose
    coefficients (some zero) are polynomial or Laurent in u_1: as drawn, a
    skew D - D*, or D - D* plus one drawn term."""
    kind = draw(st.sampled_from(["zero", "order 0", "any", "skew", "skew plus a term"]))
    if kind == "zero":
        return DiffOperator({})
    if kind == "order 0":
        return DiffOperator({0: draw(densities(max_theta_degree=0).filter(bool))})
    D = DiffOperator({j: draw(densities(max_theta_degree=0))
                      for j in range(draw(st.integers(0, 6)) + 1)})
    if kind != "any":
        D = D - D.adjoint()
    if kind == "skew plus a term":
        D = D + DiffOperator({draw(st.integers(0, 6)): draw(densities(max_theta_degree=0))})
    return D


@settings(max_examples=200)
@given(operators())
def test_refused_exactly_when_not_skew_and_equal_to_the_product_class(D):
    ref = canonical_class(ref_density(D))
    if D.is_skew_adjoint():
        B = operator_to_bivector(D)
        assert B == ref and B.theta_degree == ref.theta_degree
    else:
        with pytest.raises(SkewnessError, match="^operator is not skew-adjoint$"):
            operator_to_bivector(D)


@given(operators())
def test_delta_theta_of_the_class_is_half_of_d_minus_its_adjoint(D):
    a = ref_density(D)
    want = (D - D.adjoint()).apply(th) / 2
    assert variational_derivative(a, "theta") == want
    assert canonical_class(a)._delta_theta() == want


@given(operators())
def test_d_minus_its_adjoint_round_trips(D):
    S = D - D.adjoint()
    B = operator_to_bivector(S)
    if S.is_zero():
        assert B.is_zero()  # the zero class, of theta-degree 0
    else:
        assert bivector_to_operator(B) == S

