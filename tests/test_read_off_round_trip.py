"""`bivector_to_operator` reads D off delta_theta B and rebuilds no class to
check it: every class B of theta-degree 2 is int theta K theta / 2 dx for
exactly one skew K, and delta_theta B = K theta (the argument is in its
docstring).  Checked here on drawn classes, polynomial and Laurent in u_1:
the operator read off is skew, it acts on theta as delta_theta B does, and
the class that `operator_to_bivector` rebuilds from it is B.
"""

from hypothesis import given, settings, strategies as st

from conftest import densities
from jetbrackets import (
    SuperPolynomial as SP,
    bivector_to_operator,
    canonical_class,
    operator_to_bivector,
)


@settings(max_examples=300)
@given(a=densities(min_theta_degree=2, max_theta_degree=2),
       b=densities(min_theta_degree=2, max_theta_degree=2), shift=st.integers(0, 3))
def test_the_operator_read_off_rebuilds_the_class(a, b, shift):
    # a sum of a density and a derivative of another: the class forgets d(b)
    B = canonical_class(a + b.dx(shift))
    D = bivector_to_operator(B)
    if B.is_zero():
        assert D.is_zero()
        return
    assert D.is_skew_adjoint()
    assert D.apply(SP.theta(0)) == B._delta_theta()
    rebuilt = operator_to_bivector(D)
    assert rebuilt == B and rebuilt.theta_degree == 2
