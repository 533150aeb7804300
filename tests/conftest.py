import random
from fractions import Fraction

import pytest
from hypothesis import settings

from jetbrackets import SuperPolynomial as SP

# property tests draw a fixed example sequence (derandomized, no example
# database), so every run checks the same cases in bounded time
settings.register_profile("jetbrackets", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("jetbrackets")


def rand_coeff(rng):
    return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))


def rand_density(rng, theta_degree=0, max_order=3, terms=2, hat=False,
                 max_udeg=2, laurent=1):
    """Random sparse density with the requested theta-degree."""
    out = SP.zero(1, hat)
    for _ in range(terms):
        m = SP.const(rand_coeff(rng), 1, hat)
        for _ in range(rng.randint(0, max_udeg)):
            m = m * SP.u(rng.randint(0, max_order), hat=hat)
        if hat and laurent and rng.random() < 0.4:
            m = m * SP.u(1, power=-rng.randint(1, laurent), hat=True)
        for k in rng.sample(range(0, max_order + 1), theta_degree):
            m = m * SP.theta(k, hat=hat)
        out = out + m
    return out


def rand_homogeneous(rng, theta_degree, degree, max_order=None, max_udeg=3,
                     hat=False, laurent_depth=0, terms=3):
    """Random density of fixed theta-degree and homogeneity degree."""
    from jetbrackets import GradedSlice, enumerate_basis
    sl = GradedSlice(max_order=degree + 1 if max_order is None else max_order,
                     max_udeg=max_udeg, laurent_depth=laurent_depth)
    basis = enumerate_basis(sl, theta_degree, degree, 1, hat)
    out = SP.zero(1, hat)
    for b in rng.sample(basis, min(terms, len(basis))):
        out = out + b * rand_coeff(rng)
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)
