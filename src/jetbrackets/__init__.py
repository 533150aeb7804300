"""Exact variational calculus of functional multivectors on jet space."""

from .algebra import (
    AlgebraError,
    DiffOperator,
    SkewnessError,
    SuperPolynomial,
    UndefinedGrading,
    adjoint,
    grading_info,
)
from .variational import (
    EvolutionaryVF,
    MultiVector,
    NotExact,
    antidiff_square,
    bivector_to_operator,
    canonical_class,
    decompose_total_derivative,
    higher_variational_theta,
    higher_variational_u,
    integrate_x,
    normalize_N,
    operator_to_bivector,
    variational_derivative,
    vf_from_density,
)
from .schouten import (
    Pencil,
    are_compatible,
    differential_dH,
    hydrodynamic_bivector,
    is_hamiltonian,
    poisson_bracket_functionals,
    schouten_bracket,
)
from .deform import (
    Cochain,
    EpsilonDeformation,
    GradedSlice,
    MCViolation,
    NoSolution,
    bicomplex_d,
    biham_obstruction,
    enumerate_basis,
    homogenize,
    is_cocycle,
    mc_residual,
    miura_push,
    obstruction,
    primitive_solve,
    reduce_to_tail,
)
from .dkdv import (
    CocyclePair,
    NontrivialAtDegreeZero,
    binomial_identity_check,
    build_eSE,
    dkdv_pencil,
    hierarchy,
    hierarchy_flow,
    psi_check,
    psi_density,
    psi_residual,
    quasi_step,
    quasi_trivialize,
    quasi_trivialize_from_generator,
    symmetry_check,
    symmetry_space,
    verify_SE_equivalence,
)
from .parsing import ParseError, parse_density, parse_expression, parse_operator

__version__ = "0.1.0"
