"""Exact variational calculus of functional multivectors on jet space.

`import jetbrackets` loads the engine: the ring (`algebra`), the quotient
calculus (`variational`), the Schouten bracket (`schouten`), the deformation
calculus and slice solver (`deform`) and dispersionless KdV (`dkdv`).  No
engine module uses the expression parser, so `ParseError`, `parse_density`,
`parse_expression` and `parse_operator` are resolved from
`jetbrackets.parsing` when one of them is first asked for, by
`jetbrackets.parse_density` or `from jetbrackets import parse_density` alike.
"""

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

__version__ = "0.1.0"

_PARSER_NAMES = ("ParseError", "parse_density", "parse_expression", "parse_operator")


def __getattr__(name):
    if name in _PARSER_NAMES:
        from . import parsing
        return getattr(parsing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_PARSER_NAMES})
