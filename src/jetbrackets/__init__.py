"""Exact variational calculus of functional multivectors on jet space.

The package root loads nothing of the engine.  `_NAMES` maps each public
name to the module that defines it: the ring (`algebra`), the quotient
calculus (`variational`), the Schouten bracket and the dKdV pencil
(`schouten`), the deformation calculus and slice solver (`deform`),
dispersionless KdV (`dkdv`) and the expression parser (`parsing`).  The
first `jetbrackets.X` or `from jetbrackets import X` imports X's module and
stores X here, so every later access is a plain global lookup.  So
`import jetbrackets; jetbrackets.dkdv_pencil()` compiles only the ring, the
quotient calculus and the bracket, and never `deform` or `dkdv`.  The five
engine module names resolve the same way.  `from jetbrackets import *`
binds the engine's names and modules (`__all__`); it leaves out the
parser's, which no engine module uses.

`jetbrackets.cli` imports every module it serves at once, so every
`jetbrackets` command loads the whole engine: a process that runs requests
pays the whole import before its first one, not inside it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_ENGINE = {
    "algebra": ("AlgebraError", "DiffOperator", "SkewnessError", "SuperPolynomial",
                "UndefinedGrading", "adjoint", "grading_info"),
    "variational": ("EvolutionaryVF", "MultiVector", "NotExact", "antidiff_square",
                    "bivector_to_operator", "canonical_class", "decompose_total_derivative",
                    "higher_variational_theta", "higher_variational_u", "integrate_x",
                    "normalize_N", "operator_to_bivector", "variational_derivative",
                    "vf_from_density"),
    "schouten": ("Pencil", "are_compatible", "differential_dH", "dkdv_pencil",
                 "hydrodynamic_bivector", "is_hamiltonian", "poisson_bracket_functionals",
                 "schouten_bracket"),
    "deform": ("Cochain", "EpsilonDeformation", "GradedSlice", "MCViolation", "NoSolution",
               "bicomplex_d", "biham_obstruction", "enumerate_basis", "homogenize",
               "is_cocycle", "mc_residual", "miura_push", "obstruction", "primitive_solve",
               "reduce_to_tail"),
    "dkdv": ("CocyclePair", "NontrivialAtDegreeZero", "binomial_identity_check", "build_eSE",
             "hierarchy", "hierarchy_flow", "psi_check", "psi_density", "psi_residual",
             "quasi_step", "quasi_trivialize", "quasi_trivialize_from_generator",
             "symmetry_check", "symmetry_space", "verify_SE_equivalence"),
}

# public name -> its module; an engine module's own name stands for the module
_NAMES = {name: mod for mod, names in _ENGINE.items() for name in (mod, *names)}
__all__ = sorted(_NAMES)
_NAMES.update(dict.fromkeys(("ParseError", "parse_density", "parse_expression",
                             "parse_operator"), "parsing"))


def __getattr__(name):
    mod = _NAMES.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{mod}", __name__)
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_NAMES})
