"""The package root's name table, which loads a module on first use.

`jetbrackets.X` and `from jetbrackets import X` import X's module the first
time X is asked for and store X in the package namespace, so every later
access is a plain global lookup.  The names, the objects they resolve to
and the names that `from jetbrackets import *` binds are the ones the root
gave when it imported every engine module at once.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import jetbrackets
from jetbrackets import dkdv, schouten

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
_MODULES = ("algebra", "variational", "schouten", "deform", "dkdv")

# what `from jetbrackets import *` bound when the root imported every engine
# module eagerly: the engine's public names and its five modules
STAR_NAMES = [
    "AlgebraError", "Cochain", "CocyclePair", "DiffOperator", "EpsilonDeformation",
    "EvolutionaryVF", "GradedSlice", "MCViolation", "MultiVector", "NoSolution",
    "NontrivialAtDegreeZero", "NotExact", "Pencil", "SkewnessError", "SuperPolynomial",
    "UndefinedGrading", "adjoint", "algebra", "antidiff_square", "are_compatible",
    "bicomplex_d", "biham_obstruction", "binomial_identity_check", "bivector_to_operator",
    "build_eSE", "canonical_class", "decompose_total_derivative", "deform", "differential_dH",
    "dkdv", "dkdv_pencil", "enumerate_basis", "grading_info", "hierarchy", "hierarchy_flow",
    "higher_variational_theta", "higher_variational_u", "homogenize",
    "hydrodynamic_bivector", "integrate_x", "is_cocycle", "is_hamiltonian", "mc_residual",
    "miura_push", "normalize_N", "obstruction", "operator_to_bivector",
    "poisson_bracket_functionals", "primitive_solve", "psi_check", "psi_density",
    "psi_residual", "quasi_step", "quasi_trivialize", "quasi_trivialize_from_generator",
    "reduce_to_tail", "schouten", "schouten_bracket", "symmetry_check", "symmetry_space",
    "variational", "variational_derivative", "verify_SE_equivalence", "vf_from_density",
]


def _run(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout


def test_star_import_binds_the_engine_names():
    assert len(STAR_NAMES) == 64
    assert sorted(jetbrackets.__all__) == STAR_NAMES
    ns = {}
    exec("from jetbrackets import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == STAR_NAMES


@pytest.mark.parametrize("name", STAR_NAMES)
def test_each_name_resolves_to_its_module_attribute(name):
    value = getattr(jetbrackets, name)
    if name in _MODULES:
        assert value is import_module(f"jetbrackets.{name}")
    else:
        # the table names the module that defines the value, and no other
        assert jetbrackets._NAMES[name] == value.__module__.removeprefix("jetbrackets.")
        assert value is getattr(import_module(value.__module__), name)
    assert name in dir(jetbrackets)
    assert name in vars(jetbrackets)


def test_first_access_stores_the_name():
    out = _run("import jetbrackets\n"
               "print('dkdv_pencil' in vars(jetbrackets), 'deform' in vars(jetbrackets))\n"
               "jetbrackets.dkdv_pencil, jetbrackets.deform\n"
               "print('dkdv_pencil' in vars(jetbrackets), 'deform' in vars(jetbrackets))\n")
    assert out.split() == ["False", "False", "True", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'jetbrackets' has no attribute "
                                             r"'no_such_name'$"):
        jetbrackets.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from jetbrackets import no_such_name", {})


def test_the_pencil_lives_in_schouten():
    assert dkdv.dkdv_pencil is schouten.dkdv_pencil is jetbrackets.dkdv_pencil
    assert schouten.dkdv_pencil.__module__ == "jetbrackets.schouten"
    assert dkdv.dkdv_q_operator is schouten.dkdv_q_operator
    pencil = jetbrackets.dkdv_pencil()
    assert pencil.certified
    assert jetbrackets.dkdv_pencil() is pencil
    assert pencil.Q == jetbrackets.operator_to_bivector(schouten.dkdv_q_operator())


def test_the_cli_loads_every_engine_module():
    # a process that serves requests compiles the engine before the first one
    out = _run("import sys, jetbrackets.cli\n"
               f"print(*(m for m in {_MODULES!r} if 'jetbrackets.' + m not in sys.modules))\n")
    assert out.split() == []
