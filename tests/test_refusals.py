"""Refusals of outside input, each pinned by its type and message.

Every check here guards a public entry point against input it cannot
answer; the parse errors are also pinned through `cli.main`, by exit code,
error code, message and column.
"""

import inspect
import json
from fractions import Fraction

import pytest

import jetbrackets
from jetbrackets import (
    AlgebraError,
    Cochain,
    DiffOperator,
    EpsilonDeformation,
    EvolutionaryVF,
    GradedSlice,
    MultiVector,
    NoSolution,
    ParseError,
    Pencil,
    SkewnessError,
    SuperPolynomial as SP,
    antidiff_square,
    bicomplex_d,
    canonical_class,
    decompose_total_derivative,
    enumerate_basis,
    grading_info,
    higher_variational_theta,
    homogenize,
    higher_variational_u,
    hydrodynamic_bivector,
    integrate_x,
    mc_residual,
    miura_push,
    normalize_N,
    obstruction,
    operator_to_bivector,
    parse_density,
    parse_expression,
    parse_operator,
    poisson_bracket_functionals,
    primitive_solve,
    variational_derivative,
    vf_from_density,
)
from jetbrackets.cli import main
from jetbrackets.dkdv import (CocyclePair, binomial_identity_check, build_eSE, dkdv_pencil,
                              hierarchy, psi_check, psi_residual, quasi_trivialize,
                              quasi_trivialize_from_generator, verify_SE_equivalence)

u, th = SP.u(0), SP.theta(0)
P = operator_to_bivector(DiffOperator.d(1))
Q = operator_to_bivector(parse_operator("D: u*del + 1/2*u_1"))
VF = canonical_class(u * th)  # theta-degree 1
SERIES = EpsilonDeformation(P, [], 2)

_RANGE = "u^20000 leaves the supported exponent range (0..16383 for u_k, -8192..8191 for u_1)"
_POWER = "a power whose terms may need more than 1000000 bits"
# (text, hat, message, column)
_PARSE_ERRORS = [
    ("1/", False, "expected 'int', found ''", 3),
    ("u^", False, "expected 'int', found ''", 3),
    ("u)", False, "trailing input ')'", 2),
    ("D: del )", False, "trailing input ')'", 8),
    ("1/0", False, "zero denominator", 3),
    ("(u", False, "expected ')'", 3),
    ("d(u", False, "expected ')'", 4),
    ("v_2", False, "unknown variable 'v_2'", 1),
    ("D: d(del)", False, "d(...) takes a density, not an operator", 4),
    ("D: (del + u*del)", False,
     "'del' terms cannot be grouped; write a flat sum of coeff*del^j terms", 16),
    ("D: del^-1", False, "only 'del^j' with j >= 0 is allowed", 10),
    ("D: u^20000*del", False, _RANGE, 1),
    ("(2*u_1)^-1", True, "negative powers apply to the bare variable", 11),
    ("(u_1 + u)^-1", True, "negative powers apply to a single variable only", 13),
    ("u_1^-1", False, "negative powers are only allowed for u_1 in hat mode (use --hat)", 7),
    ("u_2^-1", False, "negative powers are only allowed for u_1", 7),
    ("u_2^-1", True, "negative powers are only allowed for u_1", 7),
    ("theta^-1", False, "negative powers are only allowed for u_1", 9),
    ("theta_1^-2", True, "negative powers are only allowed for u_1", 11),
    ("(2*u)^-1", True, "negative powers are only allowed for u_1", 9),
    ("(1+u)^4000", False, _POWER, 6),
    ("3^30000000", False, _POWER, 2),
    ("((1+u)^30)^30", False, _POWER, 11),
    ("D: (1+u)^8000*del", False, _POWER, 9),
    ("u_", False, "bad subscript in 'u_'", 1),
    ("u + theta_", False, "bad subscript in 'theta_'", 5),
    ("u_*theta_", True, "bad subscript in 'u_'", 1),
    ("D: u_*del", False, "bad subscript in 'u_'", 4),
]


@pytest.mark.parametrize("text, hat, message, column", _PARSE_ERRORS,
                         ids=[t for t, *_ in _PARSE_ERRORS])
def test_parse_error_is_pinned(capsys, text, hat, message, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text, hat=hat)
    assert str(err.value) == f"{message} at column {column}"
    assert err.value.column == column
    command = "check-hamiltonian" if text.startswith("D:") else "dtot"
    assert main([command, *(["--hat"] if hat else []), "--", text]) == 2
    doc = json.loads(capsys.readouterr().out)["error"]
    assert (doc["code"], doc["message"], doc["column"]) == \
        ("parse-error", f"{message} at column {column}", column)


def test_exponent_range_error_is_wrapped_as_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_operator("D: u^20000*del")
    assert isinstance(err.value.__cause__, AlgebraError)


def test_manifest_correction_that_is_not_a_string(capsys, tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text('{"base": "D: del", "corrections": {"2": 3}}')
    assert main(["obstruction", str(man)]) == 2
    assert capsys.readouterr().out == (
        '{"error":{"code":"invalid-argument",'
        '"message":"manifest \\"corrections\\" must map orders to operator strings"}}\n')


def _tail(g):
    """The tail class d_P int(g theta) dx of a characteristic g."""
    return dkdv_pencil().d_P(canonical_class(parse_density(g) * th))


def _not_closed():
    # theta-degree 2 and degree 2, with [[P, c]] != 0
    return canonical_class(u ** 3 * SP.u(1) * th * SP.theta(1))


# bivector classes of degree ell0 + 1 >= 2 with d_P c != 0 and d_Q c != 0, and
# one that is neither closed nor homogeneous: the ell0 >= 1 path finds no
# witness, and only then is closure bracketed
_NOT_COCYCLES = {
    "polynomial": "u_1^3*theta*theta_1",
    "polynomial-order-2": "u*u_2*theta*theta_2",
    "laurent": "u_1^-1*u_2^2*theta*theta_1",
    "not-homogeneous": "u_1^3*theta*theta_1 + u*theta*theta_1",
}
_NOT_A_COCYCLE = "(0, c1) is not a cocycle of the double complex"
_INADMISSIBLE = "d_P int(g theta) is not d_Q-closed: g is not admissible"


_REFUSALS = {
    "deformation-base": (lambda: EpsilonDeformation(VF), AlgebraError,
                         "deformations are built from bivectors"),
    "deformation-correction": (lambda: EpsilonDeformation(P, [VF]), AlgebraError,
                               "corrections must be bivectors"),
    "cochain-mixed-degree": (lambda: Cochain([VF, P]), AlgebraError,
                             "cochain entries must share their theta-degree"),
    "bicomplex-uncertified": (lambda: bicomplex_d(Cochain([VF]), Pencil(P, Q)), AlgebraError,
                              "the ambient pencil must be certified"),
    "miura-bivector-generator": (lambda: miura_push(EpsilonDeformation(P, [], 1), Q),
                                 AlgebraError, "Miura generators are vector fields"),
    "primitive-not-closed": (lambda: primitive_solve(_not_closed(), P, GradedSlice()),
                             AlgebraError, "primitive_solve needs a d_H-closed input"),
    "hierarchy-negative": (lambda: hierarchy(-1), AlgebraError, "N must be nonnegative"),
    "binomial-negative": (lambda: binomial_identity_check(-1, 0), AlgebraError,
                          "nonnegative arguments required"),
    "quasi-trivialize-polynomial": (lambda: quasi_trivialize(u), AlgebraError,
                                    "expected a cochain or bivector class"),
    "quasi-trivialize-declared-degree": (
        lambda: quasi_trivialize(_tail("d(u_1*u)"), 3), AlgebraError,
        "declared degree 3 but the class is in degree 2"),
    "quasi-trivialize-inadmissible": (
        lambda: quasi_trivialize_from_generator(SP.u(1) ** 3), AlgebraError, _INADMISSIBLE),
    "quasi-trivialize-inadmissible-laurent": (
        lambda: quasi_trivialize_from_generator(parse_density("u_1^-1*u_2*u_3", hat=True)),
        AlgebraError, _INADMISSIBLE),
    **{f"quasi-trivialize-not-a-cocycle-{name}": (
        lambda text=text: quasi_trivialize(canonical_class(parse_density(text, hat=True))),
        AlgebraError, _NOT_A_COCYCLE) for name, text in _NOT_COCYCLES.items()},
    "poisson-not-skew": (
        lambda: poisson_bracket_functionals(canonical_class(u ** 2), canonical_class(u ** 2),
                                            parse_operator("D: u*del + u_1")),
        SkewnessError, "Poisson bracket needs a skew-adjoint operator"),
    "poisson-not-functional": (
        lambda: poisson_bracket_functionals(VF, canonical_class(u ** 2), DiffOperator.d(1)),
        AlgebraError, "functional bracket takes theta-degree-0 classes"),
    "pencil-not-hamiltonian": (
        lambda: Pencil.make(operator_to_bivector(
            parse_operator("D: 2*u*del^3 + 3*u_1*del^2 + 3*u_2*del + u_3")), P),
        AlgebraError, "[[P, P]] != 0: first structure is not Hamiltonian"),
    # d^3 and u^2 d + u u_1 are each Hamiltonian
    "pencil-not-compatible": (
        lambda: Pencil.make(operator_to_bivector(DiffOperator.d(3)),
                            operator_to_bivector(parse_operator("D: u^2*del + u*u_1"))),
        AlgebraError, "[[P, Q]] != 0: structures are not compatible"),
    # closed, of homogeneity 3 and 4
    "primitive-not-homogeneous": (
        lambda: primitive_solve(_tail("u*u_2 + u*u_3"), P, GradedSlice()),
        AlgebraError, "primitive_solve needs homogeneous input"),
    # the eps^2 term d has degree 1, below the acyclic range of d_P
    "homogenize-stray-outside-the-acyclic-range": (
        lambda: homogenize(EpsilonDeformation(P, [operator_to_bivector(DiffOperator.d(3)), P],
                                              2), 2, GradedSlice()),
        NoSolution, "stray component outside the acyclic range"),
    "variational-slot": (lambda: variational_derivative(u, slot="v"), AlgebraError,
                         "unknown variational slot 'v'"),
    "add-different-degree": (lambda: VF + P, AlgebraError,
                             "cannot add multivectors of different theta-degree"),
    "vector-field-degree-zero": (lambda: vf_from_density(u), AlgebraError,
                                 "vector fields come from theta-degree-1 densities"),
    "operator-order-fraction": (lambda: DiffOperator({1.5: u}), AlgebraError,
                                "operator orders must be nonnegative integers, got 1.5"),
    "operator-order-string": (lambda: DiffOperator({"a": u}), AlgebraError,
                              "operator orders must be nonnegative integers, got 'a'"),
    "operator-order-bool": (lambda: DiffOperator({True: u}), AlgebraError,
                            "operator orders must be nonnegative integers, got True"),
    "operator-order-negative": (lambda: DiffOperator({-1: u}), AlgebraError,
                                "operator orders must be nonnegative integers, got -1"),
    "operator-coefficient-float": (lambda: DiffOperator({1: 0.5}), TypeError,
                                   "coefficients must be exact rationals (int or Fraction)"),
    "slice-cap-fraction": (lambda: GradedSlice(1.5, 2), AlgebraError,
                           "GradedSlice max_order must be an integer, got 1.5"),
    "slice-cap-bool": (lambda: GradedSlice(2, True), AlgebraError,
                       "GradedSlice max_udeg must be an integer, got True"),
    "deformation-truncation-fraction": (lambda: EpsilonDeformation(Q, [], 1.5), AlgebraError,
                                        "truncation must be an integer, got 1.5"),
    "miura-weight-fraction": (lambda: miura_push(EpsilonDeformation(P, [], 1), VF, 1.5),
                              AlgebraError, "Miura weight must be an integer, got 1.5"),
    "miura-truncation-bool": (lambda: miura_push(EpsilonDeformation(P, [], 1), VF, 1, True),
                              AlgebraError, "truncation must be an integer, got True"),
    "bicomplex-empty-cochain": (lambda: bicomplex_d(Cochain([]), dkdv_pencil()), AlgebraError,
                                "the cochain must have at least one entry"),
    "divide-by-zero": (lambda: u / 0, ZeroDivisionError, "division of a polynomial by zero"),
    "negative-power": (lambda: u ** -1, AlgebraError,
                       "only nonnegative integer powers of polynomials"),
    "power-bool": (lambda: u ** True, AlgebraError,
                   "only nonnegative integer powers of polynomials"),
    "dx-fraction": (lambda: u.dx(1.5), AlgebraError,
                    "the power of the total derivative must be an integer, got 1.5"),
    "dx-bool": (lambda: u.dx(True), AlgebraError,
                "the power of the total derivative must be an integer, got True"),
    "variational-level-fraction": (
        lambda: higher_variational_u(u, level=1.5), AlgebraError,
        "the level of a variational derivative must be an integer, got 1.5"),
    "variational-level-bool": (
        lambda: higher_variational_theta(th, level=True), AlgebraError,
        "the level of a variational derivative must be an integer, got True"),
    "variational-derivative-level-fraction": (
        lambda: variational_derivative(u, level=1.5), AlgebraError,
        "the level of a variational derivative must be an integer, got 1.5"),
    "quasi-trivialize-declared-degree-string": (
        lambda: quasi_trivialize(_tail("d(u_1*u)"), "2"), AlgebraError,
        "declared degree must be an integer, got '2'"),
    "quasi-trivialize-declared-degree-fraction": (
        lambda: quasi_trivialize(_tail("d(u_1*u)"), 2.0), AlgebraError,
        "declared degree must be an integer, got 2.0"),
    "quasi-trivialize-declared-degree-negative": (
        lambda: quasi_trivialize(_tail("d(u_1*u)"), -1), AlgebraError,
        "declared degree must be at least 0, got -1"),
    "quasi-trivialize-from-generator-declared-degree-fraction": (
        lambda: quasi_trivialize_from_generator(parse_density("d(u_1*u)"), 2.0),
        AlgebraError, "declared degree must be an integer, got 2.0"),
    # a pencil member is exact: no float and no string is read as a rational
    "pencil-member-float": (lambda: dkdv_pencil().member(0.1), TypeError,
                            "coefficients must be exact rationals (int or Fraction)"),
    "pencil-member-string": (lambda: dkdv_pencil().member("1/2"), TypeError,
                             "coefficients must be exact rationals (int or Fraction)"),
    "pencil-member-bool": (lambda: dkdv_pencil().member(True), TypeError,
                           "coefficients must be exact rationals (int or Fraction)"),
    # so is a multiple of a class
    "scale-string": (lambda: dkdv_pencil().Q.scale("1/2"), TypeError,
                     "coefficients must be exact rationals (int or Fraction)"),
    "scale-float": (lambda: dkdv_pencil().Q.scale(0.5), TypeError,
                    "coefficients must be exact rationals (int or Fraction)"),
    "scale-bool": (lambda: dkdv_pencil().Q.scale(True), TypeError,
                   "coefficients must be exact rationals (int or Fraction)"),
    # and of an operator
    "operator-scale-string": (lambda: DiffOperator.d().scale("1/2"), TypeError,
                              "coefficients must be exact rationals (int or Fraction)"),
    "operator-scale-float": (lambda: DiffOperator.d().scale(0.5), TypeError,
                             "coefficients must be exact rationals (int or Fraction)"),
    "operator-scale-bool": (lambda: DiffOperator.d().scale(True), TypeError,
                            "coefficients must be exact rationals (int or Fraction)"),
    # a public constructor names what it expected
    "vector-field-int": (lambda: EvolutionaryVF(3), TypeError,
                         "a characteristic must be a SuperPolynomial, got 3"),
    "density-int-canonical-class": (lambda: canonical_class(3), TypeError,
                                    "a density must be a SuperPolynomial, got 3"),
    "density-int-vector-field": (lambda: vf_from_density(3), TypeError,
                                 "a density must be a SuperPolynomial, got 3"),
    "density-int-generator": (lambda: quasi_trivialize_from_generator(3), TypeError,
                              "a density must be a SuperPolynomial, got 3"),
    "density-int-normalize": (lambda: normalize_N(3), TypeError,
                              "a density must be a SuperPolynomial, got 3"),
    "density-int-integrate": (lambda: integrate_x(3), TypeError,
                              "a density must be a SuperPolynomial, got 3"),
    "density-int-decompose": (lambda: decompose_total_derivative(3), TypeError,
                              "a density must be a SuperPolynomial, got 3"),
    "density-int-delta-u": (lambda: higher_variational_u(3), TypeError,
                            "a density must be a SuperPolynomial, got 3"),
    "density-int-delta-theta": (lambda: higher_variational_theta(3), TypeError,
                                "a density must be a SuperPolynomial, got 3"),
    "hydrodynamic-float": (lambda: hydrodynamic_bivector(0.5), TypeError,
                           "h must be a SuperPolynomial, int or Fraction, got 0.5"),
    "hydrodynamic-bool": (lambda: hydrodynamic_bivector(True), TypeError,
                          "h must be a SuperPolynomial, int or Fraction, got True"),
    # a bool is not a scalar of the ring or of its operators
    "const-bool": (lambda: SP.const(True), TypeError,
                   "coefficients must be exact rationals (int or Fraction)"),
    "coefficient-bool": (lambda: SP({((), ()): True}), TypeError,
                         "coefficients must be exact rationals (int or Fraction)"),
    "operator-coefficient-bool": (lambda: DiffOperator({1: True}), TypeError,
                                  "coefficients must be exact rationals (int or Fraction)"),
    "add-bool": (lambda: u + True, TypeError,
                 "unsupported operand type(s) for +: 'SuperPolynomial' and 'bool'"),
    "sub-bool": (lambda: u - True, TypeError,
                 "unsupported operand type(s) for -: 'SuperPolynomial' and 'bool'"),
    "mul-bool": (lambda: u * True, TypeError,
                 "unsupported operand type(s) for *: 'SuperPolynomial' and 'bool'"),
    "div-bool": (lambda: u / True, TypeError,
                 "unsupported operand type(s) for /: 'SuperPolynomial' and 'bool'"),
    "operator-add-bool": (lambda: DiffOperator.d() + True, TypeError,
                          "unsupported operand type(s) for +: 'DiffOperator' and 'bool'"),
    "operator-sub-bool": (lambda: DiffOperator.d() - True, TypeError,
                          "unsupported operand type(s) for -: 'DiffOperator' and 'bool'"),
    # a class is built from a density of its own theta-degree, and only a
    # class is subtracted from one
    "class-of-wrong-theta-degree": (lambda: MultiVector(u * th, 2), AlgebraError,
                                    "the density has theta-degree 1, not 2"),
    "class-of-mixed-theta-degree": (lambda: MultiVector(u + th, 1), AlgebraError,
                                    "the density has theta-degree mixed, not 1"),
    "class-of-int": (lambda: MultiVector(0, 2), TypeError,
                     "a representative must be a SuperPolynomial, got 0"),
    "class-theta-degree-bool": (lambda: MultiVector(SP(), True), AlgebraError,
                                "theta-degree must be an integer, got True"),
    "class-theta-degree-negative": (lambda: MultiVector(SP(), -1), AlgebraError,
                                    "theta-degree must be at least 0, got -1"),
    "class-minus-int": (lambda: dkdv_pencil().P - 3, TypeError,
                        "unsupported operand type(s) for -: 'MultiVector' and 'int'"),
    # an index or order that does not exist, or is not an int
    "partial-u-negative": (lambda: u.partial_u(-1), AlgebraError,
                           "jet index must be at least 0, got -1"),
    "partial-u-fraction": (lambda: u.partial_u(1.5), AlgebraError,
                           "jet index must be an integer, got 1.5"),
    "partial-theta-negative": (lambda: th.partial_theta(-1), AlgebraError,
                               "jet index must be at least 0, got -1"),
    "partial-theta-bool": (lambda: th.partial_theta(False), AlgebraError,
                           "jet index must be an integer, got False"),
    "coefficient-layers-negative": (lambda: u.coefficient_layers(-1), AlgebraError,
                                    "jet index must be at least 0, got -1"),
    "coefficient-layers-fraction": (lambda: u.coefficient_layers(1.5), AlgebraError,
                                    "jet index must be an integer, got 1.5"),
    "mc-residual-negative": (lambda: mc_residual(SERIES, -1), AlgebraError,
                             "order must be at least 0, got -1"),
    "mc-residual-fraction": (lambda: mc_residual(SERIES, 1.5), AlgebraError,
                             "order must be an integer, got 1.5"),
    "obstruction-negative": (lambda: obstruction(SERIES, -1), AlgebraError,
                             "truncation must be at least 0, got -1"),
    "obstruction-fraction": (lambda: obstruction(SERIES, 1.5), AlgebraError,
                             "truncation must be an integer, got 1.5"),
    "deformation-term-negative": (lambda: SERIES.term(-1), AlgebraError,
                                  "order must be at least 0, got -1"),
    "deformation-term-fraction": (lambda: SERIES.term(1.5), AlgebraError,
                                  "order must be an integer, got 1.5"),
    "enumerate-basis-degree-fraction": (lambda: enumerate_basis(GradedSlice(), 0, 1.5),
                                        AlgebraError, "degree must be an integer, got 1.5"),
    "hierarchy-fraction": (lambda: hierarchy(1.5), AlgebraError,
                           "N must be an integer, got 1.5"),
    "binomial-fraction": (lambda: binomial_identity_check(1.5, 0), AlgebraError,
                          "alpha must be an integer, got 1.5"),
    "binomial-fraction-beta": (lambda: binomial_identity_check(0, 1.5), AlgebraError,
                               "beta must be an integer, got 1.5"),
    "e-system-negative-order": (lambda: build_eSE(SP(), SP(), -1), AlgebraError,
                                "order must be at least 0, got -1"),
    "e-system-fraction-order": (lambda: build_eSE(SP(), SP(), 1.5), AlgebraError,
                                "order must be an integer, got 1.5"),
    # an order the check would not run is refused, never answered True
    "se-equivalence-negative-order": (lambda: verify_SE_equivalence([], -2), AlgebraError,
                                      "order must be at least 0, got -2"),
    "se-equivalence-float-order": (lambda: verify_SE_equivalence([], 4.0), AlgebraError,
                                   "order must be an integer, got 4.0"),
    "antidiff-square-index-bool": (lambda: antidiff_square(SP.u(1), True), AlgebraError,
                                   "jet index must be an integer, got True"),
    "antidiff-square-index-negative": (lambda: antidiff_square(SP.u(1), -1), AlgebraError,
                                       "jet index must be at least 0, got -1"),
    "homogenize-degree-bool": (lambda: homogenize(SERIES, True, GradedSlice()), AlgebraError,
                               "p must be an integer, got True"),
    # every density argument is refused by name, not by an AttributeError
    "density-int-operator-apply": (lambda: DiffOperator.d().apply(3), TypeError,
                                   "a density must be a SuperPolynomial, got 3"),
    "density-int-vector-field-apply": (lambda: EvolutionaryVF(u).apply(3), TypeError,
                                       "a density must be a SuperPolynomial, got 3"),
    "density-int-antidiff-square": (lambda: antidiff_square(3, 0), TypeError,
                                    "a density must be a SuperPolynomial, got 3"),
    "density-int-psi-residual": (lambda: psi_residual(3), TypeError,
                                 "a density must be a SuperPolynomial, got 3"),
    "density-int-psi-check": (lambda: psi_check(3), TypeError,
                              "a density must be a SuperPolynomial, got 3"),
    "density-int-e-system": (lambda: build_eSE(3, u, 2), TypeError,
                             "a density must be a SuperPolynomial, got 3"),
    "density-int-cocycle-pair": (lambda: CocyclePair(3, u, 2).verify(), TypeError,
                                 "a density must be a SuperPolynomial, got 3"),
    "density-int-grading-info": (lambda: grading_info(3), TypeError,
                                 "a density must be a SuperPolynomial, got 3"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_refusal_is_pinned(name):
    call, exc_type, message = _REFUSALS[name]
    with pytest.raises(exc_type) as err:
        call()
    assert type(err.value) is exc_type
    assert str(err.value) == message



def _takes_a_density_first():
    """Every public callable, and the two apply methods, whose first
    parameter is annotated SuperPolynomial, with a value for each other
    required parameter."""
    fill = {"SuperPolynomial": u, "int": 2}
    calls = {"DiffOperator.apply": DiffOperator.d().apply,
             "EvolutionaryVF.apply": EvolutionaryVF(u).apply}
    for name in jetbrackets.__all__:
        obj = getattr(jetbrackets, name)
        if callable(obj) and not inspect.ismodule(obj):
            calls[name] = obj
    out = {}
    for name, call in calls.items():
        try:
            params = list(inspect.signature(call).parameters.values())
        except ValueError:  # an exception class with no Python signature
            continue
        if params and "SuperPolynomial" in str(params[0].annotation).split(" | "):
            rest = [fill[p.annotation] for p in params[1:]
                    if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]
            out[name] = (call, rest)
    return out


def test_every_density_parameter_refuses_a_non_polynomial():
    found = _takes_a_density_first()
    # the sweep reaches the entry points it was written for
    assert {"DiffOperator.apply", "EvolutionaryVF.apply", "antidiff_square", "build_eSE",
            "CocyclePair", "grading_info", "psi_residual", "psi_check",
            "canonical_class"} <= set(found)
    for name, (call, rest) in found.items():
        with pytest.raises(TypeError, match=r"must be a SuperPolynomial, got 3$"):
            call(3, *rest)


def test_pencil_member_of_an_exact_lambda():
    # P + lambda Q for P = del and Q = u del + 1/2 u_1
    for lam, op in ((2, "D: del + 2*u*del + u_1"),
                    (Fraction(1, 2), "D: del + 1/2*u*del + 1/4*u_1")):
        assert dkdv_pencil().member(lam) == operator_to_bivector(parse_operator(op))


def test_a_bool_is_not_a_constant():
    assert SP.const(1) == 1 and SP.const(1) != True
    assert DiffOperator.d() - 1 == DiffOperator({1: 1, 0: -1})


def test_exact_scalars_of_operators_and_coefficients_are_accepted():
    assert DiffOperator.d().scale(Fraction(1, 2)) == DiffOperator({1: Fraction(1, 2)})
    assert DiffOperator.d().scale(-2) == DiffOperator({1: -2})
    assert hydrodynamic_bivector(2)[1] == DiffOperator({1: 2})
    assert hydrodynamic_bivector(Fraction(1, 3))[1] == DiffOperator({1: Fraction(1, 3)})
    assert hydrodynamic_bivector(u)[1] == parse_operator("D: u*del + 1/2*u_1")
