"""Command-line surface: deterministic JSON over the engine.

Exit codes: 0 on success, 1 when a mathematical check comes out false, 2 on
usage, parse, or engine errors.  Every exit 2 after argument parsing prints a
JSON object {"error": {"code", "message"}}; a negative count, degree, order
or slice cap, or a Miura weight below 1, gives the code `invalid-argument`,
and an unexpected exception gives `internal-error` with its traceback on
stderr.  Expressions accept `-` to read stdin.
Deformation manifests are JSON documents of the form

    {"base": "D: u*del + 1/2*u_1",
     "corrections": {"2": "D: 3/2*del^3"},
     "truncation": 4}
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from .algebra import (
    AlgebraError,
    DiffOperator,
    IncompatibleAlgebras,
    SkewnessError,
    SuperPolynomial,
    UndefinedGrading,
)
from .deform import EpsilonDeformation, MCViolation, NoSolution, mc_residual, obstruction, miura_push
from .dkdv import (
    NontrivialAtDegreeZero,
    dkdv_pencil,
    hierarchy,
    hierarchy_flow,
    psi_check,
    psi_density,
    quasi_trivialize_from_generator,
    symmetry_space,
)
from .parsing import ParseError, format_operator, parse_density, parse_operator
from .schouten import are_compatible, is_hamiltonian, schouten_bracket
from .variational import (
    MultiVector,
    NotExact,
    bivector_to_operator,
    canonical_class,
    normalize_N,
    operator_to_bivector,
    variational_derivative,
)


class _InvalidArgument(Exception):
    """A command-line value outside its documented range."""


_ERROR_CODES = [
    (_InvalidArgument, "invalid-argument"),
    (ParseError, "parse-error"),
    (NotExact, "not-exact"),
    (NoSolution, "no-solution"),
    (MCViolation, "mc-violation"),
    (SkewnessError, "not-skew-adjoint"),
    (IncompatibleAlgebras, "incompatible-algebras"),
    (UndefinedGrading, "undefined-grading"),
    (AlgebraError, "algebra-error"),
]


def _error_code(exc) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal-error"


def _at_least(args, *names, minimum=0) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < minimum:
            flag = "--" + name.replace("_", "-")
            raise _InvalidArgument(f"{flag} must be at least {minimum}, got {value}")


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _emit(doc, args) -> None:
    if getattr(args, "pretty", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _density(args, text) -> SuperPolynomial:
    return parse_density(_read_arg(text), hat=args.hat)


def _operator(args, text) -> DiffOperator:
    return parse_operator(_read_arg(text), hat=args.hat)


def _load_manifest(args, path) -> EpsilonDeformation:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    base = operator_to_bivector(parse_operator(doc["base"], hat=args.hat))
    table = {int(k): v for k, v in doc.get("corrections", {}).items()}
    trunc = int(doc.get("truncation", max(table, default=0)))
    corrections = []
    for k in range(1, trunc + 1):
        if k in table:
            corrections.append(operator_to_bivector(parse_operator(table[k], hat=args.hat)))
        else:
            corrections.append(MultiVector(SuperPolynomial.zero(1, args.hat), 2))
    return EpsilonDeformation(base, corrections, trunc)


def _dump_series(D: EpsilonDeformation) -> dict:
    doc = {"base": format_operator(bivector_to_operator(D.base).single()),
           "corrections": {}, "truncation": D.truncation}
    for k in range(1, D.truncation + 1):
        H = D.term(k)
        if not H.is_zero():
            doc["corrections"][str(k)] = format_operator(bivector_to_operator(H).single())
    return doc


def _cmd_bracket(args):
    a = canonical_class(_density(args, args.a))
    b = canonical_class(_density(args, args.b))
    res = schouten_bracket(a, b)
    _emit({"bracket": str(res.rep), "theta_degree": res.theta_degree}, args)
    return 0


def _cmd_dtot(args):
    _emit({"result": str(_density(args, args.expr).total_derivative())}, args)
    return 0


def _cmd_vder(args):
    _at_least(args, "level")
    r = variational_derivative(_density(args, args.expr), args.slot, 1, args.level)
    _emit({"result": str(r), "slot": args.slot, "level": args.level}, args)
    return 0


def _cmd_normalize(args):
    _emit({"result": str(normalize_N(_density(args, args.expr)))}, args)
    return 0


def _cmd_check_hamiltonian(args):
    B = operator_to_bivector(_operator(args, args.op))
    ok = is_hamiltonian(B)
    _emit({"hamiltonian": ok}, args)
    return 0 if ok else 1


def _cmd_check_compatible(args):
    B1 = operator_to_bivector(_operator(args, args.op1))
    B2 = operator_to_bivector(_operator(args, args.op2))
    ok = is_hamiltonian(B1) and is_hamiltonian(B2) and are_compatible(B1, B2)
    _emit({"compatible": ok}, args)
    return 0 if ok else 1


def _cmd_hierarchy(args):
    _at_least(args, "n")
    hams = hierarchy(args.n)
    doc = {"hamiltonians": [
        {"index": i - 1, "density": str(H.rep),
         "flow": str(hierarchy_flow(H).chars[0])}
        for i, H in enumerate(hams)
    ]}
    _emit(doc, args)
    return 0


def _cmd_symmetries(args):
    _at_least(args, "max_order", "max_udeg", "degree")
    basis = symmetry_space(args.degree, args.max_udeg, max_order=args.max_order)
    _emit({"degree": args.degree, "dimension": len(basis),
           "basis": sorted(str(b) for b in basis)}, args)
    return 0


def _cmd_obstruction(args):
    _at_least(args, "order")
    D = _load_manifest(args, args.manifest)
    order = args.order if args.order is not None else D.truncation
    res = mc_residual(D, order)
    doc = {"mc_residual": [str(r.rep) for r in res],
           "is_deformation": all(r.is_zero() for r in res)}
    if doc["is_deformation"]:
        ob = obstruction(D, order)
        doc["order"] = order
        doc["obstruction"] = str(ob.rep)
    _emit(doc, args)
    return 0


def _cmd_miura_push(args):
    _at_least(args, "order")
    _at_least(args, "weight", minimum=1)
    D = _load_manifest(args, args.manifest)
    x = _density(args, args.x)
    X = canonical_class(x * SuperPolynomial.theta(0, hat=x.hat))
    N = args.order if args.order is not None else D.truncation
    pushed = miura_push(D, X, args.weight, N)
    _emit(_dump_series(pushed), args)
    return 0


def _cmd_quasi_trivialize(args):
    _at_least(args, "max_udeg", "degree")
    g = _density(args, args.g)
    k = g.theta_degree()
    if g and k != 0:
        raise _InvalidArgument(
            f"--g must have theta-degree 0, got {'mixed' if k is None else k}")
    witness, c1 = quasi_trivialize_from_generator(g, args.degree,
                                                  max_udeg=args.max_udeg)
    if isinstance(witness, NontrivialAtDegreeZero):
        _emit({"trivial": False, "cocycle": str(c1.rep),
               "reason": "nontrivial-at-degree-zero"}, args)
        return 1
    _emit({"trivial": True, "cocycle": str(c1.rep),
           "witness_characteristic": str(witness.chars[0])}, args)
    return 0


def _cmd_psi_check(args):
    ok = psi_check()
    _emit({"holds": ok, "psi": str(psi_density())}, args)
    return 0 if ok else 1


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        entry = {"name": name, "pass": False}
        try:
            entry["pass"] = bool(fn())
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            entry["error"] = f"{type(exc).__name__}: {exc}"
        checks.append(entry)

    pen = dkdv_pencil()
    check("pencil-certified", lambda: pen.certified)
    B3 = operator_to_bivector(DiffOperator({3: SuperPolynomial.const(Fraction(3, 2))}))
    D = EpsilonDeformation(pen.Q, [MultiVector(SuperPolynomial.zero(), 2), B3], 2)
    check("kdv-deformation-mc", lambda: all(r.is_zero() for r in mc_residual(D, 4)))
    check("psi-check", psi_check)
    check("hierarchy-h1", lambda: hierarchy(1)[2].rep == SuperPolynomial.u(0) ** 3 / 6)
    check("symmetry-kernel-deg2", lambda: not symmetry_space(2, 4))

    def quasi_deg2():
        g = (SuperPolynomial.u(1) * SuperPolynomial.u(0)).total_derivative()
        witness, c1 = quasi_trivialize_from_generator(g, 2)
        return dkdv_pencil().d_Q(witness.as_class()) == c1.to_hat()

    check("quasi-trivialize-deg2", quasi_deg2)
    ok = all(c["pass"] for c in checks)
    _emit({"ok": ok, "checks": checks}, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hat", action="store_true",
                        help="allow Laurent powers of u_1")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false",
                     default=False, help="compact JSON output (default)")
    fmt.add_argument("--pretty", dest="pretty", action="store_true",
                     help="indented JSON output")

    ap = argparse.ArgumentParser(
        prog="jetbrackets",
        description="Exact variational calculus of functional multivectors "
                    "on jet space.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", parents=[common],
                       help="Schouten bracket of two densities")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("dtot", parents=[common], help="total derivative")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_dtot)

    p = sub.add_parser("vder", parents=[common],
                       help="(higher) variational derivative")
    p.add_argument("expr")
    p.add_argument("--slot", choices=("u", "theta"), default="u")
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(func=_cmd_vder)

    p = sub.add_parser("normalize", parents=[common],
                       help="normalization operator N")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check-hamiltonian", parents=[common],
                       help="certify [[D, D]] = 0 for an operator")
    p.add_argument("op")
    p.set_defaults(func=_cmd_check_hamiltonian)

    p = sub.add_parser("check-compatible", parents=[common],
                       help="certify a pair of operators as a pencil")
    p.add_argument("op1")
    p.add_argument("op2")
    p.set_defaults(func=_cmd_check_compatible)

    p = sub.add_parser("hierarchy", parents=[common],
                       help="dispersionless KdV Hamiltonians H_{-1}..H_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("symmetries", parents=[common],
                       help="joint kernel of d_P and d_Q in a graded slice")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-order", type=int, default=None,
                   help="cap on the jet order of the slice (default: the degree)")
    p.add_argument("--max-udeg", type=int, default=6,
                   help="cap on the power of u in the slice (default: 6)")
    p.set_defaults(func=_cmd_symmetries)

    p = sub.add_parser("obstruction", parents=[common],
                       help="Maurer-Cartan residuals and obstruction cocycle "
                            "of a deformation manifest")
    p.add_argument("manifest")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("miura-push", parents=[common],
                       help="push a deformation manifest along exp(-eps^p ad_X)")
    p.add_argument("manifest")
    p.add_argument("--x", required=True, help="characteristic of X")
    p.add_argument("--weight", type=int, default=1)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_miura_push)

    p = sub.add_parser("quasi-trivialize", parents=[common],
                       help="quasi-triviality witness for the tail cocycle "
                            "d_P int(g theta) dx")
    p.add_argument("--g", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--max-udeg", type=int, default=None,
                   help="cap on the power of u in the solver slice "
                        "(default: the u-power of g plus 3, at least 8)")
    p.set_defaults(func=_cmd_quasi_trivialize)

    p = sub.add_parser("psi-check", parents=[common],
                       help="verify the quasi-Miura seed identity")
    p.set_defaults(func=_cmd_psi_check)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in acceptance identities")
    p.set_defaults(func=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - every failure becomes an error object
        code = _error_code(exc)
        doc = {"error": {"code": code, "message": str(exc)}}
        if isinstance(exc, ParseError):
            doc["error"]["column"] = exc.column
            if exc.expected:
                doc["error"]["expected"] = list(exc.expected)
        elif code == "internal-error":
            doc["error"]["message"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        _emit(doc, args)
        return 2


if __name__ == "__main__":
    sys.exit(main())
