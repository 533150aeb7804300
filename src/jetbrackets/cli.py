"""Command-line surface: deterministic JSON over the engine.

Every request runs one pipeline.  `main` parses the arguments and checks
each integer flag against the range its subcommand declares beside it in
`build_parser` (`ranges`: lowest, and highest or None).  The command then
takes its inputs from `_inputs`: a second `-` (stdin) among them, as in
`bracket - -` or `check-compatible - -`, is refused before stdin is read;
every input is parsed; then a manifest's operators and the inputs are
bounded (below), all before the command computes.  The command returns its
JSON document and exit code, and `main`, stdout's only writer, prints that
document or the error object of what was raised.  Exit codes: 0 on
success, 1 when a mathematical check comes out false, 2 on usage, parse, or
engine errors.  Every exit 2 after argument parsing prints
{"error": {"code", "message"}}: a flag outside its range, an input `--`, a
second stdin or an input above its bound gives `invalid-argument`, and an
unexpected exception gives `internal-error` with its traceback on stderr.
`main` builds its argument parser on its first call and reuses it for every
later call in the process; `build_parser` returns a fresh parser each time.
A well-formed request is read without argparse, from the actions that
`build_parser` declares for its subcommand, into the Namespace argparse
would make: the subcommand comes first; each option is named in full, as
`--name value` or `--name=value`, and a flag takes no value; a value given
apart from its option and starting with "-" is "-" or a negative number
(so `--level -1`); there is at most one `--`, and no positional before it;
the positionals are exactly those declared; every required option is
given; and every value passes its declared type and choices.  The full
argparse parser parses every other argument list, so an abbreviation, -h
or a malformed value gets argparse's help, usage error and exit code.
Deformation manifests are JSON documents of the form

    {"base": "D: u*del + 1/2*u_1",
     "corrections": {"2": "D: 3/2*del^3"},
     "truncation": 4}

A manifest is user input: a missing or unreadable file, invalid JSON, a
missing "base" string, a correction that is not an operator string, a
correction key that is not a string of decimal digits 0-9 naming an order
>= 1 (so not " 2 " or "+2"), two keys naming the same order ("2" and "02"),
a truncation that is not a JSON integer >= 0 (so not 2.7, "2" or true), or
a correction order above the truncation gives `invalid-argument`.  Without
"truncation" the series is truncated at its highest correction order.  A
truncation above 10 000, the bound of `--order` as well, gives
`invalid-argument` too: a series is stored and checked order by order, so a
few bytes of manifest must not ask for a million orders.  An expression,
operator or manifest operator of jet order above 1 000 (u_1001, or del^1001
in an operator) gives `invalid-argument` as well: the ring admits far larger
jet indices, but the variational kernels take time quadratic in them.  A
subscript above 1 000 is refused before its key (two bytes per index) is
built, once every input has parsed.  In a request
with a negative power of u_1 in any input (both arguments of `bracket` and
`check-compatible`, a manifest's base and corrections, `--x`, `--g`) every
input is bounded at jet order 20, since d^n of u_1^-1 has p(n) terms.
Each input's powers of u_1 are read at most once, and a request within jet
order 20 reads none, so the bound costs time linear in the inputs.
`d(...)` is evaluated while its expression is parsed, so the parser itself
refuses, as a `parse-error` at that `d`, a `d(...)` whose operand has a
negative power of u_1 and jet order above 20: a nested derivative of a
Laurent input stops there, before its terms grow.  A power whose terms may
need more than 1 000 000 bits is likewise a `parse-error` at that `^`.
A `symmetries` slice whose column count times the degree squared exceeds
75 000 gives `invalid-argument` before any bracket is computed; the largest
accepted slices (degrees 8 to 11) answer in about a second: 0.6 to 1.0 s
in a fresh process (Python 3.11.7, 2 cores).
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

# every engine module at once, unlike the package root's load on first use:
# a process that serves many requests compiles them all before the first one
from .algebra import (
    AlgebraError,
    DiffOperator,
    SkewnessError,
    SuperPolynomial,
    UndefinedGrading,
    _is_laurent,
)
from .deform import (EpsilonDeformation, GradedSlice, MCViolation, NoSolution,
                     _residual_and_obstruction, enumerate_basis, mc_residual, miura_push)
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
from .parsing import (_MAX_JET_ORDER, _MAX_LAURENT_JET_ORDER, ParseError, format_operator,
                      parse_input)
from .schouten import are_compatible, is_hamiltonian, schouten_bracket
from .variational import (
    EvolutionaryVF,
    MultiVector,
    NotExact,
    bivector_to_operator,
    canonical_class,
    normalize_N,
    operator_to_bivector,
    variational_derivative,
)

# argparse and json come after the engine: in a process without a bytecode
# cache the engine's compile peak would stack on them (peak RSS of
# `import jetbrackets.cli`, median of 12 runs, Python 3.11.7, 2 cores:
# 17.2 MB with them first, 16.7 MB after)
import argparse  # noqa: E402
import json  # noqa: E402


_MAX_ORDER = 10_000  # largest truncation or --order of a series request
_MAX_SLICE_COST = 75_000  # largest columns * degree^2 of a symmetries slice
# the encoders of json.dumps(doc, sort_keys=True, ...), built once
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2)


class _InvalidArgument(Exception):
    """A command-line value outside its documented range."""


_ERROR_CODES = [
    (_InvalidArgument, "invalid-argument"),
    (ParseError, "parse-error"),
    (NotExact, "not-exact"),
    (NoSolution, "no-solution"),
    (MCViolation, "mc-violation"),
    (SkewnessError, "not-skew-adjoint"),
    (UndefinedGrading, "undefined-grading"),
    (AlgebraError, "algebra-error"),
]


def _error_code(exc) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal-error"


def _in_range(args) -> None:
    """Refuse a flag outside the range its subcommand declares."""
    for name, (lowest, highest) in args.ranges.items():
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is not None and value < lowest:
            raise _InvalidArgument(f"{flag} must be at least {lowest}, got {value}")
        if value is not None and highest is not None and value > highest:
            raise _InvalidArgument(f"{flag} must be at most {highest}, got {value}")


def _inputs(args, *texts, operator=False, manifest=()) -> list:
    """The parsed inputs `texts` of a request (`-` reads stdin), operators
    when operator is true, once all are bounded.  An input `--` is refused:
    argparse up to Python 3.12 reads `--name=--` as the value [], and 3.13
    as "--".  A second `-` is refused before stdin is read, since its read
    would get "".  Every input is parsed, then a manifest's operators (the
    pairs of `_load_manifest`) and the inputs are bounded in the order they
    were parsed.  The variational kernels take time quadratic in the jet
    index, so it is bounded at `_MAX_JET_ORDER`, counting an operator's
    power of del and its coefficients, and a subscript past the bound is
    parsed without its key (`parse_input`).  d^n of u_1^-1 has p(n)
    terms, so once an input has a negative power of u_1 every input is
    bounded at `_MAX_LAURENT_JET_ORDER`.  Each polynomial's powers of u_1
    are read at most once, and only once the jet order passes that bound."""
    if any(not isinstance(text, str) or text == "--" for text in texts):
        raise _InvalidArgument("an input may not be '--'")
    if texts.count("-") > 1:
        raise _InvalidArgument("at most one argument may be '-' (stdin)")
    inputs = [parse_input(sys.stdin.read() if text == "-" else text, args.hat, operator)
              for text in texts]
    jet_order, unread = 0, []
    labelled = [("manifest operator", *D) for D in manifest]
    labelled += [("operator" if operator else "expression", *x) for x in inputs]
    for what, x, beyond in labelled:
        polys = x.coeffs.values() if isinstance(x, DiffOperator) else [x]
        order = max([x.order(), beyond, *(p.order() for p in polys)])
        if order > _MAX_JET_ORDER:
            raise _InvalidArgument(f"{what} jet order must be at most {_MAX_JET_ORDER}, "
                                   f"got {order}")
        jet_order = max(order, jet_order)
        unread += polys
        # a request within order 20 pays for no test of its powers of u_1, and
        # past it each polynomial's are read once
        while jet_order > _MAX_LAURENT_JET_ORDER and unread:
            if _is_laurent(unread.pop()):
                raise _InvalidArgument(f"a request with a negative power of u_1 must have "
                                       f"jet order at most {_MAX_LAURENT_JET_ORDER}, "
                                       f"got {jet_order}")
    return [x for x, _ in inputs]


def _even(x, flag) -> None:
    """Refuse a characteristic x, given by `flag`, with an odd part."""
    k = x.theta_degree()
    if x and k != 0:
        raise _InvalidArgument(f"{flag} must have theta-degree 0, got {'mixed' if k is None else k}")


def _load_manifest(args, path):
    """The parsed operators of a manifest, ({order: (operator, subscript
    beyond the jet-order bound)}, truncation) with the base at order 0;
    `_inputs` bounds them and `_series` takes their derivatives."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise _InvalidArgument(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("base"), str):
        raise _InvalidArgument('manifest needs a "base" operator string')
    table = doc.get("corrections", {})
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise _InvalidArgument('manifest "corrections" must map orders to operator strings')
    bad = [k for k in table if not (k.isascii() and k.isdecimal())]
    if bad:
        raise _InvalidArgument(f"manifest correction orders must be decimal integers, "
                               f"got {bad[0]!r}")
    try:
        orders = {int(k): v for k, v in table.items()}
    except ValueError:  # more digits than Python converts; the limit is process-global
        raise _InvalidArgument("a manifest correction order has too many digits") from None
    if len(orders) < len(table):
        raise _InvalidArgument("manifest names a correction order twice")
    table = orders
    trunc = doc.get("truncation", max(table, default=0))
    if type(trunc) is not int:  # JSON true and 2.0 are not integers here
        raise _InvalidArgument(f"manifest truncation must be an integer, got {trunc!r}")
    if trunc < 0 or min(table, default=1) < 1:
        raise _InvalidArgument("manifest correction orders must be at least 1 "
                               "and its truncation at least 0")
    if trunc > _MAX_ORDER:
        raise _InvalidArgument(f"manifest truncation must be at most {_MAX_ORDER}, "
                               f"got {trunc}")
    if max(table, default=0) > trunc:
        raise _InvalidArgument(f"manifest correction order {max(table)} exceeds "
                               f"its truncation {trunc}")
    ops = {0: doc["base"], **table}
    return {k: parse_input(ops[k], args.hat, True) for k in sorted(ops)}, trunc


def _series(ops, trunc) -> EpsilonDeformation:
    corrections = [operator_to_bivector(ops[k][0]) if k in ops
                   else MultiVector(SuperPolynomial(), 2) for k in range(1, trunc + 1)]
    return EpsilonDeformation(operator_to_bivector(ops[0][0]), corrections, trunc)


def _dump_series(D: EpsilonDeformation) -> dict:
    doc = {"base": format_operator(bivector_to_operator(D.base)),
           "corrections": {}, "truncation": D.truncation}
    for k in range(1, D.truncation + 1):
        H = D.term(k)
        if not H.is_zero():
            doc["corrections"][str(k)] = format_operator(bivector_to_operator(H))
    return doc


def _cmd_bracket(args):
    a, b = _inputs(args, args.a, args.b)
    res = schouten_bracket(canonical_class(a), canonical_class(b))
    return {"bracket": str(res.rep), "theta_degree": res.theta_degree}, 0


def _cmd_dtot(args):
    x, = _inputs(args, args.expr)
    return {"result": str(x.total_derivative())}, 0


def _cmd_vder(args):
    x, = _inputs(args, args.expr)
    r = variational_derivative(x, args.slot, level=args.level)
    return {"result": str(r), "slot": args.slot, "level": args.level}, 0


def _cmd_normalize(args):
    x, = _inputs(args, args.expr)
    return {"result": str(normalize_N(x))}, 0


def _cmd_check_hamiltonian(args):
    D, = _inputs(args, args.op, operator=True)
    ok = is_hamiltonian(operator_to_bivector(D))
    return {"hamiltonian": ok}, 0 if ok else 1


def _cmd_check_compatible(args):
    D1, D2 = _inputs(args, args.op1, args.op2, operator=True)
    B1, B2 = operator_to_bivector(D1), operator_to_bivector(D2)
    ok = is_hamiltonian(B1) and is_hamiltonian(B2) and are_compatible(B1, B2)
    return {"compatible": ok}, 0 if ok else 1


def _cmd_hierarchy(args):
    hams = hierarchy(args.n)
    return {"hamiltonians": [
        {"index": i - 1, "density": str(H.rep),
         "flow": str(hierarchy_flow(H).chars[0])}
        for i, H in enumerate(hams)
    ]}, 0


def _cmd_symmetries(args):
    # the time grows with the column count and, per column, with the degree
    max_order = args.degree if args.max_order is None else args.max_order
    columns = len(enumerate_basis(GradedSlice(max_order, 0), 0, args.degree))
    cost = columns * (args.max_udeg + 1) * args.degree ** 2
    if cost > _MAX_SLICE_COST:
        raise _InvalidArgument(f"symmetries slice columns times degree squared must be at "
                               f"most {_MAX_SLICE_COST}, got {cost}")
    basis = symmetry_space(args.degree, args.max_udeg, max_order=args.max_order)
    return {"degree": args.degree, "dimension": len(basis),
            "basis": sorted(str(b) for b in basis)}, 0


def _cmd_obstruction(args):
    ops, trunc = _load_manifest(args, args.manifest)
    _inputs(args, manifest=ops.values())
    D = _series(ops, trunc)
    order = args.order if args.order is not None else D.truncation
    res, ob = _residual_and_obstruction(D, order)
    doc = {"mc_residual": [str(r.rep) for r in res], "is_deformation": ob is not None}
    if ob is not None:
        doc["order"] = order
        doc["obstruction"] = str(ob.rep)
    return doc, 0


def _cmd_miura_push(args):
    ops, trunc = _load_manifest(args, args.manifest)
    x, = _inputs(args, args.x, manifest=ops.values())
    _even(x, "--x")  # theta^2 = 0 would drop an odd part of x from X
    D = _series(ops, trunc)
    X = EvolutionaryVF(x).as_class()
    N = args.order if args.order is not None else D.truncation
    return _dump_series(miura_push(D, X, args.weight, N)), 0


def _cmd_quasi_trivialize(args):
    g, = _inputs(args, args.g)
    _even(g, "--g")
    witness, c1 = quasi_trivialize_from_generator(g, args.degree)
    if isinstance(witness, NontrivialAtDegreeZero):
        return {"trivial": False, "cocycle": str(c1.rep),
                "reason": "nontrivial-at-degree-zero"}, 1
    return {"trivial": True, "cocycle": str(c1.rep),
            "witness_characteristic": str(witness.chars[0])}, 0


def _cmd_psi_check(args):
    ok = psi_check()
    return {"holds": ok, "psi": str(psi_density())}, 0 if ok else 1


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
        return dkdv_pencil().d_Q(witness.as_class()) == c1

    check("quasi-trivialize-deg2", quasi_deg2)
    ok = all(c["pass"] for c in checks)
    return {"ok": ok, "checks": checks}, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    pretty = common.add_argument("--pretty", action="store_true", help="indented JSON output")
    common.set_defaults(ranges={})
    # --hat only for the subcommands that parse an expression, operator or manifest
    hat = argparse.ArgumentParser(add_help=False)
    flags = [hat.add_argument("--hat", action="store_true", help="allow Laurent powers of u_1"),
             pretty]
    parsed = [hat, common]

    ap = argparse.ArgumentParser(
        prog="jetbrackets",
        description="Exact variational calculus of functional multivectors "
                    "on jet space.")
    sub = ap.add_subparsers(dest="command", required=True)
    # each subcommand's actions, its parents' included, as add_argument
    # returns them: `_read` reads a well-formed request from them
    declared = {}

    p = sub.add_parser("bracket", parents=parsed,
                       help="Schouten bracket of two densities")
    declared["bracket"] = [*flags, p.add_argument("a"), p.add_argument("b")]
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("dtot", parents=parsed, help="total derivative")
    declared["dtot"] = [*flags, p.add_argument("expr")]
    p.set_defaults(func=_cmd_dtot)

    p = sub.add_parser("vder", parents=parsed,
                       help="(higher) variational derivative")
    declared["vder"] = [*flags, p.add_argument("expr"),
                        p.add_argument("--slot", choices=("u", "theta"), default="u"),
                        p.add_argument("--level", type=int, default=0)]
    p.set_defaults(func=_cmd_vder, ranges={"level": (0, None)})

    p = sub.add_parser("normalize", parents=parsed,
                       help="normalization operator N")
    declared["normalize"] = [*flags, p.add_argument("expr")]
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check-hamiltonian", parents=parsed,
                       help="certify [[D, D]] = 0 for an operator")
    declared["check-hamiltonian"] = [*flags, p.add_argument("op")]
    p.set_defaults(func=_cmd_check_hamiltonian)

    p = sub.add_parser("check-compatible", parents=parsed,
                       help="certify a pair of operators as a pencil")
    declared["check-compatible"] = [*flags, p.add_argument("op1"), p.add_argument("op2")]
    p.set_defaults(func=_cmd_check_compatible)

    p = sub.add_parser("hierarchy", parents=[common],
                       help="dispersionless KdV Hamiltonians H_{-1}..H_n")
    declared["hierarchy"] = [pretty, p.add_argument("--n", type=int, required=True)]
    p.set_defaults(func=_cmd_hierarchy, ranges={"n": (0, 2_000)})

    p = sub.add_parser("symmetries", parents=[common],
                       help="joint kernel of d_P and d_Q in a graded slice")
    declared["symmetries"] = [
        pretty, p.add_argument("--degree", type=int, required=True),
        p.add_argument("--max-order", type=int, default=None,
                       help="cap on the jet order of the slice (default: the degree)"),
        p.add_argument("--max-udeg", type=int, default=6,
                       help="cap on the power of u in the slice (default: 6)")]
    p.set_defaults(func=_cmd_symmetries, ranges={
        "max_order": (0, None), "max_udeg": (0, 1_000), "degree": (0, 11)})

    p = sub.add_parser("obstruction", parents=parsed,
                       help="Maurer-Cartan residuals and obstruction cocycle "
                            "of a deformation manifest")
    declared["obstruction"] = [*flags, p.add_argument("manifest"),
                               p.add_argument("--order", type=int, default=None)]
    p.set_defaults(func=_cmd_obstruction, ranges={"order": (0, _MAX_ORDER)})

    p = sub.add_parser("miura-push", parents=parsed,
                       help="push a deformation manifest along exp(-eps^p ad_X)")
    declared["miura-push"] = [*flags, p.add_argument("manifest"),
                              p.add_argument("--x", required=True, help="characteristic of X"),
                              p.add_argument("--weight", type=int, default=1),
                              p.add_argument("--order", type=int, default=None)]
    p.set_defaults(func=_cmd_miura_push, ranges={"order": (0, _MAX_ORDER), "weight": (1, None)})

    p = sub.add_parser("quasi-trivialize", parents=parsed,
                       help="quasi-triviality witness for the tail cocycle "
                            "d_P int(g theta) dx")
    declared["quasi-trivialize"] = [*flags, p.add_argument("--g", required=True),
                                    p.add_argument("--degree", type=int, default=None)]
    p.set_defaults(func=_cmd_quasi_trivialize, ranges={"degree": (0, None)})

    p = sub.add_parser("psi-check", parents=[common],
                       help="verify the quasi-Miura seed identity")
    declared["psi-check"] = [pretty]
    p.set_defaults(func=_cmd_psi_check)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in acceptance identities")
    declared["selftest"] = [pretty]
    p.set_defaults(func=_cmd_selftest)
    # the parsers and their actions by subcommand name, where `_read` finds them
    ap.set_defaults(subcommands=sub.choices, declared=declared)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves every
    # request; it is built on first use, not at import
    return build_parser()


@functools.lru_cache(maxsize=1)
def _grammar(ap) -> dict:
    """What `_read` needs of each subcommand of `ap`, from the actions that
    `build_parser` declares: its options by option string, its positional
    actions in order, its required options, and the Namespace values of a
    request that gives no option: the tables `ap` holds as defaults, which
    argparse puts in every Namespace, and the subcommand's `func` and
    `ranges`."""
    table, tables = {}, {k: ap.get_default(k) for k in ("subcommands", "declared")}
    for name, actions in tables["declared"].items():
        sub = tables["subcommands"][name]
        table[name] = (
            {s: a for a in actions for s in a.option_strings},
            [a for a in actions if not a.option_strings],
            {a for a in actions if a.option_strings and a.required},
            {**tables, "command": name, "func": sub.get_default("func"),
             "ranges": sub.get_default("ranges"),
             **{a.dest: sub.get_default(a.dest) for a in actions if a.option_strings}})
    return table


# argparse's test for an argument that starts with "-" and is a negative
# number, so a value, in a parser with no option that looks like one: the
# pattern argparse keeps from CPython 2.7 to 3.13.0.  A later argparse that
# widens it makes the reader decline more argvs, never read one otherwise.
# Reading `vder --level -1` here, not in the full parser, saves about 55 us.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _value_like(arg) -> bool:
    """Whether argparse reads `arg`, before any `--`, as a value."""
    return not arg.startswith("-") or arg == "-" or _NEGATIVE_NUMBER.match(arg) is not None


def _store(values, action, text) -> bool:
    """Store `text` (None for a flag) as argparse stores it for `action` in
    `values`; False where argparse would refuse it."""
    if text is None:
        values[action.dest] = action.const
        return True
    try:
        value = text if action.type is None else action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return False
    values[action.dest] = value
    return action.choices is None or value in action.choices


def _read(argv):
    """The Namespace that argparse makes of `argv` when it is a well-formed
    request (see the module docstring), else None: then argparse reads it."""
    grammar = _grammar(_parser()).get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, positionals, required, defaults = grammar
    values, words, seen = dict(defaults), [], set()
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            if words:  # a positional before `--`
                return None
            words = list(args)
            if not words or "--" in words:
                return None
        elif _value_like(arg):
            words.append(arg)
        else:
            action = options.get(arg)
            if action is not None:
                # a missing value is refused as "--" is
                text = None if action.nargs == 0 else next(args, "--")
                if text is not None and not _value_like(text):
                    return None
            else:
                name, _, text = arg.partition("=")
                action = options.get(name)
                if action is None or action.nargs == 0 or text == "--":
                    return None
            if not _store(values, action, text):
                return None
            seen.add(action)
    if len(words) != len(positionals) or not required <= seen:
        return None
    for action, text in zip(positionals, words):
        if not _store(values, action, text):
            return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def main(argv=None) -> int:
    """Answer one request: the command's document, or an error object, is
    the one JSON document written to stdout."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        _in_range(args)
        doc, code = args.func(args)
    except Exception as exc:  # noqa: BLE001 - every failure becomes an error object
        error = {"code": _error_code(exc), "message": str(exc)}
        if isinstance(exc, ParseError):
            error["column"] = exc.column
            if exc.expected:
                error["expected"] = list(exc.expected)
        elif error["code"] == "internal-error":
            error["message"] = f"{type(exc).__name__}: {exc}"
            import traceback  # loaded only here: a normal run never needs it

            traceback.print_exc()
        doc, code = {"error": error}, 2
    print((_PRETTY if args.pretty else _COMPACT).encode(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
