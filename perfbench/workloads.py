"""The four seeded workloads of the jetbrackets benchmark.

A workload is an endless sequence of passes; pass k is a list of operations.
Each operation is one call into the engine plus a known-answer check of what
the call returned.  Inputs are split in two:

* the *shape* of each input (which monomials, which theta-degrees, which
  subcommand) comes from a fixed per-pass stream that every seed shares, so
  every seed asks the engine for the same amount of work;
* the *values* (rational coefficients, scalings, the order of requests
  within a pass) come from ``--seed``.

The op costs of random exact-algebra inputs are heavy-tailed (one graded
Jacobi triple can cost 100 times the median), so drawing the shapes from the
seed as well would make the run-to-run spread of any mean-based metric far
wider than a useful regression bound.

Only names exported by ``jetbrackets/__init__.py``, ``SuperPolynomial``
methods and ``jetbrackets.cli.main`` are used, and always through the module
attribute at call time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import jetbrackets as jb
from jetbrackets import cli


@dataclass
class Op:
    """One engine call and the check of its result.

    ``run`` returns the engine's output; ``check`` maps it to
    ``(ok, text)`` where ``text`` is the canonical output that feeds the
    determinism digest.  ``defect`` names a known engine defect this op
    exercises; a failure of such an op is counted but expected.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    defect: str | None = None
    stdout_bytes: int = 0


def _coeff(rng):
    return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))


def _rngs(name, seed, k):
    """(shape stream shared by every seed, value stream of this seed) for pass k."""
    return random.Random(f"{name}/shape/{k}"), random.Random(f"{name}/{seed}/{k}")


# ---------------------------------------------------------------------------
# qt-ladder: quasi-trivialization of seeded tail cocycles, ell = 3..6
# ---------------------------------------------------------------------------

def qt_ladder(seed, k, size):
    # every pass repeats the same shapes: a pass takes many seconds, so
    # whether a run fits one or two of them must not change what is measured
    shape, value = _rngs("qt-ladder", seed, k)
    shape = random.Random("qt-ladder/shape")
    pencil = jb.dkdv_pencil()
    ells = (3,) if size == "smoke" else (3, 4, 5, 6)
    ops = []
    for ell in ells:
        basis = jb.enumerate_basis(jb.GradedSlice(max_order=2, max_udeg=2), 0, ell)
        while True:
            picks = shape.sample(basis, min(2, len(basis)))
            for _ in range(4):
                w = jb.SuperPolynomial.zero()
                for b in picks:
                    w = w + b * _coeff(value)
                c1 = pencil.d_Q(pencil.d_P(jb.canonical_class(w)))
                if not c1.is_zero():
                    break
            if not c1.is_zero():
                break
        ops.append(Op(f"qt-ladder.ell{ell}",
                      lambda c1=c1: jb.quasi_trivialize(c1),
                      lambda b0, c1=c1: _check_witness(b0, c1)))
    return ops


def _check_witness(b0, c1):
    if not isinstance(b0, jb.EvolutionaryVF):
        return False, repr(b0)
    pencil = jb.dkdv_pencil()
    cls = b0.as_class()
    ok = pencil.d_P(cls).is_zero() and pencil.d_Q(cls) == c1.to_hat()
    return ok, str(b0.chars[0])


# ---------------------------------------------------------------------------
# sym-scan: joint kernel of d_P and d_Q, ell = 1..7 over several u-power caps
# ---------------------------------------------------------------------------

SYM_CAPS = (2, 3, 4, 5)


def sym_scan(seed, k, size):
    _, value = _rngs("sym-scan", seed, k)
    grid = [(1, ell) for ell in (1, 2, 3)] if size == "smoke" else \
        [(cap, ell) for cap in SYM_CAPS for ell in range(1, 8)]
    value.shuffle(grid)
    return [Op(f"sym-scan.ell{ell}",
               lambda ell=ell, cap=cap: jb.symmetry_space(ell, cap),
               lambda basis, ell=ell, cap=cap: _check_symmetries(basis, ell, cap))
            for cap, ell in grid]


def _check_symmetries(basis, ell, cap):
    """Dimension cap + 1 (span of u_1 u^d) at ell = 1, and 0 above."""
    text = ";".join(sorted(str(b) for b in basis))
    if ell != 1:
        return not basis, text
    allowed = {((((1, 0), d), ((1, 1), 1)) if d else (((1, 1), 1),), ())
               for d in range(cap + 1)}
    ok = len(basis) == cap + 1 and all(set(b.terms) <= allowed for b in basis)
    return ok, text


# ---------------------------------------------------------------------------
# jacobi: graded Jacobi identity and d_P d_Q = -d_Q d_P on seeded inputs
# ---------------------------------------------------------------------------

JACOBI_HAT_EVERY = 8     # one triple in eight is Laurent in u_1


def _density(shape, value, theta_degree, max_order, hat, terms=2, max_udeg=2):
    SP = jb.SuperPolynomial
    out = SP.zero(1, hat)
    for _ in range(terms):
        m = SP.const(_coeff(value), 1, hat)
        for _ in range(shape.randint(0, max_udeg)):
            m = m * SP.u(shape.randint(0, max_order), hat=hat)
        if hat and shape.random() < 0.4:
            m = m * SP.u(1, power=-1, hat=True)
        for j in shape.sample(range(0, max_order + 1), theta_degree):
            m = m * SP.theta(j, hat=hat)
        out = out + m
    return out


def jacobi(seed, k, size):
    """Pass k: two Jacobi triples and one anticommutation check."""
    shape, value = _rngs("jacobi", seed, k)
    order = 2 if size == "smoke" else 3
    ops = []
    for t in range(2):
        hat = (2 * k + t) % JACOBI_HAT_EVERY == JACOBI_HAT_EVERY - 1
        ka, kb, kc = shape.randint(1, 3), shape.randint(1, 3), shape.randint(0, 2)
        dens = [_density(shape, value, d, order, hat) for d in (ka, kb, kc)]
        ops.append(Op("jacobi.hat" if hat else "jacobi.triple",
                      lambda dens=dens, ka=ka, kb=kb: _jacobi_sides(dens, ka, kb),
                      _check_equal))
    a = _density(shape, value, shape.randint(0, 2), order, False, terms=3)
    ops.append(Op("jacobi.anticommute", lambda a=a: _anticommute_sides(a), _check_equal))
    value.shuffle(ops)
    return ops


def _jacobi_sides(dens, ka, kb):
    a, b, c = (jb.canonical_class(d) for d in dens)
    S = jb.schouten_bracket
    sign = 1 if (ka - 1) * (kb - 1) % 2 == 0 else -1
    return S(a, S(b, c)), S(S(a, b), c) + S(b, S(a, c)).scale(sign)


def _anticommute_sides(a):
    pencil = jb.dkdv_pencil()
    A = jb.canonical_class(a)
    return pencil.d_P(pencil.d_Q(A)), pencil.d_Q(pencil.d_P(A)).scale(-1)


def _check_equal(sides):
    lhs, rhs = sides
    return lhs == rhs, str(lhs.rep)


# ---------------------------------------------------------------------------
# cli-mix: in-process CLI requests with captured stdout
# ---------------------------------------------------------------------------

def _cli_call(argv, op):
    """Run cli.main(argv) with stdout and stderr captured.

    Returns (exit code, stdout text, escaped exception or None).  An
    exception escaping main, SystemExit from argparse included, is caught
    here so that it counts as a failed op instead of ending the run.
    """
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code, exc = e.code, e
        except Exception as e:  # noqa: BLE001 - counted as a failed op
            exc = e
    text = out.getvalue()
    op.stdout_bytes = len(text.encode("utf-8"))
    return code, text, exc


def _doc(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _hier_coeffs(n):
    """c_{-1}..c_n of H_m = c_m int u^{m+2} dx: c_{m+1} = (m+3/2)/(m+3) c_m."""
    c = [Fraction(4, 3)]
    for m in range(-1, n):
        c.append(c[-1] * (m + Fraction(3, 2)) / (m + 3))
    return c


def _zero_result(code, doc):
    return code == 0 and doc is not None and doc.get("result") == "0"


def _true(key):
    return lambda code, doc: code == 0 and doc is not None and doc.get(key) is True


def _error(err_code):
    def check(code, doc):
        if code != 2 or doc is None or "error" not in doc:
            return False
        return err_code is None or doc["error"].get("code") == err_code
    return check


def _cli_op(label, argv, check, defect=None):
    """A CLI request; ``argv`` may be a callable evaluated when the op runs,
    for requests that feed on the output of an earlier one."""
    op = Op(f"cli-mix.{label}", None, None, defect)
    op.run = lambda: _cli_call(argv() if callable(argv) else argv, op)

    def checked(res):
        code, text, exc = res
        if exc is not None and not isinstance(exc, SystemExit):
            return False, f"{type(exc).__name__}: {exc}"
        return check(code, _doc(text)), f"{code} {text}"

    op.check = checked
    return op


def _chain(label, first_argv, key, second_argv, relation, first_label=None):
    """Two requests where the second reads the first's output field ``key``;
    the pair passes when ``relation(first_doc, second_doc)`` holds."""
    seen = {}

    def first_ok(code, doc):
        seen["doc"] = doc
        return code == 0 and doc is not None and key in doc

    def second_ok(code, doc):
        return code == 0 and doc is not None and seen.get("doc") is not None \
            and relation(seen["doc"], doc)

    return [_cli_op(first_label or label, first_argv, first_ok),
            _cli_op(label, lambda: second_argv((seen.get("doc") or {}).get(key, "")),
                    second_ok)]


def cli_mix(seed, k, size, workdir):
    """Pass k: one request group per subcommand, plus malformed requests, in
    seeded order.  A group is one request or a dependent pair."""
    sh, va = _rngs("cli-mix", seed, k)
    smoke = size == "smoke"
    SP = jb.SuperPolynomial
    P = jb.parse_density

    def dens(theta_degree, hat=False):
        return str(_density(sh, va, theta_degree, 2, hat))

    groups = []

    # bracket with swapped arguments obeys graded antisymmetry
    p, q = sh.randint(1, 2), sh.randint(1, 2)
    a, b = dens(p), dens(q)
    sign = -1 if (p - 1) * (q - 1) % 2 == 0 else 1
    groups.append(_chain("bracket", ["bracket", "--", a, b], "bracket",
                         lambda _: ["bracket", "--", b, a],
                         lambda d1, d2: P(d1["bracket"]) == P(d2["bracket"]) * sign))

    # normalize applied twice is k times normalize applied once
    td = sh.randint(1, 3)
    groups.append(_chain("normalize", ["normalize", "--", dens(td)], "result",
                         lambda r: ["normalize", "--", r],
                         lambda d1, d2: P(d2["result"]) == P(d1["result"]) * td))

    # the variational derivative kills total derivatives
    slot = sh.choice(("u", "theta"))
    groups.append([_cli_op("vder", ["vder", "--slot", slot, "--",
                                    f"d({dens(0 if slot == 'u' else 1)})"], _zero_result)])
    flags = ["--hat"] if sh.random() < 0.5 else []
    groups.append(_chain("vder", ["dtot", *flags, "--", dens(0, hat=bool(flags))], "result",
                         lambda r: ["vder", *flags, "--", r],
                         lambda d1, d2: d2.get("result") == "0", first_label="dtot"))

    # Hamiltonian and compatible operators
    c = [_coeff(va) for _ in range(5)]
    groups.append([_cli_op("check-hamiltonian", [
        "check-hamiltonian", f"D: {c[0]}*del + {c[1]}*del^3 + {c[2]}*del^5"],
        _true("hamiltonian"))])
    groups.append([_cli_op("check-hamiltonian", [
        "check-hamiltonian", f"D: {c[3]}*u*del + {c[3] / 2}*u_1"], _true("hamiltonian"))])
    groups.append([_cli_op("check-compatible", [
        "check-compatible", f"D: {c[4]}*del", f"D: {c[0]}*u*del + {c[0] / 2}*u_1"],
        _true("compatible"))])

    # hierarchy against the closed recursion for c_n
    n = sh.randint(0, 1 if smoke else 3)
    want = [SP.u(0) ** (m + 1) * cm for m, cm in enumerate(_hier_coeffs(n))]
    groups.append([_cli_op("hierarchy", ["hierarchy", "--n", str(n)], lambda code, doc:
                           code == 0 and doc is not None and
                           [P(h["density"]) for h in doc["hamiltonians"]] == want)])

    groups.append([_cli_op("psi-check", ["psi-check"], _true("holds"))])

    # degree-2 tail generators d(u_1 p(u)) are quasi-trivial
    pu = " + ".join(f"{_coeff(va)}*u^{d}" for d in range(sh.randint(1, 2) + 1))
    groups.append([_cli_op("quasi-trivialize",
                           ["quasi-trivialize", "--g", f"d(u_1*({pu}))"], _true("trivial"))])

    ell, cap = sh.randint(1, 3), sh.randint(1, 3)
    groups.append([_cli_op("symmetries",
                           ["symmetries", "--degree", str(ell), "--max-udeg", str(cap)],
                           lambda code, doc: code == 0 and doc is not None and
                           doc["dimension"] == (cap + 1 if ell == 1 else 0))])

    # manifests: c del^3 on the Q operator is a deformation; a constant
    # operator is left unchanged by the flows of u_1 and u_3
    workdir.mkdir(parents=True, exist_ok=True)
    obs = workdir / f"obstruction-{k}.json"
    obs.write_text(json.dumps({"base": "D: u*del + 1/2*u_1",
                               "corrections": {"2": f"D: {_coeff(va)}*del^3"},
                               "truncation": 4}), encoding="utf-8")
    groups.append([_cli_op("obstruction", ["obstruction", str(obs)], lambda code, doc:
                           code == 0 and doc is not None and doc["is_deformation"] is True
                           and set(doc["mc_residual"]) == {"0"} and doc["obstruction"] == "0")])
    cbase = _coeff(va)
    mia = workdir / f"miura-{k}.json"
    mia.write_text(json.dumps({"base": f"D: {cbase}*del", "truncation": 2}), encoding="utf-8")
    x = f"{_coeff(va)}*{sh.choice(('u_1', 'u_3'))}"
    groups.append([_cli_op("miura-push",
                           ["miura-push", str(mia), f"--x={x}", "--weight", str(sh.randint(1, 2))],
                           lambda code, doc: code == 0 and doc is not None
                           and jb.parse_operator(doc["base"]) == jb.parse_operator(f"D: {cbase}*del")
                           and doc["corrections"] == {})])

    if not smoke:
        groups.append([_cli_op("selftest", ["selftest"], _true("ok"))])

    # malformed requests answer exit 2 with an error object
    good = dens(0)
    cut = sh.randint(1, max(1, len(good) - 1))
    for bad in (good[:cut] + "*+" + good[cut:], f"({good}", good + " v_2"):
        groups.append([_cli_op("malformed", ["dtot", "--", bad], _error("parse-error"))])
    # known engine defects, kept on purpose: a negative level escapes main as
    # ValueError, and d(u_1^-1) is trivial but is reported nontrivial
    groups.append([_cli_op("malformed", ["vder", "--level", "-1", "--", good], _error(None),
                           defect="vder-negative-level")])
    groups.append([_cli_op("quasi-trivialize-hat",
                           ["quasi-trivialize", "--hat", "--g", "d(u_1^-1)"], _true("trivial"),
                           defect="hat-degree-zero-verdict")])

    va.shuffle(groups)
    return [op for g in groups for op in g]


def make_pass(name, seed, k, size, workdir: Path):
    if name == "cli-mix":
        return cli_mix(seed, k, size, workdir)
    return {"qt-ladder": qt_ladder, "sym-scan": sym_scan, "jacobi": jacobi}[name](seed, k, size)

