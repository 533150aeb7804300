"""Every CLI flag changes an answer, and each fact on the CLI's paths is
checked once.

`--json` is gone and `--hat` belongs only to the subcommands that parse an
expression, operator or manifest; the obstruction cocycle is read off the
Maurer-Cartan residual of the cut series, which an obstruction request takes
once; the degree-0 tail class and the operator read-off each check their
condition once.  Quasi-triviality at degree ell0 >= 1 is proved by the final
witness check alone: no S-system is evaluated and closure is not bracketed
on the way to a witness, and the S-system is re-verified here after every
reduction step instead.  Also here: a slice with jet-order cap 0 admits no
u_1, and the parser refuses a nested `d(...)` of a Laurent input before its
terms grow.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from jetbrackets import (
    AlgebraError,
    DiffOperator,
    EpsilonDeformation,
    EvolutionaryVF,
    GradedSlice,
    MCViolation,
    MultiVector,
    ParseError,
    SuperPolynomial as SP,
    bivector_to_operator,
    canonical_class,
    enumerate_basis,
    mc_residual,
    obstruction,
    operator_to_bivector,
    parse_density,
    parse_operator,
    schouten_bracket,
)
import jetbrackets.deform as deform
import jetbrackets.dkdv as dkdv
import jetbrackets.schouten as schouten
from jetbrackets.cli import build_parser, main
from jetbrackets.dkdv import (CocyclePair, dkdv_pencil, quasi_trivialize,
                              quasi_trivialize_from_generator)

# one request per subcommand; the first nine parse an expression, operator
# or manifest
_REQUESTS = {
    "bracket": ["bracket", "u*theta", "u*theta"],
    "dtot": ["dtot", "u"],
    "vder": ["vder", "u"],
    "normalize": ["normalize", "u*theta"],
    "check-hamiltonian": ["check-hamiltonian", "D: del"],
    "check-compatible": ["check-compatible", "D: del", "D: del"],
    "obstruction": ["obstruction", "manifest.json"],
    "miura-push": ["miura-push", "manifest.json", "--x", "u_1"],
    "quasi-trivialize": ["quasi-trivialize", "--g", "d(u_1*u)"],
    "hierarchy": ["hierarchy", "--n", "1"],
    "symmetries": ["symmetries", "--degree", "1"],
    "psi-check": ["psi-check"],
    "selftest": ["selftest"],
}
_IDLE = ["hierarchy", "symmetries", "psi-check", "selftest"]


def _usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv)
    return exit_.value.code, err.getvalue()


@pytest.mark.parametrize("name", list(_REQUESTS))
def test_json_flag_is_a_usage_error(name):
    code, err = _usage_error(_REQUESTS[name] + ["--json"])
    assert code == 2 and "unrecognized arguments: --json" in err


@pytest.mark.parametrize("name", _IDLE)
def test_hat_on_a_subcommand_that_parses_nothing_is_a_usage_error(name):
    code, err = _usage_error(_REQUESTS[name] + ["--hat"])
    assert code == 2 and "unrecognized arguments: --hat" in err


@pytest.mark.parametrize("name", list(_REQUESTS))
def test_pretty_everywhere_and_hat_where_an_input_is_parsed(name):
    args = build_parser().parse_args(_REQUESTS[name] + ["--pretty"])
    assert args.pretty is True
    assert build_parser().parse_args(_REQUESTS[name]).pretty is False
    if name not in _IDLE:
        assert build_parser().parse_args(_REQUESTS[name] + ["--hat"]).hat is True
        assert build_parser().parse_args(_REQUESTS[name]).hat is False


# -- the obstruction cocycle -------------------------------------------------

def _reference_obstruction(D, n):
    """The pair loop obstruction() used before it read the cocycle off
    mc_residual: sum_{i=1}^{n} [[H_i, H_{n-i+1}]] over nonzero corrections."""
    if not all(r.is_zero() for r in mc_residual(D, n)):
        raise MCViolation(f"not a deformation of order {n}")
    orders = [k for k, H in enumerate(D.corrections[:n], 1) if not H.is_zero()]
    nonzero = set(orders)
    acc = MultiVector(SP(), 3)
    for i in orders:
        if n - i + 1 in nonzero:
            acc = acc + schouten_bracket(D.term(i), D.term(n - i + 1))
    return acc


u, th = SP.u(0), SP.theta(0)
P = operator_to_bivector(DiffOperator.d(1))
Q = operator_to_bivector(parse_operator("D: u*del + 1/2*u_1"))
B3 = operator_to_bivector(parse_operator("D: 3/2*del^3"))
ZERO = MultiVector(SP(), 2)
# d_P-exact, so d_P-closed, with [[EXACT, EXACT]] != 0 and [[Q, EXACT]] != 0
EXACT = schouten.schouten_bracket(P, canonical_class(SP.u(1) ** 2 * th))
# d_Q-exact, with [[P, Q_EXACT]] != 0
Q_EXACT = schouten.schouten_bracket(Q, canonical_class(SP.u(1) ** 2 * th))
# skew-adjoint but not d_Q-closed
NOT_CLOSED = operator_to_bivector(parse_operator("D: 2*u*del^3 + 3*u_1*del^2 + 3*u_2*del + u_3"))


def _series(corrections, truncation=None, base=P):
    return EpsilonDeformation(base, corrections, truncation)


_OBSTRUCTIONS = {
    # [[H_0, H_2]] != 0 above n = 1: the cut drops it, and [[H_1, H_1]] != 0
    "above-n": (_series([EXACT, Q_EXACT, Q]), 1, True),
    # one nonzero pair across a long series: 2 [[H_1, H_20]]
    "sparse": (_series([Q] + [ZERO] * 18 + [EXACT], 40), 20, True),
    "n-zero": (_series([EXACT, Q]), 0, False),
    # n = 3 above the truncation 2: [[H_2, H_2]]
    "n-above-truncation": (_series([ZERO, EXACT]), 3, True),
    "n-far-above-truncation": (_series([Q, B3]), 5, False),
    "kdv": (_series([ZERO, B3], 4, base=Q), 4, False),
    "mc-violation": (_series([NOT_CLOSED], base=Q), 1, None),
}


@pytest.mark.parametrize("name", list(_OBSTRUCTIONS))
def test_obstruction_matches_the_pair_loop(name):
    D, n, nonzero = _OBSTRUCTIONS[name]
    if nonzero is None:
        with pytest.raises(MCViolation, match=f"not a deformation of order {n}"):
            _reference_obstruction(D, n)
        with pytest.raises(MCViolation, match=f"not a deformation of order {n}"):
            obstruction(D, n)
        return
    want = _reference_obstruction(D, n)
    got = obstruction(D, n)
    assert got == want and str(got.rep) == str(want.rep)
    assert got.theta_degree == 3
    assert (not got.is_zero()) == nonzero


# -- the epsilon-series ------------------------------------------------------

def _reference_mc_residual(D, up_to=None):
    """mc_residual before it bracketed each unordered pair once: every
    ordered pair (i, k-i) bracketed, summed and halved."""
    n = D.truncation if up_to is None else up_to
    orders = [k for k, H in enumerate(D.corrections[:n], 1) if not H.is_zero()]
    nonzero = set(orders)
    out = []
    for k in range(1, n + 1):
        acc = inner = MultiVector(SP(), 3)
        if k in nonzero:
            acc = schouten.schouten_bracket(D.term(0), D.term(k))
        for i in orders:
            if i >= k:
                break
            if k - i in nonzero:
                inner = inner + schouten.schouten_bracket(D.term(i), D.term(k - i))
        out.append(acc + inner.scale(Fraction(1, 2)))
    return out


def _reference_miura_push(D, X, weight=1, truncation=None):
    """miura_push before its running term: ad_X^m H_k, with (-1)^m and 1/m!
    kept apart and the bound tested twice."""
    if isinstance(X, EvolutionaryVF):
        X = X.as_class()
    N = D.truncation if truncation is None else truncation
    p = weight
    out = [MultiVector(SP(), 2) for _ in range(N + 1)]
    for k in range(0, N + 1):
        H = D.term(k)
        if H.is_zero():
            continue
        m = 0
        cur = H
        fact = Fraction(1)
        while k + m * p <= N:
            out[k + m * p] = out[k + m * p] + cur.scale(fact * (-1) ** m)
            m += 1
            if k + m * p > N:
                break
            cur = schouten.schouten_bracket(X, cur)
            fact = fact / m
    return EpsilonDeformation(out[0], out[1:], N)


def _same_classes(got, want):
    assert [str(c.rep) for c in got] == [str(c.rep) for c in want]
    assert [c.theta_degree for c in got if not c.is_zero()] == \
        [c.theta_degree for c in want if not c.is_zero()]


def _terms(D):
    return [D.term(k) for k in range(D.truncation + 1)]


# KdV through eps^8, and its quasi-Miura generator at eps^2
KDV = _series([ZERO, B3], 8, base=Q)
KDV_X = canonical_class(parse_density("1/2*u_1^-2*u_2^2*theta - 1/2*u_1^-1*u_3*theta", hat=True))
# nonzero corrections at eps^2, 4, 6 and 8, and not a deformation
EVEN = _series([ZERO, EXACT, ZERO, Q_EXACT, ZERO, Q, ZERO, B3])

_PUSHES = {
    "kdv-weight-1": (KDV, KDV_X, 1, 6),
    "kdv-weight-2": (KDV, KDV_X, 2, None),
    "kdv-zero-class": (KDV, MultiVector(SP(), 1), 1, None),
    "kdv-zero-field": (KDV, EvolutionaryVF(SP()), 2, None),
    "kdv-field": (KDV, EvolutionaryVF(KDV_X._delta_theta()), 2, None),
    "even-weight-1": (EVEN, canonical_class(u * SP.u(1) * th), 1, 4),
    "even-weight-2": (EVEN, canonical_class(u * SP.u(1) * th), 2, None),
}


@pytest.mark.parametrize("name", list(_PUSHES))
def test_miura_push_and_mc_residual_match_their_loops(name):
    D, X, weight, N = _PUSHES[name]
    got = deform.miura_push(D, X, weight, N)
    want = _reference_miura_push(D, X, weight, N)
    assert got == want and got.truncation == want.truncation
    _same_classes(_terms(got), _terms(want))
    for series in (D, got):
        _same_classes(mc_residual(series), _reference_mc_residual(series))
    if X.is_zero():
        assert got == D


def test_kdv_quasi_miura_push_clears_eps_squared():
    pushed = deform.miura_push(KDV, quasi_trivialize(B3.scale(-1)), 2)
    assert quasi_trivialize(B3.scale(-1)).as_class() == KDV_X
    assert pushed.term(2).is_zero() and not pushed.term(4).is_zero()
    assert all(r.is_zero() for r in mc_residual(pushed))


def test_mc_residual_brackets_each_unordered_pair_once(monkeypatch):
    want = _reference_mc_residual(EVEN)
    calls = _counting_brackets(monkeypatch)
    got = mc_residual(EVEN)
    # [[H_0, H_k]] for k = 2, 4, 6, 8 and the pairs {2, 2}, {2, 4}, {2, 6},
    # {4, 4}; the ordered loop made 10, bracketing {2, 4} and {2, 6} twice
    assert len(calls) == 8
    _same_classes(got, want)
    assert not got[3].is_zero() and not got[7].is_zero()
    del calls[:]
    _reference_mc_residual(EVEN)
    assert len(calls) == 10


def test_miura_push_stops_at_a_zero_term(monkeypatch):
    # [[u_1 theta, P]] = 0 (the flow of d commutes with d), and every
    # correction is zero, so one bracket is taken
    X = canonical_class(SP.u(1) * th)
    assert schouten_bracket(X, P).is_zero()
    calls = _counting_brackets(monkeypatch)
    pushed = deform.miura_push(_series([], 6), X, 1)
    assert pushed == _series([], 6)
    assert len(calls) == 1
    # the old loop bracketed on up to the truncation
    del calls[:]
    assert _reference_miura_push(_series([], 6), X, 1) == pushed
    assert len(calls) == 6


# -- one check per fact ------------------------------------------------------

def _counting_brackets(monkeypatch):
    calls = []
    bracket = schouten.schouten_bracket

    def counting(a, b):
        calls.append(None)
        return bracket(a, b)

    monkeypatch.setattr(schouten, "schouten_bracket", counting)
    monkeypatch.setattr(deform, "schouten_bracket", counting)
    monkeypatch.setattr(deform, "_IMAGES", {})
    return calls


def test_degree_zero_tail_is_checked_once(monkeypatch):
    g = parse_density("d(u_1^-1)", hat=True)
    dkdv_pencil()  # certified once per process, not counted here
    calls = _counting_brackets(monkeypatch)
    witness, c1 = quasi_trivialize_from_generator(g)
    made = len(calls)
    # the path before: d_P int(g theta), then quasi_trivialize(c1), which
    # brackets d_P c1 and d_Q c1
    deform._IMAGES.clear()
    del calls[:]
    assert dkdv_pencil().d_P(canonical_class(g * th)) == c1
    assert quasi_trivialize(c1) == witness
    assert made == len(calls) - 1
    assert str(witness.chars[0]) == "2*u_1^-4*u_2^2 - 2/3*u_1^-3*u_3"


def test_degree_zero_generator_that_is_not_admissible():
    # before, quasi_trivialize refused it: "(0, c1) is not a cocycle of the double complex"
    with pytest.raises(AlgebraError, match="g is not admissible"):
        quasi_trivialize_from_generator(parse_density("u_1^-3*u_3", hat=True))


@pytest.mark.parametrize("op", ["D: u*del + 1/2*u_1", "D: 3/2*del^3", "D: u_1^-1*del - 1/2*u_1^-2*u_2"])
def test_operator_read_off_takes_one_adjoint(monkeypatch, op):
    B = operator_to_bivector(parse_operator(op, hat=True))
    calls = []
    adjoint = DiffOperator.adjoint

    def counting(self):
        calls.append(None)
        return adjoint(self)

    monkeypatch.setattr(DiffOperator, "adjoint", counting)
    D = bivector_to_operator(B)
    assert len(calls) == 1  # the skewness check of its round trip
    monkeypatch.undo()
    assert D == parse_operator(op, hat=True)


def test_obstruction_request_takes_one_residual(monkeypatch, tmp_path, capsys):
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps({"base": "D: u*del + 1/2*u_1", "truncation": 200,
                               "corrections": {"1": "D: del", "2": "D: 3/2*del^3"}}))
    D = _series([P, B3], 200, base=Q)
    want = {"is_deformation": True, "mc_residual": [str(r.rep) for r in mc_residual(D)],
            "obstruction": str(obstruction(D, 200).rep), "order": 200}
    calls = _counting_brackets(monkeypatch)
    assert main(["obstruction", str(man)]) == 0
    assert json.loads(capsys.readouterr().out) == want
    # on the series cut at eps^200, [[H_0, H_k]] for the nonzero H_1 and H_2
    # and the 3 unordered pairs of them; the cocycle is zero, so its closure
    # is not bracketed
    assert len(calls) == 5


# -- quasi-triviality proved once --------------------------------------------

def _counting_s_systems(monkeypatch):
    calls = []
    s_system = dkdv._s_system

    def counting(de, n):
        calls.append(None)
        return s_system(de, n)

    monkeypatch.setattr(dkdv, "_s_system", counting)
    return calls


def _tail_cocycle(ell0, rng, laurent):
    """The qt-ladder shape: a tail cocycle c1 = d_Q d_P int w dx != 0 of
    degree ell0, w two monomials of the degree-(ell0 - 1) slice of order
    <= 3 and u-power <= 2 (with u_1^-1 if laurent) with seeded
    coefficients."""
    pencil = dkdv_pencil()
    basis = enumerate_basis(GradedSlice(3, 2, 1 if laurent else 0), 0, ell0 - 1)
    if laurent:
        basis = [b for b in basis if min(b.coefficient_layers(1)) < 0]
    while True:
        w = SP()
        for b in rng.sample(basis, 2):
            w = w + b * Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        c1 = pencil.d_Q(pencil.d_P(canonical_class(w)))
        if not c1.is_zero():
            return c1


@pytest.mark.parametrize("laurent", [False, True])
@pytest.mark.parametrize("ell0", [3, 6])
def test_quasi_trivialize_makes_three_brackets_and_no_s_system(monkeypatch, ell0, laurent):
    c1 = _tail_cocycle(ell0, random.Random(f"brackets/{ell0}/{laurent}"), laurent)
    brackets = _counting_brackets(monkeypatch)
    s_systems = _counting_s_systems(monkeypatch)
    b0 = quasi_trivialize(c1)
    # d_Q Y for the second d_P primitive, then d_P b0 and d_Q b0 of the
    # final check
    assert len(brackets) == 3 and s_systems == []
    monkeypatch.undo()
    cls = b0.as_class()
    assert dkdv_pencil().d_P(cls).is_zero() and dkdv_pencil().d_Q(cls) == c1


def test_generator_at_positive_degree_checks_admissibility_only_without_a_witness(monkeypatch):
    w = SP.u(2) ** 2 * u + SP.u(1) ** 2 * SP.u(2)
    pencil = dkdv_pencil()
    g = -pencil.d_Q(canonical_class(w)).rep.partial_theta(0)
    calls = _counting_brackets(monkeypatch)
    witness, c1 = quasi_trivialize_from_generator(g)
    made = len(calls)
    # the path before: d_P int(g theta), d_Q c1, d_Q int(g theta) and the
    # final check's two brackets
    deform._IMAGES.clear()
    del calls[:]
    gmv = canonical_class(g * th)
    assert pencil.d_P(gmv) == c1 and pencil.d_Q(c1).is_zero()
    pencil.d_Q(gmv)
    dkdv._verify_witness(witness, c1)
    assert made == len(calls) - 1 == 4
    assert dkdv._tail_degree(c1, None) == 5


@pytest.mark.parametrize("argv", [["--g", "u_1^3"], ["--hat", "--g", "u_1^-1*u_2*u_3"]])
def test_inadmissible_generator_is_refused_through_the_cli(capsys, argv):
    start = time.perf_counter()
    assert main(["quasi-trivialize", *argv]) == 2
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {"error": {
        "code": "algebra-error",
        "message": "d_P int(g theta) is not d_Q-closed: g is not admissible"}}


# -- the S-system after every reduction step ---------------------------------

def _replay(c1):
    """_trivialize_pair's reduction of the pair of c1, one step at a time,
    with the S-system verified before it and after every step; returns the
    witness and the (n, N) of the even-order steps."""
    pencil = dkdv_pencil()
    Y = dkdv._d_P_primitive(c1)
    X = dkdv._d_P_primitive(pencil.d_Q(Y))
    state = dkdv._MoveState(X._delta_theta(), Y._delta_theta())
    n = max(state.f.order(), state.g.order())
    assert CocyclePair(state.f, state.g, n).verify()
    steps = []
    while n > 2:
        N = n if n % 2 == 0 else n + 1
        dkdv._one_reduction(state, N)
        steps.append((n, N))
        n = N - 2
        assert CocyclePair(state.f, state.g, n).verify(), (n, N)
    # ell0 > 2: the order-2 endgame removes the u_2 layer and the pair
    # vanishes
    dkdv._one_reduction(state, 2, last_step=3)
    assert CocyclePair(state.f, state.g, 1).verify()
    assert not state.f and not state.g
    return dkdv._flow(state.c), steps


@pytest.mark.parametrize("laurent", [False, True])
def test_every_reduction_step_keeps_the_cocycle_equation(laurent):
    odd = 0
    for ell0 in range(3, 9):
        c1 = _tail_cocycle(ell0, random.Random(f"replay/{ell0}/{laurent}"), laurent)
        assert dkdv._tail_degree(c1, None) == ell0
        witness, steps = _replay(c1)
        assert steps
        odd += sum(n % 2 for n, _N in steps)
        assert quasi_trivialize(c1) == witness
    assert odd >= 3  # steps from an odd order n to N = n + 1


# -- a slice with jet-order cap 0 --------------------------------------------

def test_enumerated_monomials_respect_the_order_cap():
    for cap in range(4):
        for depth in range(3):
            for t in range(3):
                for degree in range(-2, 6):
                    sl = GradedSlice(cap, 2, depth)
                    assert all(m.order() <= cap for m in enumerate_basis(sl, t, degree)), \
                        (cap, depth, t, degree)
    assert enumerate_basis(GradedSlice(0, 1), 0, 3) == []
    assert enumerate_basis(GradedSlice(1, 1), 0, 3) == [SP.u(1) ** 3, u * SP.u(1) ** 3]


def test_symmetries_with_order_cap_zero(capsys):
    assert main(["symmetries", "--degree", "1", "--max-order", "0", "--max-udeg", "2"]) == 0
    assert capsys.readouterr().out == '{"basis":[],"degree":1,"dimension":0}\n'


# -- a nested d(...) of a Laurent input --------------------------------------

def _nested(n, inner="u_1^-1"):
    return "d(" * n + inner + ")" * n


@pytest.mark.parametrize("n", [21, 35, 60])
def test_nested_laurent_derivative_is_refused_at_once(capsys, n):
    start = time.perf_counter()
    assert main(["dtot", "--hat", "--", _nested(n)]) == 2
    assert time.perf_counter() - start < 0.1
    err = json.loads(capsys.readouterr().out)["error"]
    # the d whose operand reaches jet order 21, the (n - 20)-th from outside
    column = 2 * (n - 21) + 1
    assert err == {"code": "parse-error", "column": column, "message":
                   "d(...) of an operand with a negative power of u_1 must have jet "
                   f"order at most 20 at column {column}"}


def test_laurent_derivative_up_to_the_bound_is_parsed(capsys):
    assert parse_density("d(u_1^-1*u_20)", hat=True).order() == 21
    assert parse_density(_nested(20), hat=True).order() == 21
    with pytest.raises(ParseError, match="at column 1$"):
        parse_density("d(u_1^-1*u_21)", hat=True)
    # no negative power of u_1: no bound
    assert parse_density(_nested(40, "u_1"), hat=True) == SP.u(41)
    # the CLI bounds the parsed input at jet order 20
    assert main(["dtot", "--hat", "--", _nested(20)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-argument"
