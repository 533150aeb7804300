import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jetbrackets import (
    DiffOperator,
    ParseError,
    SuperPolynomial as SP,
    parse_density,
    parse_expression,
    parse_operator,
)
from jetbrackets.cli import main
from conftest import rand_density


u = SP.u(0)
u1 = SP.u(1)
th = SP.theta(0)


class TestParser:
    def test_density_examples(self):
        assert parse_density("u*u_1") == u * u1
        assert parse_density("u_2^2 * u_1^-2", hat=True) == \
            SP.u(2) ** 2 * SP.u(1, power=-2)
        assert parse_density("1/6*u^3") == u ** 3 / 6
        assert parse_density("theta*theta_1 - u") == th * SP.theta(1) - u

    def test_operator_example(self):
        assert parse_operator("D: u*del + 1/2*u_1") == \
            DiffOperator({1: u, 0: u1 / 2})
        assert parse_operator("D: 3/2*del^3") == \
            DiffOperator({3: SP.const(Fraction(3, 2))})
        assert parse_operator("D: del") == DiffOperator.d(1)

    def test_dispatch(self):
        assert isinstance(parse_expression("u"), SP)
        assert isinstance(parse_expression("D: del"), DiffOperator)

    def test_total_derivative_function(self):
        assert parse_density("d(1/2*u^2)") == u * u1
        assert parse_density("d(d(u))") == SP.u(2)

    def test_unary_minus_and_precedence(self):
        assert parse_density("-u^2*u_1 + 2") == -(u ** 2 * u1) + 2
        assert parse_density("2*u^3") == 2 * u ** 3

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_density("u*+")
        assert err.value.column == 3
        assert err.value.token == "+"
        assert "int" in err.value.expected

    def test_laurent_needs_hat(self):
        with pytest.raises(ParseError):
            parse_density("u_1^-1")
        with pytest.raises(ParseError):
            parse_density("u^-1", hat=True)

    def test_del_outside_operator_mode(self):
        with pytest.raises(ParseError):
            parse_density("u*del")

    def test_del_must_be_last(self):
        with pytest.raises(ParseError):
            parse_operator("D: del*u")

    # terms with the same power of del add up at the top level of an
    # operator, and a factor may hold del in parentheses or under a sign
    @pytest.mark.parametrize("text, coeffs", [
        ("D: del - del", {}),
        ("D: u*(del)", {1: u}),
        ("D: -(del)", {1: SP.const(-1)}),
        ("D: 2*-del", {1: SP.const(-2)}),
        ("D: u*del + del^2 - 3*del + u_1 - del^2", {1: u - 3, 0: u1}),
    ], ids=["zero", "parenthesized", "negated", "signed-factor", "repeated-power"])
    def test_operator_forms(self, text, coeffs):
        assert parse_operator(text) == DiffOperator(coeffs)

    def test_operator_rejects_mixed_coefficient(self):
        with pytest.raises(ParseError, match="operator coefficients must be even"):
            parse_operator("D: (u + theta)*del")

    def test_print_parse_round_trip(self, rng):
        for _ in range(30):
            p = rand_density(rng, rng.randint(0, 2), max_order=3,
                             laurent=2)
            assert parse_density(str(p), hat=True) == p
        for _ in range(10):
            p = rand_density(rng, rng.randint(0, 2), max_order=3)
            assert parse_density(str(p)) == p

    def test_print_is_idempotent_canonical_form(self, rng):
        for _ in range(20):
            p = rand_density(rng, rng.randint(0, 2), max_order=3)
            assert str(parse_density(str(p))) == str(p)


# the CLI child process finds the package in src/ without an install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run_cli(*argv, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "jetbrackets.cli", *argv],
                          capture_output=True, text=True, input=stdin, env=CLI_ENV)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc


class TestCLI:
    def test_check_compatible(self):
        code, doc = run_cli("check-compatible", "D: del", "D: u*del + 1/2*u_1")
        assert code == 0 and doc == {"compatible": True}

    def test_check_hamiltonian_false_exit_one(self):
        # skew-adjoint but fails Jacobi
        code, doc = run_cli("check-hamiltonian",
                            "D: 2*u*del^3 + 3*u_1*del^2 + 3*u_2*del + u_3")
        assert code == 1 and doc == {"hamiltonian": False}

    def test_psi_check(self):
        code, doc = run_cli("psi-check")
        assert code == 0 and doc["holds"] is True

    def test_hierarchy(self):
        code, doc = run_cli("hierarchy", "--n", "2")
        assert code == 0
        densities = [h["density"] for h in doc["hamiltonians"]]
        assert densities == ["4/3*u", "1/3*u^2", "1/6*u^3", "5/48*u^4"]
        assert doc["hamiltonians"][2]["flow"] == "u*u_1"

    def test_bracket(self):
        code, doc = run_cli("bracket", "theta*theta_1", "theta*theta_1")
        assert code == 0 and doc["bracket"] == "0"

    def test_vder_and_normalize(self):
        code, doc = run_cli("vder", "u*u_1")
        assert code == 0 and doc["result"] == "0"
        code, doc = run_cli("vder", "--level", "1", "1/2*u_1^2")
        assert code == 0 and doc["result"] == "u_1"
        code, doc = run_cli("normalize", "theta*theta_1")
        assert code == 0 and doc["result"] == "2*theta*theta_1"

    def test_hat_flag(self):
        code, doc = run_cli("dtot", "--hat", "u_1^-1")
        assert code == 0 and doc["result"] == "-u_1^-2*u_2"

    def test_symmetries(self):
        code, doc = run_cli("symmetries", "--degree", "1", "--max-udeg", "3")
        assert code == 0 and doc["dimension"] == 4
        code, doc = run_cli("symmetries", "--degree", "3")
        assert code == 0 and doc["dimension"] == 0

    def test_quasi_trivialize(self):
        code, doc = run_cli("quasi-trivialize", "--g", "d(u_1*u)", "--degree", "2")
        assert code == 0 and doc["trivial"] is True
        assert "u_1^-2" in doc["witness_characteristic"]

    def test_quasi_trivialize_degree_zero(self):
        code, doc = run_cli("quasi-trivialize", "--g", "1/2*u^2")
        assert code == 1 and doc["trivial"] is False
        assert doc["reason"] == "nontrivial-at-degree-zero"

    def test_quasi_trivialize_laurent_degree_zero(self):
        code, doc = run_cli("quasi-trivialize", "--hat", "--g", "d(u_1^-1)")
        assert code == 0 and doc["trivial"] is True
        assert doc["witness_characteristic"] == "2*u_1^-4*u_2^2 - 2/3*u_1^-3*u_3"

    def test_quasi_trivialize_laurent_degree_zero_undecided(self):
        code, doc = run_cli("quasi-trivialize", "--hat", "--g", "1/2*u^2 + d(u_1^-1)")
        assert code == 2 and doc["error"]["code"] == "no-solution"
        assert "GradedSlice(" in doc["error"]["message"]

    def test_quasi_trivialize_laurent_log_obstruction_is_undecided(self, capsys):
        # the order reduction of this class would need log u_1
        assert main(["quasi-trivialize", "--hat", "--g", "u_1^-1*u_2"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "no-solution" and "logarithm" in err["message"]

    @pytest.mark.parametrize("argv, doc", [
        (["check-hamiltonian", "D: 0"], {"hamiltonian": True}),
        (["check-compatible", "D: 0", "D: del"], {"compatible": True}),
    ], ids=["hamiltonian", "compatible"])
    def test_zero_operator_checks(self, capsys, argv, doc):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == doc

    @pytest.mark.parametrize("g, g0, witness", [
        ("1 + u_2", "u_2", "-2/3*u_1^-2*u_2^2 + 2/3*u_1^-1*u_3"),
        ("u*u_1 + u*u_3", "u*u_3", "-4/3*u_3"),
    ])
    def test_quasi_trivialize_ignores_parts_of_other_degrees(self, capsys, g, g0, witness):
        # a constant and d(u^2/2) are d_P-closed, so g answers as g0
        assert main(["quasi-trivialize", "--g", g0]) == 0
        want = json.loads(capsys.readouterr().out)
        assert want["trivial"] is True and want["witness_characteristic"] == witness
        assert main(["quasi-trivialize", "--g", g]) == 0
        assert json.loads(capsys.readouterr().out) == want

    def test_quasi_trivialize_inadmissible_generator(self):
        code, doc = run_cli("quasi-trivialize", "--g", "u_1^2")
        assert code == 2 and doc["error"]["code"] == "algebra-error"

    def test_parse_error_exit_two(self):
        code, doc = run_cli("bracket", "u*+", "u")
        assert code == 2
        assert doc["error"]["code"] == "parse-error"
        assert doc["error"]["column"] == 3

    def test_skewness_error(self):
        code, doc = run_cli("check-hamiltonian", "D: u*del + u_1")
        assert code == 2 and doc["error"]["code"] == "not-skew-adjoint"

    def test_stdin_expression(self):
        code, doc = run_cli("vder", "-", stdin="u*u_1\n")
        assert code == 0 and doc["result"] == "0"

    def test_determinism(self):
        a = subprocess.run([sys.executable, "-m", "jetbrackets.cli",
                            "hierarchy", "--n", "2"], capture_output=True, env=CLI_ENV)
        b = subprocess.run([sys.executable, "-m", "jetbrackets.cli",
                            "hierarchy", "--n", "2"], capture_output=True, env=CLI_ENV)
        assert a.stdout == b.stdout

    def test_obstruction_manifest(self, tmp_path):
        man = tmp_path / "kdv.json"
        man.write_text(json.dumps({
            "base": "D: u*del + 1/2*u_1",
            "corrections": {"2": "D: 3/2*del^3"},
            "truncation": 4,
        }))
        code, doc = run_cli("obstruction", str(man))
        assert code == 0
        assert doc["is_deformation"] is True
        assert doc["mc_residual"] == ["0", "0", "0", "0"]
        assert doc["obstruction"] == "0"

    def test_miura_push_manifest(self, tmp_path):
        man = tmp_path / "p.json"
        man.write_text(json.dumps({"base": "D: del", "truncation": 1}))
        code, doc = run_cli("miura-push", str(man), "--x", "u_1", "--weight", "1")
        assert code == 0
        assert doc["base"] == "D: del"
        assert doc["corrections"] == {}

    @pytest.mark.parametrize("x", ["0", "u_1 - u_1"])
    def test_miura_push_zero_generator_is_the_identity(self, tmp_path, x):
        series = {"base": "D: u*del + 1/2*u_1",
                  "corrections": {"2": "D: 3/2*del^3"}, "truncation": 2}
        man = tmp_path / "m.json"
        man.write_text(json.dumps(series))
        code, doc = run_cli("miura-push", str(man), "--x", x)
        assert code == 0 and doc == series

    def test_selftest(self):
        code, doc = run_cli("selftest")
        assert code == 0 and doc["ok"] is True

    def test_main_callable_directly(self, capsys):
        assert main(["bracket", "u*theta", "u*theta"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "bracket" in out

    @pytest.mark.parametrize("argv", [
        ["vder", "--level", "-1", "u_2"],
        ["hierarchy", "--n", "-1"],
        ["symmetries", "--degree", "-2"],
        ["quasi-trivialize", "--g", "d(u_1*u)", "--degree", "-1"],
        ["obstruction", "unread.json", "--order", "-1"],
        ["miura-push", "unread.json", "--x", "u_1", "--order", "-3"],
        ["miura-push", "unread.json", "--x", "u_1", "--weight", "0"],
        # a series request is bounded at order 10 000
        ["obstruction", "unread.json", "--order", "10001"],
        ["miura-push", "unread.json", "--x", "u_1", "--order", "10001"],
        ["symmetries", "--degree", "1", "--max-udeg", "-1"],
        ["symmetries", "--degree", "2", "--max-order", "-1"],
        # a characteristic --g must be even: theta-degree 1, or mixed
        ["quasi-trivialize", "--g", "theta"],
        ["quasi-trivialize", "--g", "u*theta_1"],
        ["quasi-trivialize", "--g", "u + theta"],
        ["quasi-trivialize", "--hat", "--g", "u_1^-1*theta"],
        # a parsed input is bounded at jet order 1 000: the variational
        # kernels take time quadratic in the jet index
        ["normalize", "--", "u_10000*theta_10000"],
        ["vder", "--slot", "theta", "--", "u_1001*theta"],
        ["dtot", "--", "theta_1001"],
        ["quasi-trivialize", "--g", "d(u_1001)"],
        ["check-hamiltonian", "D: del^1001"],
        ["check-compatible", "D: del", "D: u_1001*del + 1/2*u_1002"],
        # d^n of u_1^-1 has p(n) terms: a request with a negative power of
        # u_1 is bounded at jet order 20 in every input
        ["bracket", "--hat", "--", "u_1^-1*u_21*theta", "u*theta*theta_1"],
        ["bracket", "--hat", "--", "u_1^-1*theta", "u_21*theta*theta_1"],
        ["bracket", "--hat", "--", "u_60*theta*theta_1", "u_1^-1*theta"],
        ["bracket", "--hat", "--", "u + theta", "u_1^-1*u_21*theta"],
        ["normalize", "--hat", "--", "u_1^-1*u_21*theta*theta_21"],
        ["dtot", "--hat", "--", "u_1^-1*theta_21"],
        ["vder", "--hat", "--", "d(u_1^-1*u_20)"],
        ["check-hamiltonian", "--hat", "D: u_1^-1*del^21"],
        ["check-hamiltonian", "--hat", "D: u_1^-1*del^40"],
        ["check-compatible", "--hat", "D: u_1^-1*del", "D: del^21"],
        ["check-compatible", "--hat", "D: u_21*del", "D: u_1^-1*del"],
        ["quasi-trivialize", "--hat", "--g", "u_1^-1*u_21"],
        # hierarchy --n, symmetries --degree and --max-udeg are bounded
        ["hierarchy", "--n", "2001"],
        ["hierarchy", "--n", "1000000"],
        ["symmetries", "--degree", "12"],
        ["symmetries", "--degree", "18"],
        ["symmetries", "--degree", "3", "--max-udeg", "1001"],
        ["symmetries", "--degree", "3", "--max-udeg", "6000"],
        # and so is their product, the size of the slice
        ["symmetries", "--degree", "11", "--max-udeg", "40"],
    ])
    def test_out_of_range_argument_exit_two(self, capsys, argv):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid-argument"

    @pytest.mark.parametrize("command", [
        ["obstruction"],
        ["miura-push", "--x", "u_1"],
    ], ids=["obstruction", "miura-push"])
    @pytest.mark.parametrize("content", [
        '{"corrections": {"2": "D: 3/2*del^3"}, "truncation": 4}',
        '{"base": "D: del", "corrections": {"two": "D: del^3"}}',
        '{"base": "D: del",',
        None,
        '{"base": "D: del", "truncation": -2}',
        '{"base": "D: del", "corrections": {"0": "D: del^3"}}',
        '{"base": "D: del", "corrections": {"7": "D: del^5"}, "truncation": 2}',
        '{"base": "D: del", "truncation": 2.7}',
        '{"base": "D: del", "truncation": 2.0}',
        '{"base": "D: del", "truncation": "2"}',
        '{"base": "D: del", "truncation": true}',
        '{"base": "D: del", "corrections": {" 2 ": "D: del^3"}}',
        '{"base": "D: del", "corrections": {"+2": "D: del^3"}}',
        '{"base": "D: del", "corrections": {"\\u0662": "D: del^3"}}',
        '{"base": "D: del", "corrections": {"2": "D: del^3", "02": "D: del^5"}}',
        '{"base": "D: del", "truncation": 10001}',
        '{"base": "D: del", "corrections": {"1000000": "D: del^3"}}',
        '{"base": "D: del", "corrections": {"' + "1" * 5000 + '": "D: del^3"}}',
        '{"base": "D: u_1001*del + 1/2*u_1002"}',
        '{"base": "D: del", "corrections": {"2": "D: del^1001"}}',
    ], ids=["no-base", "non-integer-order", "invalid-json", "missing-file",
            "negative-truncation", "order-zero", "order-above-truncation",
            "float-truncation", "integral-float-truncation", "string-truncation",
            "bool-truncation", "padded-order", "signed-order", "non-ascii-digit-order",
            "repeated-order", "truncation-above-bound", "order-above-bound",
            "order-beyond-digit-limit", "base-above-jet-order",
            "correction-above-jet-order"])
    def test_malformed_manifest_is_invalid_argument(self, capsys, tmp_path, command, content):
        man = tmp_path / "manifest.json"
        if content is not None:
            man.write_text(content)
        assert main([command[0], str(man)] + command[1:]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["code"] == "invalid-argument"
        assert "Traceback" not in captured.err

    def test_sparse_series_costs_linear_time(self, capsys, tmp_path):
        # mc_residual and obstruction bracket only pairs of nonzero
        # corrections: one correction at truncation 5000 costs milliseconds,
        # where a sum over every pair costs seconds
        man = tmp_path / "manifest.json"
        man.write_text('{"base": "D: del", "corrections": {"1": "D: u*del + 1/2*u_1"}, '
                       '"truncation": 5000}')
        start = time.perf_counter()
        assert main(["obstruction", str(man)]) == 0
        assert time.perf_counter() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_deformation"] and doc["order"] == 5000
        assert doc["mc_residual"] == ["0"] * 5000 and doc["obstruction"] == "0"

    @pytest.mark.parametrize("argv", [
        ["bracket", "--", "-", "-"],
        ["check-compatible", "--", "-", "-"],
        ["bracket", "--hat", "-", "-"],
    ])
    def test_stdin_named_twice_is_invalid_argument(self, capsys, monkeypatch, argv):
        # the second read would get "" and report a parse error at column 1
        stdin = io.StringIO("D: del\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-argument"
        assert stdin.read() == "D: del\n"  # refused before stdin is read

    def test_jet_order_bound_is_inclusive(self, capsys, tmp_path):
        # u_10000*theta_10000 took seconds; at the bound these take about 0.05 s each
        start = time.perf_counter()
        assert main(["normalize", "--", "u_1000*theta_1000"]) == 0
        assert main(["vder", "--slot", "theta", "--", "u_1000*theta_1000"]) == 0
        assert time.perf_counter() - start < 1.0
        assert [json.loads(line)["result"] for line in capsys.readouterr().out.splitlines()] \
            == ["u_2000*theta", "u_2000"]
        # operators of jet order 1 000 get past the bound to the skewness check
        man = tmp_path / "manifest.json"
        man.write_text('{"base": "D: del", "corrections": {"1": "D: u_1000*del"}}')
        assert main(["obstruction", str(man)]) == 2
        assert main(["check-hamiltonian", "D: del^1000"]) == 2
        assert [json.loads(line)["error"]["code"] for line in capsys.readouterr().out.splitlines()] \
            == ["not-skew-adjoint"] * 2
        # a request with a negative power of u_1 is accepted at jet order 20
        assert main(["bracket", "--hat", "--", "u_1^-1*theta", "u_20*theta*theta_1"]) == 0
        assert main(["check-hamiltonian", "--hat", "D: u_1^-1*del^20"]) == 2
        assert [json.loads(line).get("error", {}).get("code")
                for line in capsys.readouterr().out.splitlines()] == [None, "not-skew-adjoint"]

    @pytest.mark.parametrize("manifest, argv", [
        # a non-skew base would fail its skewness check first: the bound is
        # checked on every input before any derivative is taken
        ({"base": "D: u_1^-1*del", "corrections": {"2": "D: del^21"}}, ["obstruction"]),
        ({"base": "D: del", "corrections": {"1": "D: u_21*del", "2": "D: u_1^-1*del"}},
         ["obstruction"]),
        ({"base": "D: u*del", "truncation": 2}, ["miura-push", "--x", "u_1^-1*u_21"]),
        ({"base": "D: u_1^-1*del", "truncation": 2}, ["miura-push", "--x", "u_21"]),
    ])
    def test_laurent_manifest_request_is_bounded(self, capsys, tmp_path, manifest, argv):
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps(manifest))
        assert main([argv[0], "--hat", str(man)] + argv[1:]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid-argument"
        assert "negative power of u_1" in doc["error"]["message"]

    def test_stdin_for_one_of_two_arguments(self):
        code, doc = run_cli("check-compatible", "D: del", "-", stdin="D: u*del + 1/2*u_1\n")
        assert code == 0 and doc == {"compatible": True}
        code, doc = run_cli("bracket", "-", "theta*theta_1", stdin="theta*theta_1\n")
        assert code == 0 and doc["bracket"] == "0"

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        import jetbrackets.cli as cli

        def broken():
            raise AssertionError("psi identity lost")

        monkeypatch.setattr(cli, "psi_check", broken)
        assert main(["psi-check"]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["error"] == {"code": "internal-error",
                                "message": "AssertionError: psi identity lost"}
        assert "Traceback" in captured.err


# input the tokenizer or the recursive descent once let escape as
# internal-error (ValueError from int(), RecursionError), or read as ASCII
@pytest.mark.parametrize("expr", [
    "u_\u00b2",                     # u_ and a superscript two
    "\u00b2*u",                     # a superscript two as a number
    "u_\u0661",                     # an Arabic-Indic one, once read as u_1
    "1\u0661*u",                    # a non-ASCII digit inside a number
    "(" * 400 + "u" + ")" * 400,    # 400 nested parentheses
    "-" * 2000 + "u",               # 2000 unary minus signs
    "d(" * 400 + "u" + ")" * 400,   # 400 nested total derivatives
    "D: " + "(" * 400 + "u" + ")" * 400 + "*del",
], ids=["superscript-subscript", "superscript-number", "arabic-indic-subscript",
        "arabic-indic-in-number", "parentheses", "unary-minus", "nested-d", "operator"])
def test_bad_input_is_a_parse_error(capsys, expr):
    assert main(["dtot", "--", expr]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "parse-error"
    with pytest.raises(ParseError):
        parse_expression(expr)


# more digits than Python's int/str conversion limit (4300 unless set
# otherwise); int() and str() once let that escape as an internal-error
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "1" * 5000
needs_digit_limit = pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5000,
                                       reason="no int/str digit limit below 5000")


@needs_digit_limit
@pytest.mark.parametrize("expr, column", [
    (_LONG, 1), ("u_" + _LONG, 1), ("u^" + _LONG, 3), ("1/" + _LONG, 3),
    # each exponent fits, their product does not, and the range error
    # names it without printing it
    ("(u^999)^" + _LONG[:_DIGIT_LIMIT], 1),
], ids=["number", "subscript", "exponent", "denominator", "power-of-power"])
def test_integer_beyond_the_digit_limit_is_a_parse_error(capsys, expr, column):
    assert main(["dtot", "--", expr]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "parse-error" and err["column"] == column


@needs_digit_limit
def test_coefficient_beyond_the_digit_limit_is_an_algebra_error(capsys):
    # (10^900)^6 parses, but its 5401 digits cannot be printed
    assert main(["dtot", "--", "(10^900)^6*u"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["code"] == "algebra-error" and str(_DIGIT_LIMIT) in err["message"]
    assert "Traceback" not in captured.err


def test_nesting_up_to_the_bound_parses():
    assert parse_density("(" * 99 + "u" + ")" * 99) == u
    assert parse_density("-" * 99 + "u") == -u
    assert parse_density("d(" * 99 + "u" + ")" * 99) == SP.u(99)
    with pytest.raises(ParseError, match="more than 100 nested factors") as err:
        parse_density("-" * 100 + "u")
    assert err.value.column == 101


@pytest.mark.parametrize("argv", [
    ["hierarchy", "--n", "1", "--max-order", "3"],
    ["dtot", "--max-udeg", "2", "u"],
    ["quasi-trivialize", "--g", "d(u_1*u)", "--max-order", "3"],
    ["quasi-trivialize", "--g", "d(u_1*u)", "--max-udeg", "4"],
])
def test_slice_caps_only_where_read(argv):
    # --max-order and --max-udeg belong to symmetries, the one command that
    # searches a slice; argparse rejects them elsewhere with exit 2
    code, doc = run_cli(*argv)
    assert code == 2 and doc is None


# the exact answer to each request with a single error: both ends of every
# declared flag range, the jet-order bound under each of its three labels,
# and the Laurent bound, which names the largest jet order parsed so far
_REFUSALS = [
    (["vder", "--level", "-1", "u_2"], "--level must be at least 0, got -1"),
    (["hierarchy", "--n", "-1"], "--n must be at least 0, got -1"),
    (["hierarchy", "--n", "2001"], "--n must be at most 2000, got 2001"),
    (["symmetries", "--degree", "-1"], "--degree must be at least 0, got -1"),
    (["symmetries", "--degree", "12"], "--degree must be at most 11, got 12"),
    (["symmetries", "--degree", "2", "--max-udeg", "-1"], "--max-udeg must be at least 0, got -1"),
    (["symmetries", "--degree", "2", "--max-udeg", "1001"],
     "--max-udeg must be at most 1000, got 1001"),
    (["symmetries", "--degree", "2", "--max-order", "-1"],
     "--max-order must be at least 0, got -1"),
    (["quasi-trivialize", "--g", "d(u_1*u)", "--degree", "-1"],
     "--degree must be at least 0, got -1"),
    (["obstruction", "@unread", "--order", "-1"], "--order must be at least 0, got -1"),
    (["obstruction", "@unread", "--order", "10001"], "--order must be at most 10000, got 10001"),
    (["miura-push", "@unread", "--x", "u_1", "--order", "-1"],
     "--order must be at least 0, got -1"),
    (["miura-push", "@unread", "--x", "u_1", "--order", "10001"],
     "--order must be at most 10000, got 10001"),
    (["miura-push", "@unread", "--x", "u_1", "--weight", "0"],
     "--weight must be at least 1, got 0"),
    (["dtot", "--", "theta_1001"], "expression jet order must be at most 1000, got 1001"),
    (["check-hamiltonian", "D: del^1001"], "operator jet order must be at most 1000, got 1001"),
    (["obstruction", "@deep"], "manifest operator jet order must be at most 1000, got 1002"),
    (["bracket", "--hat", "--", "u_1^-1*u_30*theta", "u_60*theta*theta_1"],
     "a request with a negative power of u_1 must have jet order at most 20, got 30"),
    (["bracket", "--hat", "--", "u_60*theta*theta_1", "u_1^-1*theta"],
     "a request with a negative power of u_1 must have jet order at most 20, got 60"),
    (["miura-push", "--hat", "@flat", "--x", "u_1^-1*u_21"],
     "a request with a negative power of u_1 must have jet order at most 20, got 21"),
    # the Laurent input first or last, at the first jet order past the bound
    (["bracket", "--hat", "--", "u_1^-1*theta", "u_21*theta*theta_1"],
     "a request with a negative power of u_1 must have jet order at most 20, got 21"),
    (["bracket", "--hat", "--", "u_21*theta*theta_1", "u_1^-1*theta"],
     "a request with a negative power of u_1 must have jet order at most 20, got 21"),
    (["check-compatible", "--hat", "--", "D: u_21*del", "D: u_1^-1*del"],
     "a request with a negative power of u_1 must have jet order at most 20, got 21"),
    (["miura-push", "--hat", "@laurent", "--x", "u_21"],
     "a request with a negative power of u_1 must have jet order at most 20, got 21"),
    (["bracket", "--", "-", "-"], "at most one argument may be '-' (stdin)"),
    # a characteristic --x is even: X = int(x theta) dx would drop an odd
    # part of x, since theta^2 = 0
    (["miura-push", "@kdv", "--x", "u_2 + theta*theta_1"],
     "--x must have theta-degree 0, got mixed"),
    (["miura-push", "@kdv", "--x", "u_1 + theta"], "--x must have theta-degree 0, got mixed"),
    (["miura-push", "@kdv", "--x", "theta_1"], "--x must have theta-degree 0, got 1"),
    (["miura-push", "@kdv", "--x", "u*theta*theta_1"], "--x must have theta-degree 0, got 2"),
]
_REFUSAL_MANIFESTS = {"deep": {"base": "D: u_1001*del + 1/2*u_1002"},
                      "flat": {"base": "D: u*del", "truncation": 2},
                      "laurent": {"base": "D: u_1^-1*del"},
                      "kdv": {"base": "D: u*del + 1/2*u_1",
                              "corrections": {"2": "D: 3/2*del^3"}, "truncation": 4}}


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[" ".join(a) for a, _ in _REFUSALS])
def test_single_error_answer_is_pinned(capsys, tmp_path, argv, message):
    for name, doc in _REFUSAL_MANIFESTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().out == \
        '{"error":{"code":"invalid-argument","message":"' + message + '"}}\n'


def test_parse_error_comes_before_the_jet_order_bound(capsys):
    # every input of a request is parsed before any is bounded
    assert main(["bracket", "--", "u_2000*theta", "u*+"]) == 2
    assert capsys.readouterr().out == (
        '{"error":{"code":"parse-error","column":3,"expected":["int","name","(","-"],'
        '"message":"unexpected token \'+\' at column 3"}}\n')


@pytest.mark.parametrize("argv, refused", [
    # columns times degree squared: 56*7*121, 3*1001*9, 56*11*121, 5*937*16
    (["--degree", "11"], False),
    (["--degree", "3", "--max-udeg", "1000"], False),
    (["--degree", "11", "--max-udeg", "10"], False),
    (["--degree", "4", "--max-udeg", "936"], False),
    # 56*12*121, 5*938*16 and 42*18*100
    (["--degree", "11", "--max-udeg", "11"], True),
    (["--degree", "4", "--max-udeg", "937"], True),
    (["--degree", "10", "--max-udeg", "17"], True),
    # a jet-order cap shrinks the slice: 16*31*121
    (["--degree", "11", "--max-udeg", "30", "--max-order", "3"], False),
])
def test_symmetries_slice_is_bounded_before_it_is_built(capsys, monkeypatch, argv, refused):
    import jetbrackets.cli as cli

    monkeypatch.setattr(cli, "symmetry_space", lambda *args, **kwargs: [])
    assert main(["symmetries", *argv]) == (2 if refused else 0)
    doc = json.loads(capsys.readouterr().out)
    assert ("error" in doc) == refused


def test_selftest_reports_the_exception(capsys, monkeypatch):
    import jetbrackets.cli as cli

    def broken():
        raise AssertionError("psi identity lost")

    monkeypatch.setattr(cli, "psi_check", broken)
    assert main(["selftest"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["psi-check"] == {"name": "psi-check", "pass": False,
                                    "error": "AssertionError: psi identity lost"}
    assert all("error" not in c for name, c in by_name.items() if name != "psi-check")
