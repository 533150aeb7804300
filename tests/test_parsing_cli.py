import json
import os
import subprocess
import sys
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
            SP.u(2, hat=True) ** 2 * SP.u(1, power=-2, hat=True)
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

    def test_print_parse_round_trip(self, rng):
        for _ in range(30):
            p = rand_density(rng, rng.randint(0, 2), max_order=3, hat=True,
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
        ["symmetries", "--degree", "1", "--max-udeg", "-1"],
        ["symmetries", "--degree", "2", "--max-order", "-1"],
        # a characteristic --g must be even: theta-degree 1, or mixed
        ["quasi-trivialize", "--g", "theta"],
        ["quasi-trivialize", "--g", "u*theta_1"],
        ["quasi-trivialize", "--g", "u + theta"],
        ["quasi-trivialize", "--hat", "--g", "u_1^-1*theta"],
    ])
    def test_out_of_range_argument_exit_two(self, capsys, argv):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid-argument"

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


@pytest.mark.parametrize("argv", [
    ["hierarchy", "--n", "1", "--max-order", "3"],
    ["dtot", "--max-udeg", "2", "u"],
    ["quasi-trivialize", "--g", "d(u_1*u)", "--max-order", "3"],
])
def test_slice_caps_only_where_read(argv):
    # --max-order belongs to symmetries, --max-udeg to symmetries and
    # quasi-trivialize; argparse rejects them elsewhere with exit 2
    code, doc = run_cli(*argv)
    assert code == 2 and doc is None


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
