"""The one test for a negative power of u_1, and the CLI's Laurent bound.

`algebra._is_laurent` reads the u_1 field of each key; it must agree with
the lowest power of u_1 that `coefficient_layers(1)` reports, on polynomial
and Laurent densities, at both ends of the exponent range and on keys wider
than 64 fields.  The CLI bounds a request with a negative power of u_1 at
jet order 20 in every input (its refusals are pinned in `test_parsing_cli`):
a request within order 20 reads no powers of u_1, and past it each
polynomial's powers are read at most once.
"""

import json

from hypothesis import example, given, strategies as st

from conftest import densities
from jetbrackets import SuperPolynomial as SP, cli, parse_density, parsing
from jetbrackets.algebra import _is_laurent

_BOUND = ('{"error":{"code":"invalid-argument","message":"a request with a negative power '
          'of u_1 must have jet order at most 20, got 21"}}\n')


@given(densities(), st.integers(-8189, 8188), st.integers(0, 80), st.booleans())
@example(SP.zero(), 0, 0, False)
@example(SP.u(1, power=-8192), 0, 0, False)
@example(SP.u(1, power=8191), 0, 0, False)
@example(SP.u(1, power=-8192) * SP.theta(1), 0, 70, True)
@example(SP.u(1, power=8191) * SP.u(200) * SP.theta(130), 0, 0, False)
@example(SP.u(1, power=-1) * SP.u(64), 0, 65, True)
def test_the_laurent_test_reads_the_lowest_power_of_u_1(p, e, k, wide):
    for q in (p, p * SP.u(1, power=e), p * SP.u(k) if wide else p + SP.theta(k)):
        assert _is_laurent(q) == (min(q.coefficient_layers(1), default=0) < 0), q


def test_a_laurent_request_within_order_20_passes(capsys):
    assert cli.main(["dtot", "--hat", "--", "u_1^-1*u_20"]) == 0
    assert capsys.readouterr().out == '{"result":"-u_1^-2*u_2*u_20 + u_1^-1*u_21"}\n'


def _counting(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return _is_laurent(p)

    monkeypatch.setattr(cli, "_is_laurent", counted)
    return calls


def _manifest(tmp_path, corrections, base="D: del"):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"base": base, "corrections": {
        str(k): D for k, D in enumerate(corrections, 1)}}))
    return str(path)


def test_each_polynomial_is_read_at_most_once(capsys, monkeypatch, tmp_path):
    calls = _counting(monkeypatch)
    man = _manifest(tmp_path, ["D: del^21"] * 2000)
    assert cli.main(["obstruction", man, "--order", "1"]) == 0
    assert capsys.readouterr().out == \
        '{"is_deformation":true,"mc_residual":["0"],"obstruction":"0","order":1}\n'
    # one coefficient polynomial in the base and in each correction
    assert len(calls) == 2001


def test_a_late_laurent_correction_is_found_in_one_read_each(capsys, monkeypatch, tmp_path):
    calls = _counting(monkeypatch)
    man = _manifest(tmp_path, ["D: u_21*del"] * 1999 + ["D: u_1^-1*del"])
    assert cli.main(["obstruction", "--hat", man, "--order", "1"]) == 2
    assert capsys.readouterr().out == _BOUND
    assert len(calls) == 2001


def test_a_request_within_order_20_reads_no_powers(capsys, monkeypatch, tmp_path):
    calls = _counting(monkeypatch)
    man = _manifest(tmp_path, ["D: u_19*del + 1/2*u_20"] * 50,
                    base="D: u_1^-1*del - 1/2*u_1^-2*u_2")
    assert cli.main(["obstruction", "--hat", man, "--order", "0"]) == 0
    assert capsys.readouterr().out == \
        '{"is_deformation":true,"mc_residual":[],"obstruction":"0","order":0}\n'
    assert cli.main(["bracket", "--hat", "--", "u_1^-1*theta", "u_20*theta*theta_1"]) == 0
    assert capsys.readouterr().out.startswith('{"bracket":"')
    assert calls == []


def test_the_parser_reads_a_d_operand_only_past_order_20(monkeypatch):
    calls = []
    monkeypatch.setattr(parsing, "_is_laurent", lambda p: calls.append(p) or _is_laurent(p))
    assert parse_density("d(u_20) + d(u_1^-1*u_19)", hat=True).order() == 21
    assert calls == []
    assert parse_density("d(u_21)", hat=True) == SP.u(22)
    assert calls == [SP.u(21)]
