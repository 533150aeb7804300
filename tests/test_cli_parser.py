"""`cli.main` builds its argument parser once per process and reuses it.

A reused parser must answer every request as a fresh process would: usage
errors, help and ordinary requests alike, in any order.  A request whose
first argument names a subcommand is parsed by that subcommand's parser
alone; it must answer as the full parser's two passes did.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetbrackets.cli as cli

_SRC = str(Path(__file__).resolve().parent.parent / "src")
# a fixed width, so that help is wrapped alike in and out of process
COLUMNS = "100"


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    env = {**os.environ, "COLUMNS": COLUMNS, "PYTHONPATH": os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "jetbrackets.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_builds_the_parser_once(monkeypatch):
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert in_process(["dtot", "u"])[0] == 0
        assert in_process(["dtot", "u_1"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser():
    ap = cli.build_parser()
    assert ap is not cli.build_parser()
    assert ap is not cli._parser()
    # a caller's change to its own parser does not reach main
    ap.add_argument("--extra", required=True)
    assert in_process(["dtot", "u"]) == (0, '{"result":"u_1"}\n', "")


def test_reused_parser_answers_like_a_fresh_process(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    sequence = [
        ["no-such-command"],
        ["vder", "--slot", "bogus", "u"],
        ["hierarchy"],
        ["vder", "--help"],
        ["dtot", "u^2*u_1 - 1/3*u_2"],  # the golden case "dtot"
    ]
    seen = [in_process(argv) for argv in sequence]
    assert [code for code, _, _ in seen] == [2, 2, 2, 0, 0]
    for argv, got in zip(sequence, seen):
        assert got == fresh_process(argv), argv


# stdout, stderr and exit code of `main`, recorded with COLUMNS=100 when every
# request went through the full parser, which hands a subcommand's arguments
# to its parser
_PINS = json.loads((Path(__file__).parent / "data" / "cli_dispatch_pins.json").read_text())
_AS = {"list": list, "tuple": tuple, "iterator": iter}


@pytest.mark.parametrize("pin", _PINS, ids=[f"{p['kind']}:{' '.join(p['argv'])}" for p in _PINS])
def test_one_pass_dispatch_answers_as_the_full_parser(monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(_AS[pin["kind"]](pin["argv"]))
        except SystemExit as exc:
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (pin["code"], pin["stdout"], pin["stderr"])


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["jetbrackets", "dtot", "u"])
    assert cli.main() == 0
    assert capsys.readouterr().out == '{"result":"u_1"}\n'


def test_every_subcommand_has_its_parser_in_the_table():
    ap = cli.build_parser()
    table = ap.get_default("subcommands")
    assert sorted(table) == sorted(cli._parser().get_default("subcommands"))
    assert {p.prog for p in table.values()} == {f"jetbrackets {name}" for name in table}
    assert "bracket" in table and "selftest" in table
