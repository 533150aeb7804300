"""`cli.main` reads a well-formed request without argparse.

The reader takes its table from the actions `build_parser` declares.  On an
argv it accepts it must make argparse's Namespace, `func` and `ranges`
included; every other argv, argparse's usage errors and help among them,
goes to argparse unchanged.  The table is process-wide state built on first
use, so CI runs this module in a fresh process as well.
"""

import argparse
import contextlib
import inspect
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import jetbrackets.cli as cli
from reader_agreement import PINS, agree, argparse_namespace, draw_argv
from test_golden_cli import CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_request_is_read_as_argparse_reads_it(name):
    # every golden argv is well-formed, so the reader takes each one
    assert agree(CASES[name])


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_dispatch_pins_are_read_as_argparse_reads_them_or_declined(pin):
    agree(pin["argv"])


@settings(max_examples=400)
@given(st.integers(0, 2 ** 32))
def test_drawn_request_is_read_as_argparse_reads_it_or_declined(seed):
    argv = draw_argv(random.Random(seed))
    if argparse_namespace(argv) is None:
        assert cli._read(argv) is None, argv
    agree(argv)


@pytest.mark.parametrize("argv", [
    ["symmetries", "--deg", "2"],                   # an abbreviation
    ["vder", "--sl=theta", "u"],
    ["dtot", "-h"],
    ["dtot", "--help"],
    ["dtot", "--nope", "u"],                        # an unknown option
    ["dtot", "--level", "1", "u"],                  # another subcommand's option
    ["hierarchy", "--n", "x"],                      # a bad int
    ["hierarchy", "--n", "1.5"],
    ["hierarchy", "--pretty"],                      # a missing required flag
    ["vder", "--slot", "bogus", "u"],               # a value outside the choices
    ["vder", "--slot", "theta", "--slot", "bogus", "u"],
    ["dtot", "--pretty=1", "u"],                    # a flag with a value
    ["dtot", "u", "--", "v"],                       # a positional before `--`
    ["dtot", "--", "--", "u"],                      # two `--`
    ["psi-check", "--"],
    ["dtot"],                                       # too few positionals
    ["dtot", "u", "v"],                             # too many
    ["quasi-trivialize", "--g", "-u"],              # a value argparse reads as an option
    ["quasi-trivialize", "--g=--"],
    ["--pretty", "dtot", "u"],                      # an option before the subcommand
    [],
])
def test_malformed_request_is_left_to_argparse(argv):
    assert cli._read(argv) is None


@pytest.mark.parametrize("argv, expected", [
    (["vder", "--level", "-1", "--", "u"], {"level": -1, "expr": "u"}),
    (["vder", "--level=-1", "--", "u"], {"level": -1, "expr": "u"}),
    (["vder", "--level=-1", "-u"], None),           # -u is an option to argparse
    (["vder", "--level=-1", "--", "-u"], {"level": -1, "expr": "-u"}),
    (["miura-push", "m.json", "--x=-3/2*u_1", "--weight", "2"],
     {"manifest": "m.json", "x": "-3/2*u_1", "weight": 2, "order": None}),
    (["symmetries", "--degree", "2", "--degree", "3"], {"degree": 3, "max_udeg": 6}),
    (["bracket", "u", "--hat", "-"], {"a": "u", "b": "-", "hat": True}),
    (["dtot", "--", ""], {"expr": ""}),
])
def test_request_shapes(argv, expected):
    got = cli._read(argv)
    assert (got is None) == (expected is None)
    if got is not None:
        assert agree(argv)
        assert {k: v for k, v in vars(got).items() if k in expected} == expected


def test_a_well_formed_request_makes_no_argparse_call(monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(None)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["dtot", "--pretty", "u"]) == 0
        assert cli.main(["hierarchy", "--n=0"]) == 0
    assert calls == []
    # an abbreviation is argparse's to read, and it answers as before
    with contextlib.redirect_stdout(out):
        assert cli.main(["dtot", "--pr", "u"]) == 0
    assert len(calls) == 2  # the full parser's, then the subcommand parser's
    assert out.getvalue().endswith('{\n  "result": "u_1"\n}\n')


def test_the_table_covers_every_subcommand_of_the_cached_parser():
    ap = cli._parser()
    assert set(cli._grammar(ap)) == set(ap.get_default("subcommands"))
    assert set(ap.get_default("declared")) == set(ap.get_default("subcommands"))


def test_cli_names_no_private_argparse_attribute():
    # the reader reads public attributes of the actions build_parser declares
    private = {name for obj in (argparse, argparse.ArgumentParser(), argparse.Action(["--a"], "a"))
               for name in dir(obj) if name.startswith("_") and not name.startswith("__")}
    used = set(re.findall(r"\b_\w+", inspect.getsource(cli)))
    assert "_actions" in private and "_StoreAction" in private
    assert not used & private, used & private
