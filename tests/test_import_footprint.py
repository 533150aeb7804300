"""What a fresh process loads for `import jetbrackets` and for the CLI.

Every `jetbrackets ...` command is a new process, and in it importing costs
far more than the engine's work on a short request.  The package root
loads an engine module only when one of its names is first used, so the
dKdV pencil loads neither the slice solver (`deform`) nor `dkdv`.  The
engine needs neither `dataclasses` (which brings in inspect, dis, ast and tokenize) nor
the expression parser, and the CLI needs `traceback` only to report an
internal error.  Each check compares a fresh interpreter against a bare
`python -c pass`, so modules that the interpreter's own start-up loads do not
count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetbrackets

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
_PARSER_NAMES = ("ParseError", "parse_density", "parse_expression", "parse_operator")


def _load_order(code: str) -> list:
    """The modules loaded in a fresh interpreter after running `code`, in
    the order they were loaded."""
    probe = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=_ENV, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout.split()


def _modules_after(code: str) -> set:
    """The modules loaded in a fresh interpreter after running `code`."""
    return set(_load_order(code))


@pytest.fixture(scope="module")
def baseline():
    return _modules_after("pass")


def test_engine_loads_neither_dataclasses_nor_the_parser(baseline):
    added = _modules_after("import jetbrackets\njetbrackets.dkdv_pencil()") - baseline
    assert "jetbrackets.schouten" in added
    assert "jetbrackets.deform" not in added
    assert "jetbrackets.dkdv" not in added
    assert "dataclasses" not in added
    assert "jetbrackets.parsing" not in added


def test_bare_import_loads_no_engine_module(baseline):
    added = _modules_after("import jetbrackets") - baseline
    assert "jetbrackets" in added
    assert not {m for m in added if m.startswith("jetbrackets.")}


def test_cli_import_does_not_load_traceback(baseline):
    added = _modules_after("import jetbrackets.cli") - baseline
    assert "jetbrackets.parsing" in added
    assert "traceback" not in added


def test_cli_loads_the_engine_before_argparse_and_json():
    # without a bytecode cache the engine's compile peak would otherwise
    # stack on the memory that argparse and json hold
    order = _load_order("import jetbrackets.cli")
    assert order.index("jetbrackets.algebra") < order.index("argparse")
    assert order.index("jetbrackets.algebra") < order.index("json")


def test_parser_names_resolve_from_the_root():
    from jetbrackets import parsing

    for name in _PARSER_NAMES:
        assert getattr(jetbrackets, name) is getattr(parsing, name)
        assert name in dir(jetbrackets)
    from jetbrackets import parse_density
    assert str(parse_density("u*u_1")) == "u*u_1"
    with pytest.raises(AttributeError, match="has no attribute 'parse_nothing'"):
        jetbrackets.parse_nothing


def test_first_parser_name_loads_the_parser(baseline):
    added = _modules_after("import jetbrackets\n"
                           "assert str(jetbrackets.parse_density('d(u)')) == 'u_1'") - baseline
    assert "jetbrackets.parsing" in added
