"""CLI output pinned byte for byte: exit code and stdout of every subcommand.

Each case runs ``jetbrackets.cli.main`` in-process and compares the exit code
and the exact stdout with ``data/golden_cli.json``.  The cases cover every
subcommand, ``--hat``, ``--pretty``, the slice caps, a parse error, invalid
arguments, the two manifest commands, and the request pipeline's refusal of a
second stdin and its jet-order bounds.  A difference here is a change of the
CLI's output and must be deliberate.

Regenerate (only after such a deliberate change) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from jetbrackets.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

# manifests written to a temporary directory; "@name" in an argv names one
MANIFESTS = {
    "kdv": {"base": "D: u*del + 1/2*u_1", "corrections": {"2": "D: 3/2*del^3"},
            "truncation": 4},
    "flat": {"base": "D: del", "truncation": 2},
    "deep": {"base": "D: del", "truncation": 10001},
}

CASES = {
    "bracket": ["bracket", "u_1^2*theta", "u^2*theta*theta_1"],
    "bracket-hat": ["bracket", "--hat", "u_1^-1*theta*theta_1", "u*theta*theta_1"],
    "dtot": ["dtot", "u^2*u_1 - 1/3*u_2"],
    "dtot-pretty": ["dtot", "--pretty", "u_1^2*theta*theta_2"],
    "vder-u": ["vder", "u*u_1^2"],
    "vder-theta-level1": ["vder", "--slot", "theta", "--level", "1", "u*theta*theta_2"],
    "vder-hat-level2": ["vder", "--hat", "--level", "2", "u_1^-1*u_2^2"],
    "normalize": ["normalize", "u*theta*theta_1*theta_3"],
    "check-hamiltonian": ["check-hamiltonian", "D: u*del + 1/2*u_1"],
    "check-hamiltonian-false": ["check-hamiltonian",
                                "D: 2*u*del^3 + 3*u_1*del^2 + 3*u_2*del + u_3"],
    "check-compatible": ["check-compatible", "D: del", "D: u*del + 1/2*u_1"],
    "hierarchy": ["hierarchy", "--n", "3"],
    "hierarchy-pretty": ["hierarchy", "--pretty", "--n", "1"],
    "symmetries": ["symmetries", "--degree", "1", "--max-udeg", "2"],
    "symmetries-caps": ["symmetries", "--degree", "3", "--max-udeg", "3",
                        "--max-order", "4"],
    "obstruction": ["obstruction", "@kdv"],
    "obstruction-order": ["obstruction", "@kdv", "--order", "2"],
    "miura-push": ["miura-push", "@kdv", "--x", "u_1^2", "--weight", "2"],
    "miura-push-flat": ["miura-push", "@flat", "--x", "1/2*u_3", "--order", "1"],
    "quasi-trivialize": ["quasi-trivialize", "--g", "d(u_1*u)", "--degree", "2"],
    "quasi-trivialize-udeg": ["quasi-trivialize", "--g", "d(u_1*u^2)"],
    "quasi-trivialize-degree-zero": ["quasi-trivialize", "--g", "1/2*u^2"],
    "psi-check": ["psi-check"],
    "selftest": ["selftest"],
    "parse-error": ["bracket", "u*+", "u"],
    "invalid-level": ["vder", "--level", "-1", "u_2"],
    "invalid-generator": ["quasi-trivialize", "--g", "u + theta"],
    "not-skew-adjoint": ["check-hamiltonian", "D: u*del + u_1"],
    # the request pipeline: a second stdin is refused before stdin is read;
    # with a negative power of u_1 every input is bounded at jet order 20,
    # and without one a polynomial input above order 20 is accepted
    "second-stdin": ["bracket", "-", "-"],
    "laurent-bound": ["bracket", "--hat", "--", "u_1^-1*theta", "u_21*theta*theta_1"],
    "polynomial-above-laurent-bound": ["dtot", "u_500"],
    "hat-polynomial-above-laurent-bound": ["bracket", "--hat", "--", "u_25*theta",
                                           "u*theta*theta_1"],
    "manifest-truncation-bound": ["obstruction", "@deep"],
    "miura-push-hat": ["miura-push", "--hat", "@flat", "--x", "u_1^-1*u_2"],
    "quasi-trivialize-hat": ["quasi-trivialize", "--hat", "--g", "d(u_1^-1)"],
}


def run_case(argv, workdir):
    for name, doc in MANIFESTS.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path) == golden[name]


def test_every_case_has_a_golden():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_case(argv, Path(tmp)) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
