"""Every well-formed CLI request answers with a documented exit code.

Small requests are drawn for each subcommand that parses its input, with and
without --hat, and run through `cli.main` in process.  Whatever the engine
concludes, the answer is exit 0, 1 or 2, and an exit 2 names the error it
met: none is `internal-error`, the code of an unexpected exception.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from jetbrackets.cli import main

_EVEN = ["u", "u_1", "u_2", "u_3"]
_ODD = ["theta", "theta_1", "theta_2"]
_COEFFS = ["1", "-1", "2", "1/2", "-3/4"]


@st.composite
def _texts(draw, odd=True, max_terms=3, max_factors=3):
    """A sum of small monomials, sometimes under d(...); u_1^-1 may appear,
    which only --hat admits."""
    factors = _EVEN + ["u_1^-1"] + (_ODD if odd else [])
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        fs = draw(st.lists(st.sampled_from(factors), max_size=max_factors))
        terms.append("*".join([draw(st.sampled_from(_COEFFS)), *fs]))
    text = " + ".join(terms)
    return f"d({text})" if draw(st.integers(0, 4)) == 0 else text


_EVEN_TEXTS = _texts(odd=False, max_terms=2, max_factors=2)


@st.composite
def _operators(draw):
    """`D: ...` of order at most 3 with even coefficients, mostly
    skew-adjoint: blocks f*del + 1/2*d(f) and c*del^3, and sometimes f*del^2."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        f, c = draw(_EVEN_TEXTS), draw(st.sampled_from(_COEFFS))
        blocks.append(draw(st.sampled_from(
            [f"({f})*del + 1/2*d({f})", f"{c}*del^3", f"({f})*del^2"])))
    return "D: " + " + ".join(blocks)


@st.composite
def _manifests(draw):
    trunc = draw(st.integers(0, 2))
    return {"base": draw(_operators()), "truncation": trunc,
            "corrections": {str(k): draw(_operators())
                            for k in range(1, trunc + 1) if draw(st.booleans())}}


# the arguments after the subcommand, drawn by data.draw; MANIFEST stands for
# the path of a drawn manifest
_ARGS = {
    "bracket": lambda draw: ["--", draw(_texts(max_terms=2)), draw(_texts(max_terms=2))],
    "dtot": lambda draw: ["--", draw(_texts())],
    "vder": lambda draw: ["--slot", draw(st.sampled_from(["u", "theta"])),
                          "--level", str(draw(st.integers(0, 2))), "--", draw(_texts())],
    "normalize": lambda draw: ["--", draw(_texts())],
    "check-hamiltonian": lambda draw: [draw(_operators())],
    "check-compatible": lambda draw: [draw(_operators()), draw(_operators())],
    "obstruction": lambda draw: ["MANIFEST", "--order", str(draw(st.integers(0, 2)))],
    "miura-push": lambda draw: ["MANIFEST", "--order", str(draw(st.integers(0, 2))),
                                "--x=" + draw(_EVEN_TEXTS),
                                "--weight", str(draw(st.integers(1, 2)))],
}


def _assert_answered(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2), (argv, doc)
    assert (code == 2) == ("error" in doc), (argv, doc)
    if code == 2:
        assert doc["error"]["code"] != "internal-error", (argv, doc)


@pytest.mark.parametrize("command", sorted(_ARGS))
@settings(max_examples=25)
@given(data=st.data(), hat=st.booleans())
def test_no_request_answers_internal_error(tmp_path_factory, command, data, hat):
    args = _ARGS[command](data.draw)
    if "MANIFEST" in args:
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps(data.draw(_manifests())), encoding="utf-8")
        args = [str(path) if a == "MANIFEST" else a for a in args]
    _assert_answered([command, *(["--hat"] if hat else []), *args])


@settings(max_examples=40)
@given(g=_EVEN_TEXTS, hat=st.booleans())
# d_P-closed parts of g (a constant, d(u^2/2)) once reached the order
# reduction as if they had the class's degree
@example(g="1 + u_2", hat=False)
@example(g="u*u_1 + u*u_3", hat=False)
def test_no_generator_answers_internal_error(g, hat):
    _assert_answered(["quasi-trivialize", *(["--hat"] if hat else []), "--g=" + g])
