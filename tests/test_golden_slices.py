"""Canonical representatives produced by the slice solver, pinned byte for byte.

The graded solver returns the solution with every free (non-pivot) column set
to zero and the kernel vectors with one free column set to one, so its outputs
are unique once the pivot columns are taken in column order.  The goldens in
``data/golden_slices.json`` were recorded with the dense Gauss-Jordan solver
that preceded the sparse kernel; any change to them is a change of canonical
representative and must be deliberate.

Regenerate (only after such a deliberate change) with

    PYTHONPATH=src python tests/test_golden_slices.py
"""

import json
from pathlib import Path

from jetbrackets import (
    GradedSlice,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
    primitive_solve,
    quasi_trivialize,
    symmetry_space,
)

GOLDEN = Path(__file__).parent / "data" / "golden_slices.json"

u, u1, u2, u3 = (SP.u(k) for k in range(4))

# degree-ell vector-field characteristics whose d_P images are solved for
PRIMITIVE_CHARS = {
    3: u * u1 * u2 + u3 * 2 - u1 ** 3 / 3,
    4: u * u * SP.u(4) + u1 * u3 * 3 - u1 ** 2 * u2 / 2,
    5: u * u1 * u2 ** 2 - SP.u(5) * u * 4 + u1 ** 2 * u3 / 5,
}

# degree-ell densities w of the tail cocycles d_Q d_P int w dx
TAIL_DENSITIES = {
    3: u * u1 * u2 - u1 ** 3 / 2,
    4: u * u2 ** 2 * 3 + u * u1 ** 2 * u2,
    5: u * u2 * u3 - u1 ** 3 * u2 * 2 / 3,
}


def _hat_case():
    char = SP.u(1, power=-2, hat=True) * SP.u(2, hat=True) ** 2 * SP.u(0, hat=True) \
        - SP.u(1, power=-1, hat=True) * SP.u(3, hat=True) / 3
    c = dkdv_pencil().d_P(canonical_class(char * SP.theta(0, hat=True)))
    sl = GradedSlice(max_order=4, max_udeg=2, laurent_depth=2)
    return primitive_solve(c, dkdv_pencil().P.to_hat(), sl)


def golden_outputs():
    pencil = dkdv_pencil()
    th = SP.theta(0)
    out = {}
    for ell, char in PRIMITIVE_CHARS.items():
        c = pencil.d_P(canonical_class(char * th))
        y = primitive_solve(c, pencil.P, GradedSlice(max_order=max(ell, 2), max_udeg=4))
        out[f"primitive_solve/ell{ell}"] = str(y.rep)
    out["primitive_solve/hat-depth2"] = str(_hat_case().rep)
    for ell, w in TAIL_DENSITIES.items():
        c1 = pencil.d_Q(pencil.d_P(canonical_class(w)))
        out[f"quasi_trivialize/ell{ell}"] = str(quasi_trivialize(c1).chars[0])
    for ell in range(1, 5):
        for cap in (2, 3):
            out[f"symmetry_space/ell{ell}/cap{cap}"] = \
                [str(b) for b in symmetry_space(ell, cap)]
    return out


def test_canonical_representatives_are_pinned():
    assert golden_outputs() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
