"""The Koszul differential D_P of P = d and its contracting homotopy K, on
the packed keys of `algebra`: part of the ring layer, kept in a module of
its own because only the quasi-trivialization of `dkdv` uses it, so a
process that stops at the pencil or the bracket never compiles it.

D_P a = sum_k theta_{k+1} partial_{u_k} a is one u-filing of `algebra._file`
whose piece k gains theta_{k+1}; K reads the first pair (u_k, theta_{k+1})
of weight w_k != 0 off the fields of each key (see `_contract`).
"""

from __future__ import annotations

from math import lcm

from .algebra import (
    _BIAS,
    _FIELD,
    _W,
    SuperPolynomial,
    _check_exponent,
    _field_masks,
    _file,
    _key_order,
    _make,
)


def _koszul_dP(a: SuperPolynomial) -> SuperPolynomial:
    """D_P a = sum_k theta_{k+1} partial_{u_k} a, theta_{k+1} multiplying on
    the left: d_P for P = d, since d_P(class a) = -class(D_P a).  Piece k of one
    filing is (-1)^k partial_{u_k} a; theta_{k+1} jumps the odd factors below it."""
    out: dict = {}
    for k, piece in _file(a._nums, False, 0).items():
        bit = 1 << (_W * k + _W)
        below = _field_masks(k + 1)[0]  # the theta bits of fields 0..k
        for m, n in piece.items():
            if not m & bit:  # theta_{k+1}^2 = 0
                key = m + bit
                out[key] = out.get(key, 0) + (-n if ((m & below).bit_count() + k) & 1 else n)
    return _make(out, a._D)


def _contract(a: SuperPolynomial) -> SuperPolynomial:
    """The contracting homotopy K of D_P: K m = h_k m / w_k, where h_k = u_k
    partial_{theta_{k+1}} has D_P h_k + h_k D_P = w_k = e_k + [theta_{k+1}
    in m] and k is the first pair with w_k != 0.  So D_P K + K D_P = 1 on
    monomials of nonzero weight; K is 0 on the others, theta_0^i (u_1^-1
    theta_2)^j, which span the cohomology of D_P."""
    ents, L = [], 1
    for m, n in a._nums.items():
        below = 0
        for k in range(_key_order(m) + 1):
            f = (m >> (_W * k)) & _FIELD
            below += f & 1
            e = (f >> 1) - _BIAS if k == 1 else f >> 1
            up = (m >> (_W * k + _W)) & 1
            if e + up:
                if up:
                    _check_exponent(k, e + 1)
                    ents.append((m + (2 << (_W * k)) - (1 << (_W * k + _W)),
                                 -n if below & 1 else n, e + 1))
                    L = lcm(L, e + 1)
                break
    out: dict = {}
    for key, n, w in ents:
        out[key] = out.get(key, 0) + n * (L // w)
    return _make(out, a._D * L)
