"""Independent oracles for cross-checking jet output.

Central finite-difference stencils with one Richardson step, evaluated in
mpmath working precision so that the order-3 stencil is not swamped by
cancellation.  Deliberately shares no code with the jet rules.

The generic ring formulas below are the jet arithmetic as first written,
coefficient tuples in and out: the written-out operations of ``jets`` must
give every carrier the same bits.  Their sums add left to right from int 0,
as ``sum`` did on Python 3.11; ``sum`` itself compensates float-only sums
from Python 3.12 on.
"""

import functools
import math
import operator

import mpmath


def _stencil(f, z, order, h):
    if order == 0:
        return f(z)
    if order == 1:
        return (f(z + h) - f(z - h)) / (2 * h)
    if order == 2:
        return (f(z + h) - 2 * f(z) + f(z - h)) / h ** 2
    if order == 3:
        return (f(z + 2 * h) - 2 * f(z + h) + 2 * f(z - h) - f(z - 2 * h)) / (2 * h ** 3)
    raise ValueError(order)


def fd_derivatives(f, z, h=1e-3, dps=40):
    """[f, f', f'', f'''] at z by Richardson-extrapolated central
    differences; ``f`` must accept and return mpmath complex numbers."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        hh = mpmath.mpf(h)
        out = [complex(f(zz))]
        for order in range(1, 4):
            coarse = _stencil(f, zz, order, hh)
            fine = _stencil(f, zz, order, hh / 2)
            out.append(complex((4 * fine - coarse) / 3))
    return out


def rel_err(got, want, floor=1.0):
    """|got-want| scaled by max(|want|, floor)."""
    return abs(got - want) / max(abs(want), floor)


_ORDER = 3


def _sum(terms):
    return functools.reduce(operator.add, terms, 0)


def generic_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def generic_add_scalar(u, s):
    return (u[0] + s,) + tuple(u[1:])


def generic_neg(u):
    return tuple(-c for c in u)


def generic_mul_scalar(u, s):
    return tuple(c * s for c in u)


def generic_div_scalar(u, s):
    return tuple(c / s for c in u)


def generic_leibniz(u, v):
    """Product coefficients: the sum over k of C(n,k) u[k] v[n-k], each term
    (C(n,k) * u[k]) * v[n-k]."""
    return tuple(
        _sum(math.comb(n, k) * u[k] * v[n - k] for k in range(n + 1))
        for n in range(_ORDER + 1)
    )
