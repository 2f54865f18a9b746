"""Order-3 truncated Taylor (jet) arithmetic over the complex numbers.

A :class:`Jet` carries the value and the first three derivatives of an
analytic function at a point.  Sums, products, quotients, the elementary
functions exp/log/sqrt/recip, and composition propagate derivatives
exactly (Leibniz rule, quotient recursion, Faa di Bruno through order 3),
so code built on top of this module never needs finite differencing or a
symbolic engine to obtain f', f'', f'''.

Order 3 is fixed: the Schwarzian f'''/f' - (3/2)(f''/f')^2 needs three
derivatives, and nothing computed from it needs a fourth.

Coefficients are polymorphic in the scalar type.  Plain ``complex`` is
the default; numpy arrays give elementwise jets over whole grids, and
mpmath complex numbers give high-precision evaluation for oracle-grade
finite differencing.  All operations dispatch on the type of the values
they see, so a formula written once works on every carrier.  This module
is the only one that tells the carriers apart; code outside it uses what
every carrier shares (arithmetic, ``abs``, ``.real``, ``.conjugate()``,
``np.all``) and tests a mask of any carrier with :func:`_any`.

Principal branches are used everywhere.  Jets of log/sqrt reject a
value on the cut (-inf, 0] because the derivative coefficients are
singular or side-dependent there; the scalar helpers are more permissive
so that boundary values of maps can still be computed.

Sums, negation, scaling and the Leibniz product are written out term by
term, in the order of the generic formulas: each Leibniz sum starts at int
0 and each term is ``(C(n,k) * u[k]) * v[n-k]``, the ``1 *`` included.  On
a complex carrier ``0 + x`` and ``1 * x`` can flip a signed zero or turn an
infinite part into NaN, so keeping them gives every carrier its previous
bits; writing the terms out drops the generator and ``sum`` calls that
dominated scalar RK4.  Jets built here skip the public constructor's copy
and arity check.

Finiteness is checked at the edges of a computation, not in every
operation: :func:`lift_variable` rejects a non-finite point, and
:func:`require_finite` (called by ``ConformalMap.jet``) a non-finite
result.  Branch-cut and zero checks stay inside the operations that need
them, because a result cannot show that a cut was crossed.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import BranchCutError, EvaluationError

ORDER = 3

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


def _is_np(v):
    return isinstance(v, (np.ndarray, np.generic))


def _is_mp(v):
    return type(v).__module__.split(".")[0] == "mpmath"


def _elementary(name, v):
    """``name`` ("exp", "log" or "sqrt") of ``v``, on the principal branch of
    its carrier: numpy, mpmath or cmath."""
    if type(v) is complex:  # the scalar RK4 carrier
        return getattr(cmath, name)(v)
    if _is_np(v):
        return getattr(np, name)(v)
    if _is_mp(v):
        import mpmath

        return getattr(mpmath, name)(v)
    return getattr(cmath, name)(v)


def _all_finite(v):
    if type(v) is complex or type(v) is float:  # the scalar RK4 carrier
        return cmath.isfinite(v)
    if _is_np(v):
        return bool(np.all(np.isfinite(v)))
    if _is_mp(v):
        import mpmath

        return mpmath.isfinite(v)
    return cmath.isfinite(v)


def _any(mask) -> bool:
    """True if any entry of ``mask`` is true, whatever the carrier."""
    if type(mask) is bool:  # a comparison of Python or mpmath scalars
        return mask
    return bool(np.any(mask))


def _first_center(bad, center):
    """Center of the first (row-major) point where the mask ``bad`` is true."""
    if not (_is_np(bad) or _is_np(center)):
        return center
    bad, centers = np.broadcast_arrays(bad, center)
    return complex(centers.flat[int(np.argmax(bad))])


def _first_nonfinite(values, center):
    """Center of the first point where one of ``values`` is NaN or infinite."""
    if not _is_np(center):
        return center
    bad = False
    for v in values:
        bad = bad | ~np.isfinite(v)
    return _first_center(bad, center)


def _on_cut(v):
    """True if any value lies on the principal branch cut (-inf, 0]."""
    return _any((v.imag == 0) & (v.real <= 0))


def _same_value(a, b):
    if _is_np(a) or _is_np(b):
        return np.array_equal(a, b)
    return a == b


class Jet:
    """Value and derivatives ``(f, f', f'', f''')`` at ``center``.

    Immutable after construction; every operation returns a fresh Jet.
    Finiteness is checked where points enter (:func:`lift_variable`) and
    where a map's jet leaves (:func:`require_finite`), not here.
    """

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ORDER + 1:
            raise ValueError(f"a jet needs {ORDER + 1} coefficients, got {len(coeffs)}")
        self.center = center
        self.coeffs = coeffs

    @property
    def value(self):
        return self.coeffs[0]

    def __repr__(self):
        return f"Jet(center={self.center!r}, coeffs={self.coeffs!r})"

    # -- ring operations ---------------------------------------------------

    def _check_center(self, other: "Jet"):
        # jets of one computation share their center object, so identity settles most checks
        if self.center is not other.center and not _same_value(self.center, other.center):
            raise EvaluationError(
                f"jet center mismatch: {self.center!r} vs {other.center!r}"
            )

    def __add__(self, other):
        a0, a1, a2, a3 = self.coeffs
        if isinstance(other, Jet):
            self._check_center(other)
            b0, b1, b2, b3 = other.coeffs
            return _jet(self.center, (a0 + b0, a1 + b1, a2 + b2, a3 + b3))
        return _jet(self.center, (a0 + other, a1, a2, a3))

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.coeffs
        return _jet(self.center, (-a0, -a1, -a2, -a3))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        a0, a1, a2, a3 = self.coeffs
        return _jet(self.center, (a0 * other, a1 * other, a2 * other, a3 * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return jet_div(self, other)
        a0, a1, a2, a3 = self.coeffs
        return _jet(self.center, (a0 / other, a1 / other, a2 / other, a3 / other))

    def __rtruediv__(self, other):
        # scalar / jet, via the quotient recursion with a constant numerator
        return jet_div(jet_constant(other, self.center), self)


def _jet(center, coeffs, _new=object.__new__):
    """A Jet of the 4-tuple ``coeffs``, without the public constructor's copy and check."""
    jet = _new(Jet)
    jet.center = center
    jet.coeffs = coeffs
    return jet


def lift_variable(z0) -> Jet:
    """Jet of the identity map at ``z0``: coefficients (z0, 1, 0, 0)."""
    if isinstance(z0, (int, float)):
        z0 = complex(z0)
    if not _all_finite(z0):
        raise EvaluationError(f"cannot lift a non-finite point z={_first_nonfinite((z0,), z0)!r}")
    return _jet(z0, (z0, 1.0, 0.0, 0.0))


def require_finite(jet: Jet) -> Jet:
    """``jet`` itself when every coefficient is finite; otherwise an
    EvaluationError naming the first point with a NaN or infinity."""
    for c in jet.coeffs:
        if not _all_finite(c):
            raise EvaluationError(
                f"non-finite jet coefficient at z={_first_nonfinite(jet.coeffs, jet.center)!r}"
            )
    return jet


def jet_constant(value, z0) -> Jet:
    """Jet of the constant map ``value`` at ``z0``."""
    return _jet(z0, (value, 0.0, 0.0, 0.0))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Product jet by the Leibniz rule, exact through order 3."""
    a._check_center(b)
    u0, u1, u2, u3 = a.coeffs
    v0, v1, v2, v3 = b.coeffs
    # the generic sum(_BINOM[n][k] * u[k] * v[n - k]) written out, leading 0 and 1 * kept
    return _jet(a.center, (
        0 + 1 * u0 * v0,
        0 + 1 * u0 * v1 + 1 * u1 * v0,
        0 + 1 * u0 * v2 + 2 * u1 * v1 + 1 * u2 * v0,
        0 + 1 * u0 * v3 + 3 * u1 * v2 + 3 * u2 * v1 + 1 * u3 * v0,
    ))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient jet a/b, solving the Leibniz identity a = q*b order by order.

    A term whose divisor coefficient is exactly zero adds exactly zero, also
    where its other factor overflowed to infinity (inf * 0 is NaN).
    """
    a._check_center(b)
    u, v = a.coeffs, b.coeffs
    zero = v[0] == 0
    if _any(zero):
        where = _first_center(zero, a.center)
        raise EvaluationError(f"division by jet with zero value at z={where!r}")
    if not _is_np(a.center):
        return _jet(a.center, _quotient(u, v))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 terms, which _quotient repairs
        return _jet(a.center, _quotient(u, v))


def _quotient(u, v):
    """Coefficients of u/v by the quotient recursion (``v[0]`` has no zero)."""
    q0 = u[0] / v[0]
    q1 = (u[1] - q0 * v[1]) / v[0]
    q2 = (u[2] - q0 * v[2] - 2 * q1 * v[1]) / v[0]
    q3 = (u[3] - q0 * v[3] - 3 * q1 * v[2] - 3 * q2 * v[1]) / v[0]
    if not _any(q3 != q3):  # a NaN term of any order reaches q3
        return q0, q1, q2, q3
    # the same operations in the same order, with each NaN term whose divisor
    # coefficient is zero set to zero, so every other bit stays the same
    q = [q0]
    for n in range(1, ORDER + 1):
        acc = u[n]
        for k in range(n):
            vk = v[n - k]
            term = (_BINOM[n][k] * q[k] if k else q[k]) * vk
            if _is_np(term):
                term = np.where(np.isnan(term) & (vk == 0), 0, term)
            elif term != term and vk == 0:
                term = 0
            acc = acc - term
        q.append(acc / v[0])
    return tuple(q)


def _compose_derivs(g, u):
    """Faa di Bruno through order 3.

    ``g`` holds the derivatives of the outer function at the inner value,
    ``u`` the derivatives of the inner function at the center.
    """
    u1, u2, u3 = u[1], u[2], u[3]
    r0 = g[0]
    r1 = g[1] * u1
    r2 = g[2] * u1 * u1 + g[1] * u2
    r3 = g[3] * u1 ** 3 + 3 * g[2] * u1 * u2 + g[1] * u3
    return (r0, r1, r2, r3)


# -- elementary functions ----------------------------------------------------
#
# Each helper accepts either a Jet (returning the jet of fn(a) through the
# derivative table of fn at a.value) or a plain scalar (returning fn(value)
# on the principal branch).  The scalar path only rejects outright poles so
# that continuous boundary values remain computable.


def jexp(a):
    if not isinstance(a, Jet):
        return _elementary("exp", a)
    e = _elementary("exp", a.value)
    return _jet(a.center, _compose_derivs((e, e, e, e), a.coeffs))


def jlog(a):
    if not isinstance(a, Jet):
        if _any(a == 0):
            raise EvaluationError("log of zero")
        return _elementary("log", a)
    v = a.value
    if _on_cut(v):
        raise BranchCutError(f"log jet on branch cut (-inf, 0]: value {v!r}")
    g = (_elementary("log", v), 1 / v, -1 / v ** 2, 2 / v ** 3)
    return _jet(a.center, _compose_derivs(g, a.coeffs))


def jsqrt(a):
    if not isinstance(a, Jet):
        return _elementary("sqrt", a)
    v = a.value
    if _on_cut(v):
        raise BranchCutError(f"sqrt jet on branch cut (-inf, 0]: value {v!r}")
    s = _elementary("sqrt", v)
    g = (s, s / (2 * v), -s / (4 * v * v), 3 * s / (8 * v ** 3))
    return _jet(a.center, _compose_derivs(g, a.coeffs))


def jrecip(a):
    if not isinstance(a, Jet):
        if _any(a == 0):
            raise EvaluationError("reciprocal of zero")
        return 1 / a
    v = a.value
    if _any(v == 0):
        raise EvaluationError("reciprocal jet at zero value")
    r = 1 / v
    g = (r, -(r ** 2), 2 * r ** 3, -6 * r ** 4)
    return _jet(a.center, _compose_derivs(g, a.coeffs))

