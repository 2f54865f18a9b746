"""Chordal Loewner machinery for the two explicit chain variants.

Given a locally univalent h on the right half-plane, the chain member at
time t and its closed-form derivatives are, in the schwarzian variant,

    h_t(z)  = h(z+t) - 2t h'(z+t) / (1 + t Ph(z+t))
    dh_t/dt = -h'(z+t) (1 - 2t^2 Sh(z+t)) / (1 + t Ph(z+t))^2
    dh_t/dz =  h'(z+t) (1 + 2t^2 Sh(z+t)) / (1 + t Ph(z+t))^2

driven through the chordal equation dh_t/dt = -p(z,t) dh_t/dz by

    p(z,t) = (1 - 2t^2 Sh(z+t)) / (1 + 2t^2 Sh(z+t)),

and in the pre-schwarzian variant by

    f_t(z)  = f(z+t) - 2t f'(z+t)
    p(z,t)  = (1 + 2t Pf(z+t)) / (1 - 2t Pf(z+t)).

Both fields satisfy the exact disk identity |(p-1)/(p+1)| = 2t^2|Sh(z+t)|
(resp. 2t|Pf(z+t)|), so p stays in U(k) = {|w-1| <= k|w+1|} exactly while
the relevant strip norm stays at or below k.  The horizon scan certifies
the largest grid time t* with sigma(t*) <= k (schwarzian) or
beta(t*) <= k (pre-schwarzian); every downstream operation still guards
its denominators pointwise, so grid gaps cannot corrupt a result.

The evolution of dw/dt = p(w,t) uses classical fixed-step RK4 (substeps
of equal size), which keeps runs bit-reproducible; a (step, step/2) pair
provides the local error estimate in traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError
from .jets import _any, _first_center
from .maps import ConformalMap
from .schwarz import StripGrid, _level_sups, derivative_ratios

VARIANT_SCHWARZIAN = "schwarzian"
VARIANT_PRE = "pre-schwarzian"
VARIANTS = (VARIANT_SCHWARZIAN, VARIANT_PRE)

DENOM_FLOOR = 1e-9


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _guard(den, what: str, z, t):
    """Raise HorizonError where ``|den|`` is below DENOM_FLOOR, naming the
    ``z`` and ``t`` of the first such point."""
    bad = abs(den) < DENOM_FLOOR
    if _any(bad):
        z, t = _first_center(bad, z), _first_center(bad, t).real
        raise HorizonError(f"{what} below {DENOM_FLOOR} at z={z!r}, t={t!r} (horizon violated)")


@dataclass(frozen=True)
class HerglotzField:
    """Time-dependent holomorphic field p(z,t) of one chain variant.

    ``tau0`` is the certified validity horizon, as :func:`tau0_scan`
    finds it.
    """

    base_map: ConformalMap
    variant: str
    k: float
    tau0: float

    def __post_init__(self):
        _check_variant(self.variant)
        if not (0 < self.k < 1):
            raise ValueError(f"k must lie in (0,1), got {self.k}")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")

    def p(self, z, t: float):
        _, pf, sf = _terms(self.base_map, z, t)
        return _field_value(self.variant, pf, sf, z, t)


def _terms(h: ConformalMap, z, t):
    """h'(z+t), Ph(z+t) and Sh(z+t) from one jet evaluation."""
    jet = h.jet(z + t)
    pf, sf = derivative_ratios(jet)
    return jet.coeffs[1], pf, sf


def _chain_derivatives(variant: str, c1, pf, sf, z, t):
    """(dh_t/dt, dh_t/dz) from h', Ph and Sh at z+t."""
    if variant == VARIANT_PRE:
        return -c1 * (1 + 2 * t * pf), c1 * (1 - 2 * t * pf)
    den = 1 + t * pf
    _guard(den, "|1 + t Ph(z+t)|", z, t)
    den2 = den * den
    s2 = 2 * t * t * sf
    return -c1 * (1 - s2) / den2, c1 * (1 + s2) / den2


def _field_value(variant: str, pf, sf, z, t):
    """p(z,t) from Ph and Sh at z+t."""
    if variant == VARIANT_SCHWARZIAN:
        den = 1 + 2 * t * t * sf
        _guard(den, "|1 + 2t^2 Sh(z+t)|", z, t)
        return (1 - 2 * t * t * sf) / den
    den = 1 - 2 * t * pf
    _guard(den, "|1 - 2t Pf(z+t)|", z, t)
    return (1 + 2 * t * pf) / den


def family_ht(h: ConformalMap, variant: str, t: float, z):
    """Value of the chain member at time t (h_0 = h exactly)."""
    _check_variant(variant)
    jet = h.jet(z + t)
    c0, c1 = jet.coeffs[0], jet.coeffs[1]
    if variant == VARIANT_PRE:
        return c0 - 2 * t * c1
    pf = derivative_ratios(jet)[0]
    den = 1 + t * pf
    _guard(den, "|1 + t Ph(z+t)|", z, t)
    return c0 - 2 * t * c1 / den


def family_derivatives(h: ConformalMap, variant: str, t: float, z):
    """Closed-form (d/dt, d/dz) of the chain member."""
    _check_variant(variant)
    c1, pf, sf = _terms(h, z, t)
    return _chain_derivatives(variant, c1, pf, sf, z, t)


def pde_residual(h: ConformalMap, variant: str, z, t: float):
    """|dh_t/dt + p(z,t) dh_t/dz|; identically zero in exact arithmetic."""
    _check_variant(variant)
    c1, pf, sf = _terms(h, z, t)
    dt, dz = _chain_derivatives(variant, c1, pf, sf, z, t)
    p = _field_value(variant, pf, sf, z, t)
    return abs(dt + p * dz)


def _require_in_h(z, where: str):
    bad = z.real <= 0
    if _any(bad):
        z = _first_center(bad, z)
        raise HorizonError(f"{where}: point left the right half-plane at z={z!r}")


def _rk4_step(field: HerglotzField, w, ti: float, hh: float):
    k1 = field.p(w, ti)
    k2 = field.p(w + 0.5 * hh * k1, ti + 0.5 * hh)
    k3 = field.p(w + 0.5 * hh * k2, ti + 0.5 * hh)
    k4 = field.p(w + hh * k3, ti + hh)
    w = w + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    _require_in_h(w, f"RK4 step from t={ti}")
    return w


def _substeps(field: HerglotzField, s: float, t: float, z, step: float):
    """Check the flow arguments; return the number and size of the equal
    RK4 substeps from s to t (none when s == t)."""
    if step <= 0:
        raise ValueError("step must be positive")
    if not (0 <= s <= t <= field.tau0 + 1e-12):
        raise HorizonError(f"need 0 <= s <= t <= tau0={field.tau0}, got s={s}, t={t}")
    _require_in_h(z, "start point")
    if t == s:
        return 0, 0.0
    n = max(1, math.ceil((t - s) / step))
    return n, (t - s) / n


def evolve(field: HerglotzField, s: float, t: float, z, step: float = 1e-3):
    """RK4 approximation of the evolution flow from time s to t, started at z.

    The interval is cut into equal substeps no longer than ``step``;
    identical arguments always produce identical output.  Accepts a numpy
    array of start points (the field is evaluated elementwise).
    """
    n, hh = _substeps(field, s, t, z, step)
    w = z
    for i in range(n):
        w = _rk4_step(field, w, s + i * hh, hh)
    return w


@dataclass(frozen=True)
class EvolutionState:
    """One row of an evolution trace."""

    s: float
    t: float
    z0: complex
    z: complex
    step: float
    residual_estimate: float


def evolve_trace(field: HerglotzField, s: float, t: float, z, step: float = 1e-3):
    """Per-substep states of the flow, with a lockstep (step, step/2)
    Richardson difference as the accumulated error estimate."""
    n, hh = _substeps(field, s, t, z, step)
    states = [EvolutionState(s, s, complex(z), complex(z), step, 0.0)]
    w = w_half = z
    for i in range(n):
        ti = s + i * hh
        w = _rk4_step(field, w, ti, hh)
        w_half = _rk4_step(field, _rk4_step(field, w_half, ti, hh / 2), ti + hh / 2, hh / 2)
        states.append(
            EvolutionState(s, ti + hh, complex(z), complex(w), step, abs(w - w_half))
        )
    return states


@dataclass(frozen=True)
class HorizonResult:
    """Largest grid-certified time with the variant's strip norm <= k."""

    map_name: str
    variant: str
    k: float
    t_star: float
    x_levels: np.ndarray
    level_sup: np.ndarray

    def profile_rows(self):
        running = 0.0
        for x, v in zip(self.x_levels, self.level_sup):
            running = max(running, float(v))
            yield (float(x), float(v), running)

    CSV_HEADER = ("x", "level_sup", "prefix_sup")


def tau0_scan(
    h: ConformalMap,
    variant: str,
    k: float = 0.5,
    grid: StripGrid | None = None,
    t_max: float = 1.0,
) -> HorizonResult:
    """Scan the strip norm and certify the largest horizon at level k.

    schwarzian: requires sigma(t*) <= k, so 2t^2|Sh(z+t)| <= k/2 on the
    scanned boundary lines; pre-schwarzian: requires beta(t*) <= k.
    Raises HorizonError when even the smallest grid level fails.
    """
    _check_variant(variant)
    if not (0 < k < 1):
        raise ValueError(f"k must lie in (0,1), got {k}")
    grid = grid or StripGrid()
    xs, ((beta, _), (sigma, _)) = _level_sups(h, grid, t_max)
    level_sup = sigma if variant == VARIANT_SCHWARZIAN else beta
    prefix = np.maximum.accumulate(level_sup)
    ok = prefix <= k
    if not bool(ok[0]):
        raise HorizonError(
            f"no horizon at level k={k} for map {h.name!r} ({variant}): "
            f"norm {float(prefix[0]):.6g} at smallest scanned level"
        )
    idx = int(ok.sum()) - 1
    return HorizonResult(h.name, variant, k, float(xs[idx]), xs, level_sup)

