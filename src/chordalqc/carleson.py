"""Carleson box functionals for area densities on a half-plane.

A measure lambda = rho(z) dxdy is tested over boxes (0, |I|) x I with I
an interval on the imaginary axis (mirrored to (-|I|, 0) x I on the left
half-plane): it is Carleson when the ratio lambda(box)/|I| stays bounded
over all boxes and vanishing when the per-scale maximum tends to zero
with |I|.  Finite data cannot certify a limit, so the scan reports the
ratio table and a configurable trend verdict, nothing stronger.

Box integrals use tensor Gauss-Legendre with node doubling until the
relative change is small.  The panel touching the axis substitutes
x = u^2 so integrands growing like 1/x near the edge (the pre-schwarzian
dilatation density) stay accurate; piecewise densities declare their
breakpoints and are integrated panel by panel.

Densities provided:

  vmoa_density(h)      (2 Re z) |Ph(z)|^2           on H
  mu_density(h, ...)   |mu(z)|^2 / (-2 Re z)        on the strip of H*
  composite_density    same, continued past the strip by a pluggable
                       outer dilatation field
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, QuadratureError
from .extension import mu_formula
from .loewner import VARIANT_SCHWARZIAN, _check_variant
from .maps import ConformalMap
from .schwarz import derivative_ratios

DEFAULT_SCALES = tuple(2.0 ** (-j) for j in range(11))
DEFAULT_POSITIONS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)
DEFAULT_VANISH_THRESHOLD = 0.05

# node doubling: Gauss-Legendre nodes per axis and panel from N_START up to
# N_MAX, until successive estimates differ by at most rel_tol*|est| + ABS_TOL
N_START = 32
N_MAX = 512
ABS_TOL = 1e-15


@dataclass(frozen=True)
class Density:
    """Nonnegative area density against dxdy on one half-plane.

    Breakpoints mark lines across which the density is only piecewise
    smooth (x values as distances from the axis, y values absolute);
    quadrature panels never straddle them.
    """

    name: str
    side: str  # "H" or "H*"
    evaluator: object  # callable, array capable: points -> nonnegative reals
    x_breakpoints: tuple = ()
    y_breakpoints: tuple = ()

    def __post_init__(self):
        if self.side not in ("H", "H*"):
            raise ValueError(f"side must be 'H' or 'H*', got {self.side!r}")


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(a: float, b: float, n: int, sqrt_edge: bool):
    """Nodes/weights on (a, b); with sqrt_edge, substitute x = u^2 (a == 0)."""
    u, w = _leggauss(n)
    if sqrt_edge:
        r = np.sqrt(b)
        uu = 0.5 * r * (u + 1.0)
        return uu * uu, w * (0.5 * r) * 2.0 * uu
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * u, w * half


def _tensor_sum(density: Density, x_edges: list, y_edges: list, n: int) -> float:
    """Tensor Gauss-Legendre sum with n nodes per axis on every panel; a
    panel starting at the axis (x = 0) is integrated in u with x = u^2."""
    total = 0.0
    for i in range(len(x_edges) - 1):
        xnodes, xweights = _panel_nodes(x_edges[i], x_edges[i + 1], n,
                                        sqrt_edge=(x_edges[i] == 0.0))
        for j in range(len(y_edges) - 1):
            ynodes, yweights = _panel_nodes(y_edges[j], y_edges[j + 1], n, sqrt_edge=False)
            if density.side == "H*":
                pts = -xnodes[:, None] + 1j * ynodes[None, :]
            else:
                pts = xnodes[:, None] + 1j * ynodes[None, :]
            vals = np.asarray(density.evaluator(pts), dtype=float)
            total += float(xweights @ vals @ yweights)
    return total


def _box_integral(density: Density, center_y: float, length: float,
                  x_lo: float, x_hi: float, rel_tol: float) -> float:
    """Integral of the density over x_lo < |Re z| < x_hi and
    |Im z - center_y| < length/2, converged by node doubling."""
    y_lo, y_hi = center_y - 0.5 * length, center_y + 0.5 * length
    y_edges = [y_lo] + sorted(b for b in density.y_breakpoints if y_lo < b < y_hi) + [y_hi]
    x_edges = [x_lo] + sorted(b for b in density.x_breakpoints if x_lo < b < x_hi) + [x_hi]
    history = []
    n = N_START
    while n <= N_MAX:
        est = _tensor_sum(density, x_edges, y_edges, n)
        if history and abs(est - history[-1][1]) <= rel_tol * abs(est) + ABS_TOL:
            return est
        history.append((n, est))
        n *= 2
    tail = ", ".join(f"{e!r} (n={m})" for m, e in history[-2:])
    raise QuadratureError(
        f"box integral did not converge for {density.name!r} at center_y={center_y}, "
        f"|I|={length}, x in ({x_lo}, {x_hi}); last estimates {tail}"
    )


def box_ratio(density: Density, center_y: float, length: float, rel_tol: float = 1e-6) -> float:
    """lambda(box)/|I| for the box at i*center_y with side |I| = length,
    converged by node doubling to the requested relative change."""
    if length <= 0:
        raise ValueError("interval length must be positive")
    return _box_integral(density, center_y, length, 0.0, length, rel_tol) / length


@dataclass(frozen=True)
class CarlesonReport:
    """Ratio table lambda(box)/|I| over (scale, position) with the trend verdict."""

    density_name: str
    scales: tuple
    positions: tuple
    ratios: np.ndarray  # shape (len(scales), len(positions))
    vanish_threshold: float

    @property
    def norm_estimate(self) -> float:
        return float(self.ratios.max()) if self.ratios.size else 0.0

    @property
    def per_scale_max(self) -> tuple:
        return tuple(float(v) for v in self.ratios.max(axis=1))

    @property
    def vanishing(self) -> bool:
        norm = self.norm_estimate
        if norm == 0.0:
            return True
        psm = self.per_scale_max
        decreasing = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(psm, psm[1:]))
        return decreasing and psm[-1] <= self.vanish_threshold * norm

    def rows(self):
        for i, sc in enumerate(self.scales):
            for j, cy in enumerate(self.positions):
                yield (sc, cy, float(self.ratios[i, j]))

    CSV_HEADER = ("scale", "center_y", "ratio")

    def summary(self) -> dict:
        return {
            "density": self.density_name,
            "norm_estimate": self.norm_estimate,
            "per_scale_max": list(self.per_scale_max),
            "scales": list(self.scales),
            "vanishing": self.vanishing,
        }


def carleson_scan(
    density: Density,
    scales=None,
    positions=None,
    rel_tol: float = 1e-6,
    vanish_threshold: float = DEFAULT_VANISH_THRESHOLD,
) -> CarlesonReport:
    """Full ratio table over dyadic scales and sliding positions."""
    scales = tuple(sorted((float(s) for s in (scales or DEFAULT_SCALES)), reverse=True))
    positions = tuple(float(p) for p in (positions or DEFAULT_POSITIONS))
    if not scales:
        raise ValueError("need at least one scale")
    table = np.zeros((len(scales), len(positions)))
    for i, sc in enumerate(scales):
        for j, cy in enumerate(positions):
            table[i, j] = box_ratio(density, cy, sc, rel_tol=rel_tol)
    return CarlesonReport(density.name, scales, positions, table, vanish_threshold)


def vmoa_density(h: ConformalMap) -> Density:
    """(2 Re z)|Ph(z)|^2 on H; the mean-oscillation area density of log h'."""

    def _eval(z):
        p = derivative_ratios(h.jet(z))[0]
        return 2.0 * np.real(z) * np.abs(p) ** 2

    return Density(f"vmoa:{h.name}", "H", _eval)


def mu_density(h: ConformalMap, variant: str, tau: float) -> Density:
    """|mu(z)|^2/(-2 Re z) on -tau <= Re z < 0; errors beyond the strip."""
    _check_variant(variant)
    if tau <= 0:
        raise ValueError("tau must be positive")

    def _eval(z):
        x = np.real(z)
        if np.any(x >= 0) or np.any(x < -tau):
            raise EvaluationError(
                f"dilatation density defined on -{tau} <= Re z < 0 only "
                "(outer extension not configured)"
            )
        m = mu_formula(h, variant, z)
        return np.abs(m) ** 2 / (-2.0 * x)

    return Density(f"mu:{h.name}:{variant}", "H*", _eval)


def composite_mu_tilde(h: ConformalMap, t: float, outer=None):
    """Piecewise dilatation on H*: the closed schwarzian form on
    -t <= Re z < 0, the supplied outer field shifted by t beyond."""
    if t <= 0:
        raise ValueError("strip width t must be positive")

    def _field(z):
        scalar = not isinstance(z, np.ndarray)
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        x = zz.real
        if np.any(x >= 0):
            raise EvaluationError("composite dilatation lives on Re z < 0")
        inner = x >= -t
        out = np.zeros(zz.shape, dtype=complex)
        if inner.any():
            out[inner] = mu_formula(h, VARIANT_SCHWARZIAN, zz[inner])
        if (~inner).any():
            if outer is None:
                raise EvaluationError(f"outer extension not configured for Re z < {-t}")
            out[~inner] = outer(zz[~inner] + t)
        if scalar:
            return complex(out.reshape(-1)[0])
        return out.reshape(np.shape(z))

    return _field


def composite_density(h: ConformalMap, t: float, outer=None) -> Density:
    """|mu_tilde|^2/(-2 Re z) for the composite field, with the strip edge
    declared as a quadrature breakpoint."""
    field = composite_mu_tilde(h, t, outer)

    def _eval(z):
        m = field(z)
        return np.abs(m) ** 2 / (-2.0 * np.real(z))

    return Density(f"mu-tilde:{h.name}", "H*", _eval, x_breakpoints=(t,))


@dataclass(frozen=True)
class BigBoxSplit:
    """Box ratio of the composite density split at the strip edge."""

    length: float
    center_y: float
    total: float
    inner_term: float
    outer_term: float

    @property
    def defect(self) -> float:
        return abs(self.total - (self.inner_term + self.outer_term))


def bigbox_decomposition(
    h: ConformalMap,
    t: float,
    center_y: float,
    length: float,
    outer=None,
    rel_tol: float = 1e-8,
) -> BigBoxSplit:
    """Compute the composite box ratio and, independently, its inner-strip
    and outer parts.

    The inner part integrates (2x)^3 |Sh(x+iy)|^2 / 4 over the reflected
    region on H (an algebraically equal but separately coded expression);
    the outer part integrates |outer(z+t)|^2/(-2 Re z).
    """
    total = box_ratio(composite_density(h, t, outer), center_y, length, rel_tol=rel_tol)

    def _inner(z):
        s = derivative_ratios(h.jet(z))[1]
        return (2.0 * np.real(z)) ** 3 * np.abs(s) ** 2 / 4.0

    x_in = min(t, length)
    inner_density = Density("bigbox-inner", "H", _inner)
    inner_term = _box_integral(inner_density, center_y, length, 0.0, x_in, rel_tol) / length

    if length > t:
        if outer is None:
            outer_term = 0.0
        else:
            def _outer(z):
                m = outer(z + t)
                return np.abs(m) ** 2 / (-2.0 * np.real(z))

            outer_density = Density("bigbox-outer", "H*", _outer)
            outer_term = _box_integral(outer_density, center_y, length, t, length,
                                       rel_tol) / length
    else:
        outer_term = 0.0
    return BigBoxSplit(length, center_y, total, inner_term, outer_term)

