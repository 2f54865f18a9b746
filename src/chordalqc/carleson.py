"""Carleson box functionals for area densities on a half-plane.

A measure lambda = rho(z) dxdy is tested over boxes (0, |I|) x I with I
an interval on the imaginary axis (mirrored to (-|I|, 0) x I on the left
half-plane): it is Carleson when the ratio lambda(box)/|I| stays bounded
over all boxes and vanishing when the per-scale maximum tends to zero
with |I|.  Finite data cannot certify a limit, so the scan reports the
ratio table and a configurable trend verdict, nothing stronger.

Box integrals use one adaptive engine, _integrate_boxes: every panel
carries a tensor Gauss-Kronrod 7/15 rule whose embedded Gauss sum gives
the error estimate |K - G|, and a box whose summed estimate is too large
bisects its worst panels, each along the axis whose one-axis error
(|K - Gx*Ky| in x, |K - Kx*Gy| in y) is larger, so refinement follows
ridges and grades toward corner singularities.  The panels touching the
axis are integrated in u with x = u^2, so integrands growing like 1/x
near the edge (the pre-schwarzian dilatation density) stay accurate;
piecewise densities declare their breakpoints and panels never straddle
them.  Each refinement round evaluates the new panels of every open box
of a scan together, at most CALL_NODES nodes per density call, each in
blocks of whole panels on the strip scans' block runner (whole if the
density is piecewise).  A box
that is not finite and nonempty raises ValueError on entry, and one that
needs more than MAX_PANELS panels, or a panel narrower than MIN_WIDTH
times its side, QuadratureError.  bigbox_decomposition runs the engine
three times for all its lengths: the composite density over the whole
boxes and over their parts beyond the strip, the inner one on the strip.

Densities provided:

  vmoa_density(h)      (2 Re z) |Ph(z)|^2           on H
  mu_density(h, ...)   |mu(z)|^2 / (-2 Re z)        on the strip of H*
  composite_density    same, continued past the strip by a pluggable
                       outer dilatation field
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, QuadratureError
from .extension import mu_formula
from .jets import _first_center
from .loewner import VARIANT_SCHWARZIAN, _check_variant
from .maps import ConformalMap
from .schwarz import _run_rows, derivative_ratios

DEFAULT_SCALES = tuple(2.0 ** (-j) for j in range(11))
DEFAULT_POSITIONS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)
DEFAULT_VANISH_THRESHOLD = 0.05

# acceptance: a box is done when its summed error estimates are at most
# rel_tol*|estimate| + ABS_TOL; it fails once it would need more than MAX_PANELS
# panels, or a panel narrower than MIN_WIDTH*|I| (in y, or in u where x = u^2);
# one density call evaluates at most CALL_NODES nodes
ABS_TOL = 1e-15
MAX_PANELS = 1024
MIN_WIDTH = 2.0 ** -52
CALL_NODES = 2 ** 16

# QUADPACK's 15-point Gauss-Kronrod table on [-1, 1] (dqk15; Laurie, Math. Comp.
# 66, 1997): nonnegative nodes from 0.99 down to 0, their Kronrod weights, and
# the weights of the embedded 7-point Gauss rule at _XK_HALF[1::2]
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_XK = np.concatenate((-_XK_HALF[:-1], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF[:-1], _WK_HALF[::-1]))
_WG = np.zeros(_XK.size)
_WG[1::2] = np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))
_PANELS_PER_CALL = CALL_NODES // _XK.size ** 2


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


def _axis_rule(a, b, in_u):
    """Nodes and Kronrod and Gauss weights, shape (P, 15), on the panels (a, b)
    of one axis; where in_u, (a, b) is a range of u and the nodes are x = u^2."""
    half = 0.5 * (b - a)[:, None]
    t = 0.5 * (a + b)[:, None] + half * _XK
    jac = np.where(in_u[:, None], 2.0 * t, 1.0) * half
    return np.where(in_u[:, None], t * t, t), jac * _WK, jac * _WG


def _panel_sums(density: Density, panels: list):
    """Tensor Kronrod sums K, their errors |K - G| and the one-axis errors
    |K - Gx*Ky| and |K - Kx*Gy| on the panels (box, xa, xb, ya, yb, in_u), at
    most CALL_NODES nodes per density call.

    A call runs in blocks of whole panels (``schwarz._run_rows``) that keep its bits, and
    again whole if one fails, to raise the call's first failure.  A piecewise density's
    calls run whole: a block can hold fewer than ELIDE_POINTS nodes of a piece where the
    call holds more (``composite_mu_tilde`` evaluates each alone).  Panels sum alone."""
    geo = np.array([p[1:5] for p in panels])
    xs, wxk, wxg = _axis_rule(geo[:, 0], geo[:, 1], np.array([p[5] for p in panels]))
    ys, wyk, wyg = _axis_rule(geo[:, 2], geo[:, 3], np.zeros(len(panels), dtype=bool))
    sign = -1.0 if density.side == "H*" else 1.0
    k, *errs = [], [], [], []
    for lo in range(0, len(panels), _PANELS_PER_CALL):
        c = slice(lo, lo + _PANELS_PER_CALL)
        vals = np.empty((len(geo[c]), _XK.size, _XK.size))

        def run(a, b):
            d = slice(lo + a, lo + b)
            vals[a:b] = density.evaluator(sign * xs[d, :, None] + 1j * ys[d, None, :])

        blocked = not (density.x_breakpoints or density.y_breakpoints)
        if blocked:
            try:
                _run_rows(run, len(vals), vals[0].size)
            except Exception:  # a block names its own first failure: rerun to name the call's
                blocked = False
        if not blocked:
            run(0, len(vals))
        kc = np.sum(vals * (wxk[c, :, None] * wyk[c, None, :]), axis=(1, 2))
        k.extend(kc.tolist())
        for out, wx, wy in zip(errs, (wxg, wxg, wxk), (wyg, wyk, wyg)):
            other = np.sum(vals * (wx[c, :, None] * wy[c, None, :]), axis=(1, 2))
            out.extend(np.abs(kc - other).tolist())
    return k, *errs


def _integrate_boxes(density: Density, boxes, rel_tol: float) -> np.ndarray:
    """Integrals of the density over the boxes (center_y, length, x_lo, x_hi),
    that is x_lo < |Re z| < x_hi and |Im z - center_y| < length/2.

    Panels split at the breakpoints carry a tensor Gauss-Kronrod 7/15 rule; a
    panel starting at the axis (x = 0) is a panel in u with x = u^2, and so are
    its children.  A box is done when the sum of its |K - G| is at most
    rel_tol*|sum K| + ABS_TOL; otherwise every panel whose error exceeds an
    equal share of that tolerance (at least the worst one) is bisected along
    one axis: x (or u) when |K - Gx*Ky| >= |K - Kx*Gy|, else y.  Each round
    evaluates the new panels of all open boxes together; a box that would need
    more than MAX_PANELS panels, or panels narrower than MIN_WIDTH*|I|, raises
    QuadratureError naming the limit, and one that is not finite and nonempty ValueError."""
    new = []
    for b, (center_y, length, x_lo, x_hi) in enumerate(boxes):
        if not (math.isfinite(center_y) and 0 < length < math.inf and 0 <= x_lo < x_hi < math.inf):
            raise ValueError(f"box at center_y={center_y}, |I|={length}, x in ({x_lo}, {x_hi}) "
                             "is not finite and nonempty")
        y_lo, y_hi = center_y - 0.5 * length, center_y + 0.5 * length
        ys = [y_lo] + sorted(v for v in density.y_breakpoints if y_lo < v < y_hi) + [y_hi]
        xs = [x_lo] + sorted(v for v in density.x_breakpoints if x_lo < v < x_hi) + [x_hi]
        for xa, xb in zip(xs, xs[1:]):
            in_u = xa == 0.0
            for ya, yb in zip(ys, ys[1:]):
                new.append((b, xa, math.sqrt(xb) if in_u else xb, ya, yb, in_u))
    live = [[] for _ in boxes]  # per box: (K, |K - G|, |K - Gx*Ky|, |K - Kx*Gy|, panel)
    result = np.zeros(len(boxes))
    while new:
        for p, *sums in zip(new, *_panel_sums(density, new)):
            live[p[0]].append((*sums, p))
        open_boxes = sorted({p[0] for p in new})
        new = []
        for b in open_boxes:
            est = math.fsum(q[0] for q in live[b])
            err = math.fsum(q[1] for q in live[b])
            tol = rel_tol * abs(est) + ABS_TOL
            if err <= tol:
                result[b] = est
                continue
            share = tol / len(live[b])
            keep, cuts = [], []
            for q in live[b]:
                if q[1] > share:  # cut the x range (panel index 1) or the y range (3)
                    cuts.append((q[4], 1 if q[2] >= q[3] else 3))
                else:
                    keep.append(q)
            center_y, length, x_lo, x_hi = boxes[b]
            limit = None
            if not cuts:  # nothing to cut: the estimate or an error estimate is NaN
                limit = "a non-finite estimate"
            elif len(live[b]) + len(cuts) > MAX_PANELS:
                limit = "the MAX_PANELS budget"
            elif any(p[a + 1] - p[a] < 2 * MIN_WIDTH * length for p, a in cuts):
                limit = "the MIN_WIDTH floor"
            if limit:
                raise QuadratureError(
                    f"box integral did not converge for {density.name!r} at "
                    f"center_y={center_y}, |I|={length}, x in ({x_lo}, {x_hi}): estimate {est!r}, "
                    f"error estimate {err!r} on {len(live[b])} panels, stopped by {limit}"
                )
            live[b] = keep
            for p, a in cuts:
                mid = 0.5 * (p[a] + p[a + 1])
                new += [p[:a + 1] + (mid,) + p[a + 2:], p[:a] + (mid,) + p[a + 1:]]
    return result


def box_ratio(density: Density, center_y: float, length: float, rel_tol: float = 1e-6) -> float:
    """lambda(box)/|I| for the box at i*center_y with side |I| = length,
    converged to the requested relative error estimate."""
    return _integrate_boxes(density, [(center_y, length, 0.0, length)], rel_tol)[0] / length


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
    """Full ratio table over dyadic scales and sliding positions; ``None``
    means the defaults, and an empty ``scales`` or ``positions`` is an error."""
    scales = tuple(sorted((float(s) for s in (DEFAULT_SCALES if scales is None else scales)),
                          reverse=True))
    positions = tuple(float(p) for p in (DEFAULT_POSITIONS if positions is None else positions))
    for name, values in (("scales", scales), ("positions", positions)):
        if not values:
            raise ValueError(f"{name} is empty (None means the defaults)")
    boxes = [(cy, sc, 0.0, sc) for sc in scales for cy in positions]
    mass = _integrate_boxes(density, boxes, rel_tol).reshape(len(scales), len(positions))
    table = mass / np.array(scales)[:, None]
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
        bad = (x >= 0) | (x < -tau)
        if np.any(bad):
            raise EvaluationError(
                f"dilatation density defined on -{tau} <= Re z < 0 only "
                f"(outer extension not configured) at z={_first_center(bad, z)!r}"
            )
        m = mu_formula(h, variant, z)
        return np.abs(m) ** 2 / (-2.0 * x)

    return Density(f"mu:{h.name}:{variant}", "H*", _eval)


def composite_mu_tilde(h: ConformalMap, t: float, outer=None):
    """Piecewise dilatation on complex arrays of H* points: the closed schwarzian
    form on -t <= Re z < 0, the supplied outer field shifted by t beyond.  Each piece
    is evaluated on its own points, with other bits from ELIDE_POINTS points of it in
    one call on, so a box's integral depends on the boxes sharing its density calls,
    within rounding (about 1e-15 relative)."""
    if t <= 0:
        raise ValueError("strip width t must be positive")

    def _field(z):
        x = z.real
        if np.any(x >= 0):
            raise EvaluationError("composite dilatation lives on Re z < 0 "
                                  f"at z={_first_center(x >= 0, z)!r}")
        inner = x >= -t
        out = np.zeros(z.shape, dtype=complex)
        if inner.any():
            out[inner] = mu_formula(h, VARIANT_SCHWARZIAN, z[inner])
        if (~inner).any():
            if outer is None:
                raise EvaluationError(f"outer extension not configured for Re z < {-t} "
                                      f"at z={_first_center(~inner, z)!r}")
            out[~inner] = outer(z[~inner] + t)
        return out

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
    lengths,
    outer=None,
    rel_tol: float = 1e-8,
) -> list:
    """Compute, for each |I| in the sequence ``lengths``, the composite box
    ratio and, independently, its inner-strip and outer parts: one engine
    run per density over all the lengths.

    The inner part integrates (2x)^3 |Sh(x+iy)|^2 / 4 over the reflected
    region on H (an algebraically equal but separately coded expression);
    the outer part integrates the composite density over t < -Re z < |I|,
    where it reads the outer field, so it is 0 for |I| <= t.
    """
    density = composite_density(h, t, outer)
    total = _integrate_boxes(density, [(center_y, L, 0.0, L) for L in lengths], rel_tol)

    def _inner(z):
        s = derivative_ratios(h.jet(z))[1]
        return (2.0 * np.real(z)) ** 3 * np.abs(s) ** 2 / 4.0

    inner = _integrate_boxes(Density("bigbox-inner", "H", _inner),
                             [(center_y, L, 0.0, min(t, L)) for L in lengths], rel_tol)
    outer_mass = np.zeros(len(lengths))
    big = [i for i, L in enumerate(lengths) if L > t]
    if outer is not None and big:
        outer_mass[big] = _integrate_boxes(density, [(center_y, lengths[i], t, lengths[i])
                                                     for i in big], rel_tol)
    return [BigBoxSplit(L, center_y, a / L, b / L, c / L)
            for L, a, b, c in zip(lengths, total, inner, outer_mass)]
