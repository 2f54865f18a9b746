"""Closed-form extensions over the imaginary axis and their dilatations.

For Re z < 0 write z* = -conj(z) for the mirror point in H.  The two
extensions and their complex dilatations mu = (d/dzbar) / (d/dz) are

  schwarzian:      E(z) = h(z*) + (2 Re z) h'(z*) / (1 - (Re z) Ph(z*))
                   mu(z) = -(1/2) (2 Re z)^2 Sh(z*)
  pre-schwarzian:  E(z) = f(z*) + (2 Re z) f'(z*)
                   mu(z) = -(2 Re z) Pf(z*)

and for Re z >= 0 both extensions equal the map itself; at Re z = 0 the
reflected formula collapses to the boundary value, so E is continuous
across the axis.

Substituting t = -Re z into the Loewner chain member at the boundary
point i Im z reproduces the reflected formula identically: that is the
trace construction of :func:`trace_extend`, and :func:`trace_check` is the
trace-check walk that compares it with :func:`extend` over the strip grid.

Dilatations are verified two ways: the closed form above, and central
finite differences of the Wirtinger derivatives of E.  The grid report
flags samples whose d/dz nearly vanishes instead of failing on them;
that is how maps violating the extension hypotheses are explored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, HorizonError
from .jets import _first_center
from .loewner import VARIANT_PRE, VARIANT_SCHWARZIAN, _check_variant, _guard, family_ht
from .maps import ConformalMap
from .schwarz import StripGrid, _run_blocks, derivative_ratios

DEFAULT_FD_STEP = 1e-5
DEFAULT_FD_TOL = 1e-6
TRACE_PULL = 1e-9  # trace_check's pull-in of _mirror_levels: no stencil, so just inside tau


def extend(h: ConformalMap, variant: str, z, tau: float | None = None):
    """Extension value at z; the map itself for Re z >= 0, the reflected
    closed form on the strip -tau < Re z < 0.

    Array input must lie entirely on one side of the axis.
    """
    _check_variant(variant)
    x = z.real
    if np.all(x >= 0):
        return h.value(z)
    if not np.all(x < 0):
        raise ValueError("array input must not mix Re z < 0 with Re z >= 0")
    if tau is not None:
        beyond = x <= -tau
        if np.any(beyond):
            first = _first_center(beyond, z).real
            raise HorizonError(f"Re z = {first!r} at or beyond the horizon -tau = {-tau}")
    jet = h.jet(-z.conjugate())
    c0, c1 = jet.coeffs[0], jet.coeffs[1]
    if variant == VARIANT_PRE:
        return c0 + 2 * x * c1
    pf = derivative_ratios(jet)[0]
    den = 1 - x * pf
    _guard(den, "|1 - (Re z) Ph(z*)|", z, -x)
    return c0 + 2 * x * c1 / den


def mu_formula(h: ConformalMap, variant: str, z):
    """Closed-form complex dilatation of the extension at Re z < 0."""
    _check_variant(variant)
    x = z.real
    if not np.all(x < 0):
        raise ValueError("dilatation formula is defined for Re z < 0 only")
    pf, sf = derivative_ratios(h.jet(-z.conjugate()))
    if variant == VARIANT_SCHWARZIAN:
        return -0.5 * (2 * x) ** 2 * sf
    return -(2 * x) * pf


def trace_extend(h: ConformalMap, variant: str, z):
    """Extension through the chain trace: the member at time -Re z evaluated
    at i Im z.  Algebraically identical to :func:`extend` on the strip."""
    x = z.real
    if not np.all(x < 0):
        raise ValueError("trace extension applies to Re z < 0 only")
    return family_ht(h, variant, -x, 1j * z.imag)


def _wirtinger_pair(F, z, step: float):
    fx = (F(z + step) - F(z - step)) / (2 * step)
    fy = (F(z + 1j * step) - F(z - 1j * step)) / (2 * step)
    d_z = 0.5 * (fx - 1j * fy)
    d_zbar = 0.5 * (fx + 1j * fy)
    return d_z, d_zbar


def _mirror_levels(tau: float, fd_step: float = DEFAULT_FD_STEP, grid: StripGrid | None = None,
                   nx: int | None = None, ny: int | None = None):
    """Re levels (negative) and Im values of the strip -tau < Re z < 0, mirrored
    from the norm grid, pulled in by two FD steps so stencils stay inside the strip."""
    for name, count in (("nx", nx), ("ny", ny)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    grid = grid or StripGrid()
    x_hi = tau - 2 * fd_step
    if x_hi <= grid.x_min:
        raise ValueError(f"horizon {tau} leaves no room above grid x_min {grid.x_min}")
    if nx is None:
        xs = grid.x_levels(x_hi)
    else:
        xs = np.logspace(np.log10(grid.x_min), np.log10(x_hi), nx)
    return -xs, np.linspace(-grid.y_max, grid.y_max, grid.y_count if ny is None else ny)


def mirror_strip_points(tau: float, **options) -> np.ndarray:
    """The whole mesh of the strip grid of ``_mirror_levels(tau, **options)``."""
    xs, ys = _mirror_levels(tau, **options)
    return xs[:, None] + 1j * ys[None, :]


@dataclass(frozen=True)
class QCReport:
    """Dilatation verification over a mirrored strip grid: max |mu_fd| and
    |mu_fd - mu_formula| over the accepted (not degenerate) samples, max
    |mu_formula| over all, and the per-sample arrays if they were asked for."""

    map_name: str
    variant: str
    k: float
    tau: float
    fd_step: float
    fd_tolerance: float
    max_mu_fd: float
    max_mu_formula: float
    max_identity_error: float
    degenerate_count: int
    failures: tuple
    points: np.ndarray | None = None
    mu_fd: np.ndarray | None = None
    mu_form: np.ndarray | None = None
    degenerate: np.ndarray | None = None

    @property
    def mu_bound(self) -> float:
        return self.k / 2 if self.variant == VARIANT_SCHWARZIAN else self.k

    @property
    def passed(self) -> bool:
        return (
            not self.failures
            and self.max_mu_formula <= self.mu_bound + 1e-9
            and self.max_identity_error <= self.fd_tolerance
        )

    def sample_columns(self) -> tuple:
        """Flat per-sample columns of the JSON report, in row-major grid order:
        Re z, Im z, Re/Im mu_fd, Re/Im mu_formula, err = |mu_fd - mu_formula|
        (float64) and degenerate (bool)."""
        z, fd, form = (a.ravel() for a in (self.points, self.mu_fd, self.mu_form))
        with np.errstate(invalid="ignore", over="ignore"):
            d = fd - form
            err = np.hypot(d.real, d.imag)
        return (z.real, z.imag, fd.real, fd.imag, form.real, form.imag, err,
                self.degenerate.ravel())

    def to_json_dict(self) -> dict:
        """The JSON report; it has per-sample rows when the report holds samples."""
        doc = {
            "map": self.map_name,
            "variant": self.variant,
            "k": self.k,
            "tau": self.tau,
            "fd_step": self.fd_step,
            "summary": {
                "max_mu": self.max_mu_fd,
                "max_mu_formula": self.max_mu_formula,
                "max_identity_err": self.max_identity_error,
                "degenerate_count": self.degenerate_count,
                "failures": list(self.failures),
                "pass": self.passed,
            },
        }
        if self.points is not None:
            zr, zi, fr, fi, mr, mi, err, deg = (c.tolist() for c in self.sample_columns())
            doc["samples"] = [
                {"z": [a, b], "mu_fd": [c, d], "mu_formula": [e, f], "err": g, "degenerate": h}
                for a, b, c, d, e, f, g, h in zip(zr, zi, fr, fi, mr, mi, err, deg)
            ]
        return doc


def qc_report(
    h: ConformalMap,
    variant: str,
    tau: float,
    k: float = 0.5,
    fd_step: float = DEFAULT_FD_STEP,
    fd_tolerance: float = DEFAULT_FD_TOL,
    grid: StripGrid | None = None,
    nx: int | None = None,
    ny: int | None = None,
    samples: bool = True,
) -> QCReport:
    """Verify the dilatation identity and bound over the reflected strip
    -tau < Re z < 0.

    PASS requires max |mu_formula| <= k/2 (schwarzian) or <= k
    (pre-schwarzian) plus the FD/formula identity at every accepted
    sample.  Degenerate samples (|d_z| ~ 0) are excluded from PASS/FAIL
    and counted separately.  Each block of the grid reduces its levels to
    the summary's maxima; ``samples=False`` keeps no per-sample arrays.
    """
    _check_variant(variant)
    if not 0 < k < 1:
        raise ValueError(f"k must lie in (0,1), got {k}")
    if not (np.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"fd_step must be finite and positive, got {fd_step}")
    if not (np.isfinite(fd_tolerance) and fd_tolerance >= 0):
        raise ValueError(f"fd_tolerance must be finite and nonnegative, got {fd_tolerance}")
    xs, ys = _mirror_levels(tau, fd_step, grid, nx, ny)
    # per level: max |mu_fd|, |mu_formula| and |mu_fd - mu_formula|, and the degenerate
    # count; mu_fd is 0 and the identity error counts as 0 at a degenerate sample
    maxima = np.empty((3, xs.size))
    counts = np.empty(xs.size, dtype=int)
    dtypes = (complex, complex, complex, bool) if samples else ()  # z, mu_fd, mu_form, degenerate
    arrays = [np.empty((xs.size, ys.size), dtype=t) for t in dtypes]
    floor = 100 * np.finfo(float).eps / fd_step

    def run(a, b, mesh):
        d_z, d_zbar = _wirtinger_pair(lambda w: extend(h, variant, w, tau=tau), mesh, fd_step)
        form = mu_formula(h, variant, mesh)
        deg = np.abs(d_z) < floor
        with np.errstate(divide="ignore", invalid="ignore"):
            fd = np.where(deg, 0.0, d_zbar / np.where(deg, 1.0, d_z))
        for row, vals in zip(maxima, (np.abs(fd), np.abs(form),
                                      np.where(deg, 0.0, np.abs(fd - form)))):
            row[a:b] = vals.max(axis=1)
        counts[a:b] = deg.sum(axis=1)
        for out, vals in zip(arrays, (mesh, fd, form, deg)):
            out[a:b] = vals

    try:
        _run_blocks(run, xs, ys)
    except (EvaluationError, HorizonError) as exc:
        empty = [np.empty((0, 0), dtype=a.dtype) for a in arrays]
        return QCReport(h.name, variant, k, tau, fd_step, fd_tolerance, 0.0, 0.0, 0.0, 0,
                        (str(exc),), *empty)
    return QCReport(h.name, variant, k, tau, fd_step, fd_tolerance,
                    *(float(row.max()) for row in maxima), int(counts.sum()), (), *arrays)


def trace_check(h: ConformalMap, variant: str, tau: float, grid: StripGrid | None = None,
                nx: int | None = None, ny: int | None = None):
    """The trace-check walk: (points, max |trace_extend - extend|) on the mirrored strip grid."""
    xs, ys = _mirror_levels(tau, TRACE_PULL, grid, nx, ny)
    level_max = np.empty(xs.size)

    def run(a, b, mesh):
        diff = trace_extend(h, variant, mesh) - extend(h, variant, mesh, tau=tau)
        level_max[a:b] = np.max(np.abs(diff), axis=1)

    _run_blocks(run, xs, ys)
    return xs.size * ys.size, float(np.max(level_max))
