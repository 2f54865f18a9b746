"""Pre-Schwarzian/Schwarzian derivatives and their boundary strip norms.

For a locally univalent analytic f the functionals computed here are

    Pf = f''/f'                      (pre-Schwarzian)
    Sf = (Pf)' - (Pf)^2/2            (Schwarzian; zero exactly on Moebius maps)

both read off an order-3 jet as rational expressions in f'..f'''.

On the right half-plane the hyperbolic density is 1/(2 Re z), so the
natural boundary norms over the strip 0 < Re z <= t are

    beta(t)  = sup (2 Re z)   |Pf(z)|
    sigma(t) = sup (2 Re z)^2 |Sf(z)|

approximated here by sups over a deterministic grid: Re z log-spaced
(the sups concentrate at the boundary), Im z uniform over [-Y, Y].  A
finite Y truncates the sup over all heights; that approximation is
inherent and documented rather than hidden.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, EvaluationError, HorizonError
from .jets import Jet, _any
from .maps import ConformalMap


def derivative_ratios(jet: Jet):
    """(Pf, Sf) at the jet's center; needs f' != 0."""
    c1, c2, c3 = jet.coeffs[1:4]
    if _any(c1 == 0):
        raise DegenerateSampleError("vanishing first derivative (map not locally univalent here)")
    p = c2 / c1
    s = c3 / c1 - 1.5 * p * p
    return p, s


@dataclass(frozen=True)
class StripGrid:
    """Deterministic sampling of the strip 0 < Re z <= x_max.

    Re levels are log-spaced with ``points_per_decade`` points per decade
    starting at ``x_min``; Im values are uniform over [-y_max, y_max].
    """

    x_min: float = 1e-4
    points_per_decade: int = 64
    y_max: float = 20.0
    y_count: int = 257

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and self.x_min > 0):
            raise ValueError(f"grid x_min must be finite and positive, got {self.x_min}")
        if not (math.isfinite(self.y_max) and self.y_max >= 0):
            raise ValueError(f"grid y_max must be finite and nonnegative, got {self.y_max}")
        if self.y_count < 1:
            raise ValueError(f"grid y_count must be at least 1, got {self.y_count}")
        if self.points_per_decade < 0:
            raise ValueError(
                f"grid points_per_decade must be nonnegative, got {self.points_per_decade}"
            )

    def x_levels(self, x_max: float) -> np.ndarray:
        if x_max < self.x_min:
            raise ValueError(f"x_max {x_max} below grid x_min {self.x_min}")
        if x_max == self.x_min:
            return np.array([self.x_min])
        decades = math.log10(x_max / self.x_min)
        n = max(2, int(math.ceil(decades * self.points_per_decade)) + 1)
        return np.logspace(math.log10(self.x_min), math.log10(x_max), n)

    def y_values(self) -> np.ndarray:
        return np.linspace(-self.y_max, self.y_max, self.y_count)


@dataclass(frozen=True)
class NormProfile:
    """beta/sigma strip sups per t, with the maximizing grid points."""

    t_values: tuple
    beta: tuple
    sigma: tuple
    argmax_beta: tuple
    argmax_sigma: tuple

    def __post_init__(self):
        for seq, label in ((self.beta, "beta"), (self.sigma, "sigma")):
            if any(v < 0 for v in seq):
                raise ValueError(f"{label} must be nonnegative")
            # nested strips: values may only shrink as t decreases
            for a, b in zip(seq, seq[1:]):
                if b > a + 1e-9:
                    raise ValueError(f"{label} not monotone along decreasing t")

    def rows(self):
        for t, b, s, zb, zs in zip(
            self.t_values, self.beta, self.sigma, self.argmax_beta, self.argmax_sigma
        ):
            yield (t, b, s, zb.real, zb.imag, zs.real, zs.imag)

    CSV_HEADER = (
        "t",
        "beta",
        "sigma",
        "argmax_beta_re",
        "argmax_beta_im",
        "argmax_sigma_re",
        "argmax_sigma_im",
    )


# Fewest complex points (256 KiB) from which numpy elides temporaries.  Elision
# swaps the operands of complex products such as ``g[3] * u1 ** 3``, and with FMA
# a complex product is not bit-commutative, so a mesh on the other side of this
# size than the whole mesh can have other bits.
ELIDE_POINTS = 1 << 14

# Points per block of the streamed strip scans.  Blocks hold whole Re levels
# and never fewer than ELIDE_POINTS unless the whole grid is smaller, so they
# keep the whole mesh's bits.  The smallest such size keeps the blocks in
# flight on several threads small.
BLOCK_POINTS = ELIDE_POINTS

# Most threads a strip scan runs its blocks on.  Each block in flight holds
# about 6.6 MB of arrays, and two threads reach only 1.5-1.85x (8-12 alternating
# runs of a 2.1M-point scan, 2 CPUs, no page faults) because each jet call holds
# the interpreter lock for part of its time; more threads were not measured, so
# the cap keeps a scan's memory independent of the CPU count.
MAX_WORKERS = 2


def _weights(m: ConformalMap, mesh: np.ndarray):
    """(2x)|Pf| and (2x)^2|Sf| at the points of ``mesh``."""
    p, s = derivative_ratios(m.jet(mesh))
    two_x = 2.0 * mesh.real
    return two_x * np.abs(p), two_x ** 2 * np.abs(s)


def strip_weights(m: ConformalMap, grid: StripGrid, x_max: float):
    """Grid mesh plus the weighted fields (2x)|Pf| and (2x)^2|Sf| on it."""
    mesh = grid.x_levels(x_max)[:, None] + 1j * grid.y_values()[None, :]
    return (mesh, *_weights(m, mesh))


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(run, xs: np.ndarray, ys: np.ndarray):
    """``run(a, b, mesh)``, ``mesh = xs[a:b, None] + 1j * ys[None, :]``, for the Re
    levels ``a:b`` of each block of the grid ``xs`` by ``ys``: the one strip-grid evaluator.

    Blocks hold whole levels and at least ``BLOCK_POINTS`` points (a short tail
    joins the block before it).  A pool of one thread per CPU of the process, at most
    ``MAX_WORKERS``, runs them while this thread waits; ``run`` writes only its own
    levels, so results do not depend on the thread count.  No block starts once a
    lower-numbered one has failed or this thread has left, no pool thread outlives the
    call, and the exception raised is the lowest-numbered failing block's, as in a serial loop.
    """
    from concurrent.futures import ThreadPoolExecutor, wait

    rows = -(-BLOCK_POINTS // ys.size)  # levels per block, rounded up
    starts = list(range(0, xs.size, rows))
    if len(starts) > 1 and xs.size - starts[-1] < rows:
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [xs.size]))
    failed = []  # numbers of the blocks that raised, -1 once this thread has left

    def work(i):
        if min(failed, default=i) < i:
            return  # a serial loop would have stopped at the lower failure
        a, b = blocks[i]
        try:
            run(a, b, xs[a:b, None] + 1j * ys[None, :])
        except BaseException:
            failed.append(i)
            raise

    with ThreadPoolExecutor(min(_cpu_count(), MAX_WORKERS, len(blocks))) as pool:
        try:
            futures = [pool.submit(work, i) for i in range(len(blocks))]
            wait(futures)  # wakes this thread once; a wake-up per block preempts a pool thread
        except BaseException:
            failed.append(-1)
            raise
    for future in futures:
        future.result()


def _run_scan(run, xs: np.ndarray, ys: np.ndarray, real: bool):
    """:func:`_run_blocks` for a reduction over the grid ``xs`` by ``ys`` that keeps no samples.

    With ``real`` (values at x -+ iy are conjugates) it evaluates only the ``Im z <= 0``
    half ``ys[:(n+1)//2]``, as ``run`` sees by its mesh width, when ``ys[::-1] == -ys`` and
    the half and the whole mesh lie on the same side of ``ELIDE_POINTS``, which keeps the
    bits of abs, max and counts and the first maximizing point in row-major order.  A half
    block holds the levels of about two whole ones, so a failing half scan runs again on
    every height to raise the error the whole mesh's blocks meet first.
    """
    half = ys[: (ys.size + 1) // 2]
    if (real and np.array_equal(ys[::-1], -ys)
            and (xs.size * half.size >= ELIDE_POINTS or xs.size * ys.size < ELIDE_POINTS)):
        try:
            return _run_blocks(run, xs, half)
        except (EvaluationError, HorizonError):
            pass
    _run_blocks(run, xs, ys)


def _level_sups(m: ConformalMap, grid: StripGrid, x_max: float):
    """Re levels and, per level, the max of (2x)|Pf| and of (2x)^2|Sf|, each
    with its first maximizing grid point: ``xs, ((beta, z_beta), (sigma, z_sigma))``.

    The mesh is evaluated by :func:`_run_scan`.  A NaN weight wins its level, as it
    does in ``np.max``.  A real map's weights at x -+ iy have the same bits, so a
    level's first maximum on heights with ``ys[::-1] == -ys`` lies in their half.
    """
    xs = grid.x_levels(x_max)
    sups = tuple((np.empty(xs.size), np.empty(xs.size, dtype=complex)) for _ in range(2))

    def run(a, b, mesh):
        level = np.arange(b - a)
        for w, (vals, args) in zip(_weights(m, mesh), sups):
            col = np.argmax(w, axis=1)
            vals[a:b] = w[level, col]
            args[a:b] = mesh[level, col]

    _run_scan(run, xs, grid.y_values(), m.real)
    return xs, sups


def norm_profile(m: ConformalMap, t_values, grid: StripGrid | None = None) -> NormProfile:
    """Grid sups of beta(t), sigma(t) for each t (decreasing positives).

    Each argmax is the first maximizing grid point in row-major order
    (levels by increasing Re z, then Im z increasing)."""
    grid = grid or StripGrid()
    ts = [float(t) for t in t_values]
    if not ts or any(t <= 0 for t in ts):
        raise ValueError("t values must be positive")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t values must be strictly decreasing")
    if ts[-1] < grid.x_min:
        raise ValueError(f"smallest t {ts[-1]} below grid x_min {grid.x_min}")

    xs, sups = _level_sups(m, grid, ts[0])

    betas, sigmas, arg_b, arg_s = [], [], [], []
    for t in ts:
        k = int(np.searchsorted(xs, t * (1 + 1e-12), side="right"))
        for (level_max, level_arg), vals, args in zip(sups, (betas, sigmas), (arg_b, arg_s)):
            i = int(np.argmax(level_max[:k]))
            vals.append(float(level_max[i]))
            args.append(complex(level_arg[i]))
    return NormProfile(tuple(ts), tuple(betas), tuple(sigmas), tuple(arg_b), tuple(arg_s))

