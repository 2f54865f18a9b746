"""Layer probes: direct calls of one layer's public functions on fixed inputs.

Each probe times a call shaped like one the workloads make through the CLI
and reports the median of a few repeats.  The inputs do not depend on the
workload or the seed, so a probe reads the same on every workload; the
README says which workload each one should move.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from chordalqc import jets, maps
from chordalqc.carleson import carleson_scan, vmoa_density
from chordalqc.extension import mirror_strip_points, trace_extend
from chordalqc.loewner import HerglotzField, evolve, pde_residual, tau0_scan
from chordalqc.schwarz import StripGrid, strip_weights

MB = float(1 << 20)
CF = maps.parse_map_spec("counterexample-f")
FINE = StripGrid(points_per_decade=512)  # 526k points, the strip-scan grid


def points(n: int) -> np.ndarray:
    """n fixed points of the default strip: Re log-uniform in [1e-4, 1], |Im| <= 20."""
    rng = np.random.default_rng(12345)
    return 10.0 ** rng.uniform(-4.0, 0.0, n) + 1j * rng.uniform(-20.0, 20.0, n)


def median_time(fn, repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_alloc_mb(fn) -> float:
    """Peak traced allocation (numpy buffers included) during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def jet_op_s(n: int | None, calls: int, repeats: int) -> float:
    """Seconds per jet_mul or jet_div on scalar jets (n None) or n-point array jets."""
    z = complex(0.7, 0.3) if n is None else points(n)
    a = jets.lift_variable(z)
    b = jets.jexp(a)

    def run():
        for _ in range(calls):
            jets.jet_mul(a, b)
            jets.jet_div(a, b)

    return median_time(run, repeats) / (2 * calls)


def map_jet_s(n: int, calls: int, repeats: int) -> float:
    """Seconds per ``ConformalMap.jet`` call of counterexample-f on n points."""
    z = points(n)

    def run():
        for _ in range(calls):
            CF.jet(z)

    return median_time(run, repeats) / calls


def rk4_s_per_step(steps: int = 500, start=complex(1.0, 1.0)) -> float:
    """Seconds per scalar RK4 step of the counterexample-f schwarzian flow."""
    field = HerglotzField(CF, "schwarzian", 0.5, tau0_scan(CF, "schwarzian", 0.5).t_star)
    t_end = steps * 1e-6
    return median_time(lambda: evolve(field, 0.0, t_end, start, step=1e-6), 3) / steps


def carleson_scan_s(scales: int) -> float:
    """Seconds for the counterexample-f vmoa box scan at ``scales`` dyadic scales."""
    dens = vmoa_density(CF)
    sc = [2.0 ** -j for j in range(scales)]
    return median_time(lambda: carleson_scan(dens, scales=sc), 3)


def run_all() -> dict:
    """Every probe metric, by its name in BENCHMARK.json."""
    z_pde = points(10000)
    t_pde = np.linspace(0.0, 0.05, z_pde.size)
    trace_pts = mirror_strip_points(tau0_scan(CF, "schwarzian", 0.5).t_star, fd_step=1e-9)
    return {
        "jets.op_us.n1": 1e6 * jet_op_s(None, 1000, 5),
        "jets.op_ns_per_pt.n1e5": 1e9 * jet_op_s(100_000, 1, 5) / 100_000,
        "maps.jet_us_per_call.n10": 1e6 * map_jet_s(10, 100, 5),
        "maps.jet_ns_per_pt.n1e5": 1e9 * map_jet_s(100_000, 1, 5) / 100_000,
        "maps.jet_ns_per_pt.n1e6": 1e9 * map_jet_s(1_000_000, 1, 3) / 1_000_000,
        "schwarz.strip_weights_peak_alloc_mb":
            peak_alloc_mb(lambda: strip_weights(CF, FINE, 1.0)),
        "loewner.tau0_scan_peak_alloc_mb":
            peak_alloc_mb(lambda: tau0_scan(CF, "schwarzian", 0.5, grid=FINE)),
        "loewner.rk4_us_per_step": 1e6 * rk4_s_per_step(),
        "loewner.pde_residual_ns_per_pt": 1e9 / z_pde.size
            * median_time(lambda: pde_residual(CF, "schwarzian", z_pde, t_pde), 5),
        "extension.trace_extend_ns_per_pt": 1e9 / trace_pts.size
            * median_time(lambda: trace_extend(CF, "schwarzian", trace_pts), 3),
        "carleson.scan_s.s11": carleson_scan_s(11),
        "carleson.scan_s.s31": carleson_scan_s(31),
    }
