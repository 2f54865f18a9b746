"""Reference figures for the ROADMAP baseline rows, as a markdown table.

    python3 bench/reference.py

Run from the root of the checkout.  The figures come from the same probe
functions as the traced benchmark run, with one-thread BLAS/OpenMP pools;
each ``tau0_scan`` size runs in its own fresh process so that its peak RSS
is its own.  Output files go to ``bench/_work`` and are removed.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

TAU0_SIZES = ((64, "66k"), (512, "526k"), (2048, "2.1M"))


def _tau0_child(ppd: int):
    """Time one counterexample-f horizon scan on a fresh process; print time and RSS."""
    from chordalqc import maps
    from chordalqc.loewner import tau0_scan
    from chordalqc.schwarz import StripGrid

    m = maps.parse_map_spec("counterexample-f")
    t0 = time.perf_counter()
    tau0_scan(m, "schwarzian", 0.5, grid=StripGrid(points_per_decade=ppd))
    dt = time.perf_counter() - t0
    print(dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def _verify_mu_s(spec: str, summary_only: bool, work: str) -> float:
    from chordalqc import cli

    import probes

    argv = ["verify-mu", "--map", spec, "--out", os.path.join(work, "mu.json")]
    argv += ["--summary-only"] if summary_only else []
    return probes.median_time(lambda: cli.main(argv), 3)


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--tau0-child":
        _tau0_child(int(sys.argv[2]))
        return
    # before this process grows: a child's ru_maxrss starts at its parent's peak
    rows = []
    for ppd, label in TAU0_SIZES:
        out = subprocess.run([sys.executable, __file__, "--tau0-child", str(ppd)],
                             capture_output=True, text=True, check=True).stdout.split()
        rows.append((f"tau0_scan(counterexample-f), {label} points",
                     f"{float(out[0]):.3g} s, peak RSS {float(out[1]):.0f} MB"))

    import mpmath
    import numpy as np

    import probes

    for n, label in ((10, "10"), (1_000, "1e3"), (100_000, "1e5"), (1_000_000, "1e6")):
        calls = max(1, 1000 // n)
        rows.append((f"counterexample-f jet, N = {label}",
                     f"{1e6 * probes.map_jet_s(n, calls, 3) / n:.3g} µs/pt"))
    for scales in (11, 31):
        rows.append((f"carleson_scan(vmoa, counterexample-f), {scales} scales",
                     f"{probes.carleson_scan_s(scales):.3g} s"))
    rows.append(("RK4, scalar start point", f"{1e6 * probes.rk4_s_per_step():.3g} µs/step"))
    array_s = probes.rk4_s_per_step(50, probes.points(1000))
    rows.append(("RK4, 1000-point array", f"{1e6 * array_s:.3g} µs/step"))
    work = os.path.join(HERE, "_work", f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for spec in ("perturbed-identity:0.3", "counterexample-f"):
            full, summ = _verify_mu_s(spec, False, work), _verify_mu_s(spec, True, work)
            rows.append((f"verify-mu {spec}, full / --summary-only",
                         f"{full:.3g} s / {summ:.3g} s"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
          f"mpmath {mpmath.__version__}\n")
    print("| measurement | figure |\n|---|---|")
    for name, fig in rows:
        print(f"| {name} | {fig} |")


if __name__ == "__main__":
    main()
