"""The operations of each benchmark workload, generated from the workload seed.

An operation is one ``chordalqc`` CLI call.  Its ``params`` are the CLI flags
without the leading dashes; the checks in ``checks.py`` read the same params,
so the program receives exactly the generated argv and nothing else.

This module imports only the standard library: the worker builds the
operations inside its timed set-up, after ``import chordalqc``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CF = "counterexample-f"
PI = "perturbed-identity:0.3"
MAPS = (CF, PI)
VARIANTS = ("schwarzian", "pre-schwarzian")

# Re levels per decade from x_min = 1e-4 up to t_max = 1, times 257 Im samples:
# 64 -> 66k points (the CLI default), 512 -> 526k, 2048 -> 2.1M.
FINE_PPD = 512
FINEST_PPD = 2048

SCALES_31 = ",".join(repr(2.0 ** -j) for j in range(31))

# 2000 scalar RK4 steps per evolve trace (t = 0.002 lies inside both horizons)
EVOLVE_T = 0.002
EVOLVE_STEP = 1e-6

WORKLOADS = ("strip-scan", "carleson", "export")


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, flags, output extension, expected outcome."""

    name: str
    cmd: str
    params: tuple  # ((flag, value), ...); value True means a bare switch
    ext: str
    # fails on every run for a known program fault; counted as failed
    expect_failure: bool = False

    @property
    def opts(self) -> dict:
        return dict(self.params)

    def argv(self, out_path: str) -> list:
        args = [self.cmd]
        for flag, value in self.params:
            args.append(f"--{flag}")
            if value is not True:
                args.append(str(value))
        return args + ["--out", out_path]


def _short(spec: str) -> str:
    return "cf" if spec == CF else "pi"


def _strip_scan(rng: random.Random) -> list:
    ops = []
    for m in MAPS:
        s = _short(m)
        fine = (("map", m), ("points-per-decade", FINE_PPD))
        ops.append(Op(f"norms-{s}", "norms", fine + (("t", "1,0.1,0.01"),), ".csv"))
        for v in VARIANTS:
            ops.append(Op(f"horizon-{s}-{v}", "horizon", fine + (("variant", v),), ".json"))
        ops.append(Op(f"verify-summary-{s}", "verify-mu",
                      (("map", m), ("summary-only", True)), ".json"))
        ops.append(Op(f"trace-check-{s}", "trace-check", (("map", m),), ".json"))
        ops.append(Op(f"pde-check-{s}", "pde-check",
                      (("map", m), ("seed", rng.randrange(2 ** 31))), ".json"))
    ops.append(Op("horizon-cf-finest", "horizon",
                  (("map", CF), ("points-per-decade", FINEST_PPD)), ".json"))
    return ops


def _carleson(rng: random.Random) -> list:
    ops = [
        Op("vmoa-cf-s31", "carleson", (("map", CF), ("density", "vmoa"), ("scales", SCALES_31)),
           ".csv"),
        Op("vmoa-pi", "carleson", (("map", PI), ("density", "vmoa")), ".csv"),
    ]
    for m in MAPS:
        for v in VARIANTS:
            ops.append(Op(f"mu-{_short(m)}-{v}", "carleson",
                          (("map", m), ("density", "mu"), ("variant", v)), ".csv"))
    for m in MAPS:
        ops.append(Op(f"mu-tilde-{_short(m)}", "mu-tilde", (("map", m),), ".json"))
    # QuadratureError at |I| = 1: the box corner sits on the singularity of g at 0
    ops.append(Op("vmoa-half-strip-g", "carleson",
                  (("map", "half-strip-g"), ("scales", "1,0.5"), ("positions", "0")), ".csv",
                  expect_failure=True))
    return ops


def _export(rng: random.Random) -> list:
    ops = []
    for m in MAPS:
        for v in VARIANTS:
            ops.append(Op(f"verify-full-{_short(m)}-{v}", "verify-mu",
                          (("map", m), ("variant", v)), ".json"))
    for m in MAPS:
        x, y = round(rng.uniform(0.2, 2.0), 6), round(rng.uniform(-3.0, 3.0), 6)
        ops.append(Op(f"evolve-{_short(m)}", "evolve",
                      (("map", m), ("t", EVOLVE_T), ("step", EVOLVE_STEP), ("z", f"{x!r}{y:+}i")),
                      ".csv"))
    return ops


_BUILDERS = {"strip-scan": _strip_scan, "carleson": _carleson, "export": _export}


def build(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload``; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
