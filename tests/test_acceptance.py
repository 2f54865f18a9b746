"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  Finite-difference
convergence ratios are measured with extended-precision stencils
(numpy clongdouble) so that the O(step^2) truncation term is observable
above rounding noise; the production float64 path is covered by the
absolute error bounds.
"""

import math
import time

import numpy as np
import pytest

from chordalqc.carleson import (
    Density,
    bigbox_decomposition,
    box_ratio,
    carleson_scan,
    composite_density,
    mu_density,
    vmoa_density,
)
from chordalqc.errors import HorizonError
from chordalqc.extension import extend, mirror_strip_points, mu_formula, qc_report, trace_extend
from chordalqc.loewner import (
    HerglotzField,
    evolve,
    family_ht,
    pde_residual,
    tau0_scan,
)
from chordalqc.maps import (
    cayley,
    counterexample_f,
    half_strip_g,
    identity,
    parse_map_spec,
    perturbed_identity,
    phi_map,
    square_map,
)
from chordalqc.schwarz import StripGrid, derivative_ratios, norm_profile, strip_weights

GRID = StripGrid()  # module defaults: 1e-4, 64/decade, y in [-20, 20], 257 samples

MU_SUITE = [
    "perturbed-identity:0.1",
    "perturbed-identity:0.3",
    "perturbed-identity:0.5",
    "counterexample-f",
    "compose:cayley,moebius:1,-1,1,1",
    "compose:moebius:1,0,0,2,compose:cayley,moebius:1,-1,1,1",
]

UNIVALENT_ON_H = [
    identity(),
    phi_map(),
    half_strip_g(),
    counterexample_f(),
    square_map(),
    perturbed_identity(0.1),
    perturbed_identity(0.3),
    perturbed_identity(0.5),
]


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def _mu_errors(spec: str, variant: str, fd_steps=(1e-5, 5e-6)):
    """Max |mu_fd - mu_formula| on a 33x33 strip grid per FD step."""
    m = parse_map_spec(spec)
    tau = tau0_scan(m, variant, 0.5, grid=GRID).t_star
    pts = mirror_strip_points(tau, fd_step=max(fd_steps), grid=GRID, nx=33, ny=33)
    want = mu_formula(m, variant, pts)
    work = pts.astype(np.clongdouble)
    out = []
    for step in fd_steps:
        fx = (extend(m, variant, work + step) - extend(m, variant, work - step)) / (2 * step)
        fy = (extend(m, variant, work + 1j * step) - extend(m, variant, work - 1j * step)) / (
            2 * step
        )
        mu = (fx + 1j * fy) / (fx - 1j * fy)
        out.append(float(np.max(np.abs(mu.astype(complex) - want))))
    return out


@pytest.mark.parametrize("num,variant", [(1, "schwarzian"), (2, "pre-schwarzian")])
def test_criterion_mu_identity(num, variant):
    start = time.time()
    coarse = fine = 0.0
    for spec in MU_SUITE:
        e = _mu_errors(spec, variant)
        coarse = max(coarse, e[0])
        fine = max(fine, e[1])
    elapsed = time.time() - start
    ratio = coarse / fine
    ok = coarse <= 1e-6 and 3.5 <= ratio <= 4.5 and elapsed < 10.0
    _report(num, f"mu-identity[{variant}]", ok,
            f"max_err={coarse:.3e}, halving ratio={ratio:.2f}, {elapsed:.1f}s")


def test_criterion_3_qc_bound():
    h = perturbed_identity(0.3)
    tau = tau0_scan(h, "schwarzian", 0.5, grid=GRID).t_star
    rep = qc_report(h, "schwarzian", tau, k=0.5, grid=GRID)
    ok = rep.passed and rep.max_mu_formula <= 0.25 + 1e-9
    _report(3, "qc-bound", ok,
            f"tau={rep.tau:.4f}, max|mu|={rep.max_mu_formula:.6f} <= 0.25")


def test_criterion_4_loewner_conjugation():
    h = perturbed_identity(0.3)
    tau = tau0_scan(h, "schwarzian", 0.5, grid=GRID).t_star
    field = HerglotzField(h, "schwarzian", 0.5, tau)
    t = min(0.05, tau)
    xs, ys = np.linspace(0.2, 2.2, 5), np.linspace(-2, 2, 5)
    z = (xs[:, None] + 1j * ys[None, :]).ravel()
    hz = np.array([complex(h.value(w)) for w in z])

    w = evolve(field, 0.0, t, z, step=1e-3)
    err = float(np.max(np.abs(family_ht(h, "schwarzian", t, w) - hz)))

    # fourth-order check at steps where the error is resolvable above 1e-15
    f2 = counterexample_f()
    tau2 = tau0_scan(f2, "schwarzian", 0.5, grid=GRID).t_star
    field2 = HerglotzField(f2, "schwarzian", 0.5, tau2)
    t2 = min(0.05, tau2)
    hz2 = np.array([complex(f2.value(w)) for w in z])
    errs = []
    for step in (0.0125, 0.00625):
        w2 = evolve(field2, 0.0, t2, z, step=step)
        errs.append(float(np.max(np.abs(family_ht(f2, "schwarzian", t2, w2) - hz2))))
    ratio = errs[0] / errs[1]
    ok = err <= 1e-8 and 8.0 <= ratio <= 32.0
    _report(4, "loewner-conjugation", ok,
            f"err(step=1e-3)={err:.3e} <= 1e-8, halving ratio={ratio:.1f} (~16)")


def test_criterion_5_trace_equals_closed_form():
    worst = 0.0
    points = 0
    for spec in MU_SUITE:
        m = parse_map_spec(spec)
        tau = tau0_scan(m, "schwarzian", 0.5, grid=GRID).t_star
        pts = mirror_strip_points(tau, grid=GRID)  # full default mirror grid
        points += pts.size
        d = np.max(np.abs(trace_extend(m, "schwarzian", pts)
                          - extend(m, "schwarzian", pts)))
        worst = max(worst, float(d))
    ok = worst <= 1e-12
    _report(5, "trace-equals-extension", ok, f"max diff={worst:.3e} over {points} points")


def _random_in_horizon(field, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.01, 5.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
    t = rng.uniform(0.0, field.tau0 * 0.999, n)
    return z, t


def test_criterion_6_herglotz_disk_identity():
    worst = 0.0
    for spec in ("perturbed-identity:0.3", "counterexample-f"):
        m = parse_map_spec(spec)
        field = HerglotzField(m, "schwarzian", 0.5,
                              tau0_scan(m, "schwarzian", 0.5, grid=GRID).t_star)
        z, t = _random_in_horizon(field, 10000, seed=0)
        p = field.p(z, t)
        s = derivative_ratios(m.jet(z + t))[1]
        gap = np.abs(np.abs((p - 1) / (p + 1)) - 2 * t * t * np.abs(s))
        worst = max(worst, float(np.max(gap)))
    ok = worst <= 1e-12
    _report(6, "herglotz-disk-identity", ok, f"max defect={worst:.3e}")


def test_criterion_7_pde_residual():
    worst = 0.0
    for spec in ("perturbed-identity:0.3", "counterexample-f"):
        m = parse_map_spec(spec)
        field = HerglotzField(m, "schwarzian", 0.5,
                              tau0_scan(m, "schwarzian", 0.5, grid=GRID).t_star)
        z, t = _random_in_horizon(field, 10000, seed=1)
        worst = max(worst, float(np.max(pde_residual(m, "schwarzian", z, t))))
    ok = worst <= 1e-10
    _report(7, "pde-residual", ok, f"max residual={worst:.3e}")


def test_criterion_8_evolution_bounds():
    h = perturbed_identity(0.3)
    field = HerglotzField(h, "schwarzian", 0.5,
                          tau0_scan(h, "schwarzian", 0.5, grid=GRID).t_star)
    cap = min(0.05, field.tau0)
    rng = np.random.default_rng(2)
    z = rng.uniform(0.2, 3.0, 25) + 1j * rng.uniform(-3.0, 3.0, 25)
    worst_speed = worst_drift = worst_semi = 0.0
    for _ in range(8):
        s, u, t = np.sort(rng.uniform(0.0, cap, 3))
        direct = evolve(field, s, t, z, step=1e-3)
        worst_speed = max(worst_speed, float(np.max(np.abs(direct - z) - 3 * (t - s))))
        worst_drift = max(worst_drift,
                          float(np.max((t - s) / 3 - (direct.real - z.real))))
        via = evolve(field, u, t, evolve(field, s, u, z, step=1e-3), step=1e-3)
        worst_semi = max(worst_semi, float(np.max(np.abs(via - direct))))
    ok = worst_speed <= 1e-8 and worst_drift <= 1e-8 and worst_semi <= 1e-8
    _report(8, "evolution-bounds", ok,
            f"speed defect={worst_speed:.2e}, drift defect={worst_drift:.2e}, "
            f"semigroup defect={worst_semi:.2e}")


def test_criterion_9_nehari_ceiling():
    worst = 0.0
    for m in UNIVALENT_ON_H:
        _, _, w_sigma = strip_weights(m, GRID, 1.0)
        worst = max(worst, float(w_sigma.max()))
    ok = worst <= 6 + 1e-9
    _report(9, "nehari-ceiling", ok, f"max grid sup={worst:.12f} <= 6")


def test_criterion_10_vanishing_profiles():
    prof = norm_profile(counterexample_f(), [1.0, 0.1, 0.01], grid=GRID)
    s, b = prof.sigma, prof.beta
    ok = (s[0] > s[1] > s[2] and s[2] <= 0.2 * s[0]
          and b[0] > b[1] > b[2] and b[2] <= 0.2 * b[0])
    _report(10, "vanishing-profiles", ok,
            f"sigma={tuple(round(v, 6) for v in s)}, beta={tuple(round(v, 6) for v in b)}")


def test_criterion_11_horizon_failure_detection():
    try:
        tau0_scan(square_map(), "schwarzian", 0.5, grid=GRID)
        ok, msg = False, "scan unexpectedly succeeded"
    except HorizonError as exc:
        msg = str(exc)
        ok = "no horizon at level" in msg
    _report(11, "horizon-failure", ok, msg[:70])


def test_criterion_12_carleson_suite():
    # unit-square density: norm 1, per-scale max equal to |I| up to 1e-6
    def _sq(z):
        x, y = np.real(z), np.imag(z)
        return ((x > 0) & (x < 1) & (y > 0) & (y < 1)).astype(float)

    square_dens = Density("unit-square", "H", _sq,
                          x_breakpoints=(1.0,), y_breakpoints=(0.0, 1.0))
    rep = carleson_scan(square_dens, positions=[0.5])
    ok_square = (abs(rep.norm_estimate - 1.0) <= 1e-6
                 and np.allclose(rep.per_scale_max, rep.scales, rtol=1e-6))

    # vanishing verdict for the perturbed map's oscillation density
    vrep = carleson_scan(vmoa_density(perturbed_identity(0.3)))
    ok_vmoa = vrep.vanishing

    # big-box decomposition with outer identically zero
    h = perturbed_identity(0.3)
    t = 0.25
    zero_outer = lambda z: np.zeros(np.shape(z), complex)
    worst_small = 0.0
    plain = mu_density(h, "schwarzian", t)
    comp = composite_density(h, t, outer=zero_outer)
    for length in (0.25, 0.125, 0.0625):
        worst_small = max(worst_small, abs(box_ratio(comp, 0.0, length)
                                           - box_ratio(plain, 0.0, length)))
    splits = bigbox_decomposition(h, t, 0.0, (0.5, 1.0), outer=zero_outer)
    worst_split = max(split.defect for split in splits)
    ok = ok_square and ok_vmoa and worst_small <= 1e-10 and worst_split <= 1e-9
    _report(12, "carleson-suite", ok,
            f"square norm={rep.norm_estimate:.8f}, vmoa vanishing={ok_vmoa}, "
            f"small-box defect={worst_small:.1e}, split defect={worst_split:.1e}")


def test_criterion_13_map_anchors():
    g = half_strip_g()
    a1 = abs(g.value(1j) + 1j * math.pi / 2)
    a2 = abs(g.value(-1j) - 1j * math.pi / 2)
    a3 = abs(phi_map().value(1.0) - 1.0)
    a4 = abs(cayley().value(0.0) - 1.0)
    ok = a1 <= 1e-12 and a2 <= 1e-12 and a3 == 0.0 and a4 == 0.0
    _report(13, "map-anchors", ok,
            f"|g(i)+i pi/2|={a1:.1e}, |g(-i)-i pi/2|={a2:.1e}, phi(1) exact={a3 == 0.0}")


def test_criterion_14_koebe_distortion():
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for m in UNIVALENT_ON_H:
        z0 = rng.uniform(0.05, 5.0, 1000) + 1j * rng.uniform(-5.0, 5.0, 1000)
        t = rng.uniform(1e-4, 0.1, 1000)
        g0 = np.asarray(m.value(z0))
        jet = m.jet(z0 + t)
        lhs = np.abs(g0 - jet.coeffs[0])
        rhs = (t / 4) * np.abs(jet.coeffs[1])
        margin = float(np.min(lhs - rhs * (1 - 1e-10)))
        worst = min(worst, margin) if m is not UNIVALENT_ON_H[0] else margin
        ok = ok and margin >= 0
    _report(14, "koebe-distortion", ok, f"min margin={worst:.3e}")
