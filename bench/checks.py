"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``chordalqc``.  The two benchmark maps are coded in
closed form:

  perturbed-identity:c   h = z + c e^{-z},  h' = 1 - c e^{-z},  h'' = c e^{-z}
  counterexample-f       f = g(phi), phi = 2/(z+1), g(w) = asinh(1/w);
                         Pf = Pg(phi) phi' - 2/(z+1),  Sf = Sg(phi) phi'^2
                         with Pg(w) = -1/w - w/(1+w^2), Sg = Pg' - Pg^2/2

Strip sups, horizons and dilatations are recomputed from these on the
grid the CLI documents; box ratios are integrated by ``mpmath.quad``; the
chain is checked through the conjugation h_t(z_t) = h(z_0).  Each check
returns a list of problems, empty when the output is right.  Subsets are
drawn from the ``random.Random`` passed in, which run.py seeds from the
workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import random

import mpmath
import numpy as np

# CLI defaults the checks rely on (see ``chordalqc <subcommand> --help``)
DEFAULTS = {
    "k": 0.5, "variant": "schwarzian", "x-min": 1e-4, "points-per-decade": 64,
    "y-max": 20.0, "y-count": 257, "t-max": 1.0, "fd-step": 1e-5, "fd-tol": 1e-6,
    "samples": 10000, "t-cap": 0.05, "rel-tol": 1e-6, "s": 0.0,
}
DEFAULT_SCALES = tuple(2.0 ** -j for j in range(11))
DEFAULT_POSITIONS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)
KRAUS = 6.0
SUP_RTOL = 1e-9          # closed form against jets: about 3e-14 relative here
TRACE_TOL = 1e-12
CHAIN_TOL = 1e-8
BOXES_PER_DENSITY = 2
MU_SUBSET = 256


# -- closed forms ------------------------------------------------------------


def _cf_phi(z):
    return 2 / (z + 1), -2 / (z + 1) ** 2


def cf_ratios(z):
    """(Pf, Sf) of counterexample-f; rational, so numpy and mpmath alike."""
    w, dphi = _cf_phi(z)
    pg = -1 / w - w / (1 + w * w)
    dpg = 1 / (w * w) - (1 - w * w) / (1 + w * w) ** 2
    sg = dpg - 0.5 * pg * pg
    return pg * dphi - 2 / (z + 1), sg * dphi * dphi


def cf_value_d1(z):
    """(f, f') of counterexample-f on numpy arrays, principal branches."""
    w, dphi = _cf_phi(z)
    r = np.sqrt(1 + 1 / (w * w))
    return np.log(r + 1 / w), -dphi / (w * w * r)


def pi_ratios(z, c=0.3, exp=np.exp):
    e = c * exp(-z)
    p = e / (1 - e)
    return p, -e / (1 - e) - 1.5 * p * p


def pi_value_d1(z, c=0.3):
    e = c * np.exp(-z)
    return z + e, 1 - e


_RATIOS = {"counterexample-f": cf_ratios, "perturbed-identity:0.3": pi_ratios}
_VALUES = {"counterexample-f": cf_value_d1, "perturbed-identity:0.3": pi_value_d1}


def _mp_ratios(spec):
    if spec == "perturbed-identity:0.3":
        return lambda z: pi_ratios(z, c=mpmath.mpf("0.3"), exp=mpmath.exp)
    return _RATIOS[spec]


def weight(spec: str, variant: str, z):
    """(2x)|Ph| (pre-schwarzian) or (2x)^2|Sh| (schwarzian) at points z of H."""
    p, s = _RATIOS[spec](z)
    two_x = 2 * np.real(z)
    return two_x ** 2 * np.abs(s) if variant == "schwarzian" else two_x * np.abs(p)


def mu_closed(spec: str, variant: str, z):
    """Dilatation of the reflected extension at Re z < 0: -1/2 (2x)^2 Sh(z*) or -(2x) Ph(z*)."""
    x = np.real(z)
    p, s = _RATIOS[spec](-np.conj(z))
    return -0.5 * (2 * x) ** 2 * s if variant == "schwarzian" else -(2 * x) * p


# -- grids as the CLI documents them -------------------------------------------


def opt(op, name):
    return op.opts.get(name, DEFAULTS.get(name))


def x_levels(x_min: float, ppd: int, x_max: float) -> np.ndarray:
    """Re levels log-spaced from x_min to x_max, ceil(decades * ppd) + 1 of them."""
    if x_max == x_min:
        return np.array([x_min])
    n = max(2, int(math.ceil(math.log10(x_max / x_min) * ppd)) + 1)
    return np.logspace(math.log10(x_min), math.log10(x_max), n)


def y_values(op) -> np.ndarray:
    return np.linspace(-opt(op, "y-max"), opt(op, "y-max"), opt(op, "y-count"))


def level_sups(spec, variant, xs, ys, rows=256) -> np.ndarray:
    """Sup over ys of the strip weight on each Re level, in row chunks."""
    out = np.empty(xs.size)
    for i in range(0, xs.size, rows):
        mesh = xs[i:i + rows, None] + 1j * ys[None, :]
        out[i:i + rows] = weight(spec, variant, mesh).max(axis=1)
    return out


def horizon(spec, variant, op):
    """(t*, levels, prefix sups) of the horizon scan, from the closed form."""
    xs = x_levels(opt(op, "x-min"), opt(op, "points-per-decade"), opt(op, "t-max"))
    prefix = np.maximum.accumulate(level_sups(spec, variant, xs, y_values(op)))
    ok = prefix <= opt(op, "k")
    return (float(xs[int(ok.sum()) - 1]) if ok[0] else None), xs, prefix


def mirror_points(tau, fd_step, op) -> np.ndarray:
    xs = x_levels(opt(op, "x-min"), opt(op, "points-per-decade"), tau - 2 * fd_step)
    return -xs[:, None] + 1j * y_values(op)[None, :]


def _close(a, b, rtol, atol=0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


# -- strip-scan ----------------------------------------------------------------


def check_norms(op, path, rng) -> list:
    spec = op.opts["map"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    ts = [float(t) for t in op.opts["t"].split(",")]
    if [float(r["t"]) for r in rows] != ts:
        return [f"t column {[r['t'] for r in rows]} != {ts}"]
    xs = x_levels(opt(op, "x-min"), opt(op, "points-per-decade"), ts[0])
    ys = y_values(op)
    problems = []
    for var, col in (("pre-schwarzian", "beta"), ("schwarzian", "sigma")):
        sups = level_sups(spec, var, xs, ys)
        for r in rows:
            t, got = float(r["t"]), float(r[col])
            ref = float(sups[: int(np.searchsorted(xs, t * (1 + 1e-12), side="right"))].max())
            if not _close(got, ref, SUP_RTOL):
                problems.append(f"{col}(t={t}) = {got!r}, closed form {ref!r}")
            z = complex(float(r[f"argmax_{col}_re"]), float(r[f"argmax_{col}_im"]))
            if z.real not in xs or z.imag not in ys or z.real > t * (1 + 1e-12):
                problems.append(f"argmax of {col}(t={t}) {z} is not a grid point of the strip")
            elif not _close(got, float(weight(spec, var, np.array([z]))[0]), SUP_RTOL):
                problems.append(f"{col}(t={t}) = {got!r} is not the weight at its argmax {z}")
            if col == "sigma" and got > KRAUS:
                problems.append(f"sigma(t={t}) = {got!r} breaks the Kraus bound {KRAUS}")
    return problems


def check_horizon(op, path, rng) -> list:
    spec, var, k = op.opts["map"], opt(op, "variant"), opt(op, "k")
    with open(path) as fh:
        doc = json.load(fh)
    t_ref, xs, prefix = horizon(spec, var, op)
    problems = []
    if doc.get("levels_scanned") != xs.size:
        problems.append(f"levels_scanned {doc.get('levels_scanned')} != {xs.size}")
    t_star = doc.get("t_star")
    if t_star not in xs:
        return problems + [f"t_star {t_star!r} is not a grid level"]
    i = int(np.searchsorted(xs, t_star))
    if prefix[i] > k * (1 + 1e-12):
        problems.append(f"prefix sup {prefix[i]!r} at t* = {t_star} exceeds k = {k}")
    if i + 1 < xs.size and not prefix[i + 1] > k * (1 - 1e-12):
        problems.append(f"t* = {t_star} is not the largest level: next prefix {prefix[i + 1]!r}")
    if t_star != t_ref:
        problems.append(f"t_star {t_star!r} != closed-form horizon {t_ref!r}")
    return problems


def _default_horizon(op, variant=None):
    """Horizon the CLI scans before verify-mu, trace-check, carleson --density mu, ..."""
    return horizon(op.opts["map"], variant or opt(op, "variant"), op)[0]


def check_verify_mu(op, path, rng) -> list:
    spec, var, k = op.opts["map"], opt(op, "variant"), opt(op, "k")
    with open(path) as fh:
        doc = json.load(fh)
    summ = doc["summary"]
    bound = k / 2 if var == "schwarzian" else k
    fd_tol = opt(op, "fd-tol")
    problems = []
    tau = _default_horizon(op)
    if doc["tau"] != tau:
        problems.append(f"tau {doc['tau']!r} != closed-form horizon {tau!r}")
    pts = mirror_points(doc["tau"], opt(op, "fd-step"), op)
    ref_max = float(np.abs(mu_closed(spec, var, pts)).max())
    if not _close(summ["max_mu_formula"], ref_max, SUP_RTOL):
        problems.append(f"max_mu_formula {summ['max_mu_formula']!r}, closed form {ref_max!r}")
    if summ["max_mu_formula"] > bound + 1e-9 or summ["max_identity_err"] > fd_tol:
        problems.append(f"bound or identity violated: {summ}")
    if summ["pass"] is not True or summ["failures"]:
        problems.append(f"report does not pass: {summ}")
    if "samples" in doc:
        problems += _check_samples(op, doc, pts, bound, fd_tol, rng)
    elif not op.opts.get("summary-only"):
        problems.append("samples missing from a full report")
    return problems


def _check_samples(op, doc, pts, bound, fd_tol, rng) -> list:
    spec, var = op.opts["map"], opt(op, "variant")
    samples = doc["samples"]
    if len(samples) != pts.size:
        return [f"{len(samples)} samples, grid has {pts.shape[0]} x {pts.shape[1]}"]
    z = np.array([s["z"][0] + 1j * s["z"][1] for s in samples])
    form = np.array([s["mu_formula"][0] + 1j * s["mu_formula"][1] for s in samples])
    fd = np.array([s["mu_fd"][0] + 1j * s["mu_fd"][1] for s in samples])
    err = np.array([s["err"] for s in samples])
    degenerate = np.array([s["degenerate"] for s in samples], dtype=bool)
    problems = []
    if not np.array_equal(z, pts.ravel()):
        problems.append("sample points differ from the mirrored strip grid")
    if np.abs(form).max() > bound + 1e-9:
        problems.append(f"|mu_formula| up to {np.abs(form).max()!r} > {bound}")
    if (err[~degenerate] > fd_tol).any():
        problems.append(f"{int((err[~degenerate] > fd_tol).sum())} samples with err > {fd_tol}")
    if not np.allclose(err, np.abs(fd - form), rtol=1e-12, atol=0):
        problems.append("err is not |mu_fd - mu_formula|")
    if int(degenerate.sum()) != doc["summary"]["degenerate_count"]:
        problems.append("degenerate flags disagree with degenerate_count")
    picks = rng.sample(range(z.size), min(MU_SUBSET, z.size))
    ref = mu_closed(spec, var, z[picks])
    bad = np.abs(form[picks] - ref) > SUP_RTOL * np.abs(ref)
    for i in np.flatnonzero(bad)[:3]:
        problems.append(f"mu_formula at {z[picks[i]]} = {form[picks[i]]!r}, closed form {ref[i]!r}")
    return problems


def check_trace(op, path, rng) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    tau = _default_horizon(op)
    if doc["tau"] != tau:
        problems.append(f"tau {doc['tau']!r} != closed-form horizon {tau!r}")
    if doc["points"] != mirror_points(doc["tau"], 1e-9, op).size:
        problems.append(f"points {doc['points']} differ from the mirrored grid")
    if not (doc["max_difference"] <= TRACE_TOL and doc["pass"] is True):
        problems.append(f"trace and formula differ by {doc['max_difference']!r} > {TRACE_TOL}")
    return problems


def check_pde(op, path, rng) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    t_cap = min(opt(op, "t-cap"), _default_horizon(op))
    if (doc["samples"], doc["seed"], doc["t_cap"]) != (opt(op, "samples"), op.opts["seed"], t_cap):
        problems.append(f"samples/seed/t_cap {doc['samples'], doc['seed'], doc['t_cap']} "
                        f"!= {opt(op, 'samples'), op.opts['seed'], t_cap}")
    if not (0 <= doc["max_residual"] <= doc["tol"] and doc["pass"] is True):
        problems.append(f"PDE residual {doc['max_residual']!r} above {doc['tol']}")
    return problems


# -- carleson ------------------------------------------------------------------


def mp_density(spec: str, kind: str):
    """Box density against du dy, u = |Re z| in (0, |I|): the vmoa density and the
    pre-schwarzian mu density are 2u|Ph|^2; the schwarzian mu density is 2u^3|Sh|^2."""
    ratios = _mp_ratios(spec)
    if kind in ("vmoa", "pre-schwarzian"):
        return lambda u, y: 2 * u * abs(ratios(mpmath.mpc(u, y))[0]) ** 2
    return lambda u, y: 2 * u ** 3 * abs(ratios(mpmath.mpc(u, y))[1]) ** 2


def mp_box_ratio(density, center_y, length, u_max=None) -> float:
    """mpmath.quad of ``density`` over (0, u_max or |I|) x I, divided by |I|."""
    half = length / 2
    val = mpmath.quad(density, [0, u_max or length], [center_y - half, center_y + half])
    return float(val) / length


def check_carleson(op, path, rng) -> list:
    spec, density = op.opts["map"], op.opts.get("density", "vmoa")
    with open(path) as fh:
        rows = [(float(r["scale"]), float(r["center_y"]), float(r["ratio"]))
                for r in csv.DictReader(fh)]
    if "scales" in op.opts:
        scales = [float(s) for s in op.opts["scales"].split(",")]
    elif density == "mu":
        tau = _default_horizon(op)
        scales = [s for s in DEFAULT_SCALES if s <= tau]
    else:
        scales = list(DEFAULT_SCALES)
    positions = ([float(p) for p in op.opts["positions"].split(",")]
                 if "positions" in op.opts else list(DEFAULT_POSITIONS))
    want = [(s, p) for s in sorted(scales, reverse=True) for p in positions]
    if [(s, p) for s, p, _ in rows] != want:
        return [f"boxes {[(s, p) for s, p, _ in rows][:4]}... differ from {want[:4]}..."]
    problems = [f"ratio {r!r} at |I|={s}, y={p} is not finite and nonnegative"
                for s, p, r in rows if not (math.isfinite(r) and r >= 0)]
    if spec not in _RATIOS:
        return problems
    dens = mp_density(spec, "vmoa" if density == "vmoa" else opt(op, "variant"))
    rel_tol = float(opt(op, "rel-tol"))
    for s, p, r in rng.sample(rows, min(BOXES_PER_DENSITY, len(rows))):
        ref = mp_box_ratio(dens, p, s)
        if not _close(r, ref, rel_tol, 1e-300):
            problems.append(f"box ratio at |I|={s}, y={p}: {r!r}, mpmath {ref!r}")
    return problems


def check_mu_tilde(op, path, rng) -> list:
    spec = op.opts["map"]
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    t = _default_horizon(op, "schwarzian")
    if doc["t"] != t:
        problems.append(f"t {doc['t']!r} != closed-form horizon {t!r}")
    boxes = doc["boxes"]
    if [b["scale"] for b in boxes] != [2 * doc["t"], doc["t"], doc["t"] / 2]:
        problems.append(f"scales {[b['scale'] for b in boxes]} are not 2t, t, t/2")
    for b in boxes:
        if not (b["defect"] <= 1e-9 and b["outer"] == 0.0):
            problems.append(f"big-box split at |I|={b['scale']}: defect {b['defect']!r}, "
                            f"outer {b['outer']!r}")
    b = rng.choice(boxes)
    ref = mp_box_ratio(mp_density(spec, "schwarzian"), doc["center_y"], b["scale"],
                       u_max=min(doc["t"], b["scale"]))
    for key in ("total", "inner"):
        if not _close(b[key], ref, 1e-8, 1e-300):
            problems.append(f"{key} at |I|={b['scale']}: {b[key]!r}, mpmath {ref!r}")
    return problems


# -- export --------------------------------------------------------------------


def chain_value(spec, variant, t, z):
    """h_t(z) of the Loewner chain, from the closed-form h, h' and Ph at z + t."""
    w = z + t
    h, d1 = _VALUES[spec](w)
    if variant == "pre-schwarzian":
        return h - 2 * t * d1
    return h - 2 * t * d1 / (1 + t * _RATIOS[spec](w)[0])


def check_evolve(op, path, rng) -> list:
    spec, var = op.opts["map"], opt(op, "variant")
    s, t, step = opt(op, "s"), float(op.opts["t"]), float(op.opts["step"])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    n = max(1, math.ceil((t - s) / step)) if t > s else 0
    if len(rows) != n + 1:
        return [f"{len(rows)} trace rows, expected {n + 1}"]
    z0 = complex(op.opts["z"].replace("i", "j"))
    ts = np.array([float(r["t"]) for r in rows])
    zs = np.array([float(r["z_re"]) + 1j * float(r["z_im"]) for r in rows])
    starts = {(float(r["z0_re"]), float(r["z0_im"])) for r in rows}
    problems = []
    if starts != {(z0.real, z0.imag)} or zs[0] != z0 or ts[0] != s or ts[-1] != t:
        problems.append(f"trace does not run from z0 = {z0} at s = {s} to t = {t}")
    h0 = _VALUES[spec](np.array([z0]))[0][0]
    drift = np.abs(chain_value(spec, var, ts, zs) - h0)
    bad = np.flatnonzero(drift > CHAIN_TOL * max(1.0, abs(h0)))
    if bad.size:
        problems.append(f"{bad.size} rows break h_t(z_t) = h(z0); first at row {bad[0]}, "
                        f"|h_t(z_t) - h(z0)| = {float(drift[bad[0]])!r}")
    return problems


CHECKS = {
    "norms": check_norms,
    "horizon": check_horizon,
    "verify-mu": check_verify_mu,
    "trace-check": check_trace,
    "pde-check": check_pde,
    "carleson": check_carleson,
    "mu-tilde": check_mu_tilde,
    "evolve": check_evolve,
}


def check_op(op, path: str, rng: random.Random) -> list:
    """Problems found in the output of ``op`` at ``path``."""
    return CHECKS[op.cmd](op, path, rng)
