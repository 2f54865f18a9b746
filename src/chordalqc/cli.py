"""Deterministic command-line front end.

Every subcommand delegates to one library operation and returns a CSV or
JSON report that :func:`main` alone writes: identical configuration
produces byte-identical output.
Exit codes: 0 success/PASS, 2 computed FAIL (a bound violated, no
horizon at the requested level), 1 usage or evaluation error.

Map specs follow the mini-grammar of :mod:`chordalqc.maps`
(``name[:params]``, ``compose:<outer>,<inner>``); numbers are ``re`` or
``re+imi``.  A JSON file passed through ``--config`` supplies defaults
for any flag not given explicitly; flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import carleson as carleson_mod
from . import extension as ext_mod
from . import loewner as loewner_mod
from .errors import EvaluationError, HorizonError, QuadratureError
from .jets import ORDER
from .maps import CATALOG_SPECS, parse_complex, parse_map_spec
from .schwarz import MAX_WORKERS, NormProfile, StripGrid, _run_blocks, norm_profile

_USAGE_EXIT = 1
_FAIL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


_WRITE_SLICE = 2 ** 20  # characters per write, so no encoded copy of a whole report is made


def _write_sliced(fh, text: str):
    for a in range(0, len(text), _WRITE_SLICE):
        fh.write(text[a:a + _WRITE_SLICE])


def _atomic_write(text: str, path: str | None):
    if path is None:
        _write_sliced(sys.stdout, text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chordalqc-")
    try:
        with os.fdopen(fd, "w") as fh:
            _write_sliced(fh, text)
        # mkstemp creates 0600; give the file the mode open(path, "w") gives a new one
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _num(v) -> str:
    return repr(float(v))


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


# one verify-mu sample as json.dumps(indent=2) lays it out inside the report
_SAMPLE = """\
    {
      "z": [
        %s,
        %s
      ],
      "mu_fd": [
        %s,
        %s
      ],
      "mu_formula": [
        %s,
        %s
      ],
      "err": %s,
      "degenerate": %s
    }"""
# its pieces, each sample led by the separator ",\n", with a None slot for each field
_SAMPLE_SLOTS = [s for piece in (",\n" + _SAMPLE).split("%s") for s in (piece, None)][:-1]
_SAMPLE_CHUNK = 4096  # samples formatted per chunk
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(col) -> list:
    """A float64 column spelled as json.dumps spells each float.

    ``repr`` runs once per distinct bit pattern, not per distinct value:
    0.0 and -0.0 compare equal but are spelled apart."""
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return np.array(text, dtype=object)[index].tolist()


def _json_samples(columns, start: int, stop: int) -> str:
    """Samples ``start:stop`` of the report, each but the report's first led by ",\n"."""
    *floats, degenerate = (c[start:stop] for c in columns)
    width = len(_SAMPLE_SLOTS)
    parts = _SAMPLE_SLOTS * (stop - start)
    if start == 0:
        parts[0] = parts[0][1:]  # the first sample has no "," before it
    for i, col in enumerate(floats):
        parts[2 * i + 1::width] = _json_floats(col)
    parts[width - 2::width] = np.where(degenerate, "true", "false").tolist()
    return "".join(parts)


def _json_doc(doc) -> str:
    """Indented JSON text of ``doc``.

    A :class:`QCReport` is written as ``json.dumps`` would write its
    ``to_json_dict()``, byte for byte, but the sample block is formatted
    straight from the report's columns: in chunks of ``_SAMPLE_CHUNK``
    samples, each chunk's fields interleaved with the sample template by
    slices and joined once.  The chunks and the document they are joined
    into are the only copies of the text.
    """
    if isinstance(doc, ext_mod.QCReport) and doc.points is None:
        doc = doc.to_json_dict()
    if not isinstance(doc, ext_mod.QCReport):
        return json.dumps(doc, indent=2) + "\n"
    head = json.dumps(dataclasses.replace(doc, points=None).to_json_dict(), indent=2)
    # head ends with the document's closing "\n}"; samples is its last key
    head = head[:-2] + ',\n  "samples": '
    columns = doc.sample_columns()
    n = columns[0].size
    if not n:
        return head + "[]\n}\n"
    chunks = [_json_samples(columns, a, min(a + _SAMPLE_CHUNK, n))
              for a in range(0, n, _SAMPLE_CHUNK)]
    return "".join([head, "[", *chunks, "\n  ]\n}\n"])


def _complex_list(text: str) -> list:
    """Semicolon-separated points, blank items skipped; a list with none is an error."""
    points = [parse_complex(part) for part in text.split(";") if part.strip()]
    if not points:
        raise ValueError(f"no points in {text!r}")
    return points


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite number '{value}'")
    return value


def _number(text: str) -> float:
    """A finite float: the argparse ``type`` of every number flag."""
    try:
        return _finite(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    """A finite, nonnegative float: the argparse ``type`` of every tolerance flag."""
    value = _number(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative tolerance {text!r}")
    return value


def _number_list(text: str) -> list:
    """Comma-separated finite numbers, blank items skipped: an argparse ``type``."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return [_finite(v) for v in values]


def _grid_from(ns) -> StripGrid:
    return StripGrid(
        x_min=ns.x_min,
        points_per_decade=ns.points_per_decade,
        y_max=ns.y_max,
        y_count=ns.y_count,
    )


def _add_common(p: argparse.ArgumentParser, fmt_choices=("csv", "json"), fmt_default="csv"):
    """--out and --config, and --format unless ``fmt_choices`` is empty (JSON only)."""
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if fmt_choices:
        p.add_argument("--format", choices=fmt_choices, default=fmt_default, help="report format")
    p.add_argument("--config", default=None, help="JSON file with flag defaults (flags win)")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--x-min", type=_number, default=1e-4, help="smallest Re level of the strip grid")
    p.add_argument("--points-per-decade", type=int, default=64, help="log-spaced Re levels per decade")
    p.add_argument("--y-max", type=_number, default=20.0, help="Im range half-width")
    p.add_argument("--y-count", type=int, default=257, help="number of Im samples")


def _add_variant(p: argparse.ArgumentParser):
    p.add_argument(
        "--variant",
        choices=loewner_mod.VARIANTS,
        default=loewner_mod.VARIANT_SCHWARZIAN,
        help="chain variant",
    )


def build_parser(required: bool = True) -> _Parser:
    """The CLI parser; ``required=False`` leaves out the required-flag check,
    for the parse that looks for ``--config`` (the file may supply them)."""
    top = _Parser(prog="chordalqc", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):  # each subcommand's help lists its defaults
        return sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    p = add("maps-list", help="list catalog map specs")
    _add_common(p, fmt_choices=("text", "json"), fmt_default="text")

    p = add("eval", help="order-3 jet of a map at points")
    p.add_argument("--map", required=required, help="map spec")
    p.add_argument("--z", required=required, help="semicolon-separated points, re+imi")
    _add_common(p)

    p = add("norms", help="beta/sigma strip-norm profile")
    p.add_argument("--map", required=required)
    p.add_argument("--t", type=_number_list, required=required,
                   help="comma-separated decreasing t values")
    _add_grid(p)
    _add_common(p)

    p = add("horizon", help="largest grid-certified horizon at level k")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--t-max", type=_number, default=1.0, help="scan range maximum")
    _add_grid(p)
    _add_common(p, fmt_default="json")

    p = add("evolve", help="RK4 trace of the evolution flow")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--s", type=_number, default=0.0, help="start time")
    p.add_argument("--t", type=_number, required=required, help="end time")
    p.add_argument("--z", required=required, help="start point, re+imi")
    p.add_argument("--step", type=_number, default=1e-3, help="RK4 step")
    p.add_argument("--tau", type=_number, default=None, help="horizon override (skips the scan)")
    _add_grid(p)
    _add_common(p)

    p = add("pde-check", help="closed-form Loewner PDE residuals at random samples")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--samples", type=int, default=10000, help="number of random (z, t) samples")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--tol", type=_tolerance, default=1e-10, help="residual tolerance")
    p.add_argument("--t-cap", type=_number, default=0.05, help="largest sampled time")
    p.add_argument("--k", type=_number, default=0.5)
    _add_grid(p)
    _add_common(p, fmt_choices=())

    p = add("extend", help="extension values over the imaginary axis")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--z", required=required, help="semicolon-separated points")
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--tau", type=_number, default=None, help="horizon override (skips the scan)")
    _add_grid(p)
    _add_common(p)

    p = add("verify-mu", help="dilatation identity and bound over the strip")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--fd-step", type=_number, default=ext_mod.DEFAULT_FD_STEP, help="Wirtinger difference step")
    p.add_argument("--fd-tol", type=_tolerance, default=ext_mod.DEFAULT_FD_TOL, help="identity tolerance")
    p.add_argument("--nx", type=int, default=None, help="override Re level count")
    p.add_argument("--ny", type=int, default=None, help="override Im sample count")
    p.add_argument("--tau", type=_number, default=None, help="horizon override (skips the scan)")
    p.add_argument("--summary-only", action="store_true", help="omit per-sample rows")
    _add_grid(p)
    _add_common(p, fmt_choices=())

    p = add("trace-check", help="chain-trace vs closed-form extension equality",
            description="Compare the chain member h_t at t = -Re z, evaluated at "
            "i Im z, with the closed-form extension at z.  Both code one identity "
            "and use the same jet, so this guards the algebra of the two formulas; "
            "it is not independent numerical evidence for the extension.")
    p.add_argument("--map", required=required)
    _add_variant(p)
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="equality tolerance")
    p.add_argument("--nx", type=int, default=None, help="override Re level count")
    p.add_argument("--ny", type=int, default=None, help="override Im sample count")
    p.add_argument("--tau", type=_number, default=None, help="horizon override (skips the scan)")
    _add_grid(p)
    _add_common(p, fmt_choices=())

    p = add("carleson", help="Carleson box-ratio scan of a density")
    p.add_argument("--map", required=required)
    p.add_argument("--density", choices=("vmoa", "mu"), default="vmoa")
    _add_variant(p)
    p.add_argument("--k", type=_number, default=0.5, help="level for the mu-density horizon")
    p.add_argument("--tau", type=_number, default=None, help="horizon override (skips the scan)")
    p.add_argument("--scales", type=_number_list, default=None,
                   help="comma-separated |I| values (default dyadic 1..2^-10)")
    p.add_argument("--positions", type=_number_list, default=None, help="comma-separated center_y values")
    p.add_argument("--rel-tol", type=_tolerance, default=1e-6, help="quadrature relative tolerance")
    p.add_argument("--threshold", type=_number, default=carleson_mod.DEFAULT_VANISH_THRESHOLD, help="vanishing verdict threshold (fraction of the norm estimate)")
    _add_grid(p)
    _add_common(p)

    p = add("mu-tilde", help="composite dilatation box decomposition")
    p.add_argument("--map", required=required)
    p.add_argument("--t", type=_number, default=None, help="strip width (default: horizon at --k)")
    p.add_argument("--k", type=_number, default=0.5, help="disk level in (0,1)")
    p.add_argument("--outer", choices=("none", "zero"), default="zero",
                   help="outer dilatation beyond the strip")
    p.add_argument("--scales", type=_number_list, default=None,
                   help="comma-separated |I| values (default 2t,t,t/2; t,t/2 with --outer none)")
    p.add_argument("--center-y", type=_number, default=0.0, help="box center on the imaginary axis")
    p.add_argument("--rel-tol", type=_tolerance, default=1e-8, help="quadrature relative tolerance")
    _add_grid(p)
    _add_common(p, fmt_choices=())

    return top


def _has_config(argv) -> bool:
    """Whether ``argv`` names a ``--config`` file; a parser that knows only that
    flag finds it, so a required flag the file supplies is not missed yet."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    return pre.parse_known_args(argv)[0].config is not None


def _config_argv(ns: argparse.Namespace, argv) -> list:
    """``argv`` with the ``--config`` file's flags placed after the subcommand,
    ahead of the command line's own, so that argparse converts and checks each
    value and an explicit flag wins.  ``true`` is a bare flag, ``false`` and
    ``null`` no flag; keys that name no flag of the subcommand are ignored."""
    try:
        with open(ns.config) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"--config {ns.config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValueError("--config must contain a JSON object")
    flags = []
    for key, value in overrides.items():
        dest = key.lstrip("-").replace("-", "_")
        if value is not False and value is not None and dest != "command" and hasattr(ns, dest):
            flag = "--" + dest.replace("_", "-")
            flags.append(flag if value is True else f"{flag}={value}")
    cut = argv.index(ns.command) + 1
    return argv[:cut] + flags + argv[cut:]


# -- handlers ----------------------------------------------------------------
# Each returns (report, exit code): a JSON document, (header, rows) for CSV, or text.


def _cmd_maps_list(ns):
    if ns.format == "json":
        return [{"spec": s, "description": d} for s, d in CATALOG_SPECS], 0
    width = max(len(s) for s, _ in CATALOG_SPECS)
    return "".join(f"{s.ljust(width)}  {d}\n" for s, d in CATALOG_SPECS), 0


def _cmd_eval(ns):
    m = parse_map_spec(ns.map)
    jets = [(z, [complex(c) for c in m.jet(z).coeffs]) for z in _complex_list(ns.z)]
    if ns.format == "csv":
        header = ["z_re", "z_im", *(f"c{k}_{p}" for k in range(ORDER + 1) for p in ("re", "im"))]
        return (header, [[z.real, z.imag, *(p for c in cs for p in (c.real, c.imag))]
                         for z, cs in jets]), 0
    doc = [{"z": [z.real, z.imag], "coeffs": [[c.real, c.imag] for c in cs]} for z, cs in jets]
    return {"map": m.name, "jets": doc}, 0


def _cmd_norms(ns):
    m = parse_map_spec(ns.map)
    profile = norm_profile(m, ns.t, grid=_grid_from(ns))
    if ns.format == "csv":
        return (NormProfile.CSV_HEADER, profile.rows()), 0
    return {
        "map": m.name,
        "t": list(profile.t_values),
        "beta": list(profile.beta),
        "sigma": list(profile.sigma),
    }, 0


def _cmd_horizon(ns):
    m = parse_map_spec(ns.map)
    try:
        res = loewner_mod.tau0_scan(m, ns.variant, ns.k, grid=_grid_from(ns), t_max=ns.t_max)
    except HorizonError as exc:
        # JSON under --format csv too: the failure document has no rows
        return {"map": m.name, "variant": ns.variant, "k": ns.k, "error": str(exc)}, _FAIL_EXIT
    if ns.format == "csv":
        return (res.CSV_HEADER, res.profile_rows()), 0
    return {
        "map": m.name,
        "variant": ns.variant,
        "k": ns.k,
        "t_star": res.t_star,
        "levels_scanned": int(res.x_levels.size),
    }, 0


def _horizon_for(ns, m, variant=None):
    """The --tau override when given, else the grid-certified horizon at --k."""
    tau = getattr(ns, "tau", None)
    if tau is not None:
        return tau
    return loewner_mod.tau0_scan(m, variant or ns.variant, ns.k, grid=_grid_from(ns)).t_star


def _cmd_evolve(ns):
    m = parse_map_spec(ns.map)
    field = loewner_mod.HerglotzField(m, ns.variant, ns.k, _horizon_for(ns, m))
    z0 = parse_complex(ns.z)
    states = loewner_mod.evolve_trace(field, ns.s, ns.t, z0, step=ns.step)
    rows = [
        (st.s, st.t, st.z0.real, st.z0.imag, st.z.real, st.z.imag, st.step,
         st.residual_estimate)
        for st in states
    ]
    header = ("s", "t", "z0_re", "z0_im", "z_re", "z_im", "step", "residual_estimate")
    if ns.format == "csv":
        return (header, rows), 0
    return {"map": m.name, "variant": ns.variant, "k": ns.k, "tau": field.tau0,
            "trace": [dict(zip(header, r)) for r in rows]}, 0


def _cmd_pde_check(ns):
    if ns.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {ns.samples}")
    if ns.t_cap < 0:
        raise ValueError(f"--t-cap must be finite and nonnegative, got {ns.t_cap}")
    m = parse_map_spec(ns.map)
    field = loewner_mod.HerglotzField(m, ns.variant, ns.k, _horizon_for(ns, m))
    rng = np.random.default_rng(ns.seed)
    n = ns.samples
    z = rng.uniform(0.01, 5.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
    t_hi = min(ns.t_cap, field.tau0)
    ts = rng.uniform(0.0, t_hi, n)
    worst = float(np.max(loewner_mod.pde_residual(m, ns.variant, z, ts)))
    passed = worst <= ns.tol
    return {
        "map": m.name, "variant": ns.variant, "samples": n, "seed": ns.seed,
        "t_cap": t_hi, "max_residual": worst, "tol": ns.tol, "pass": passed,
    }, 0 if passed else _FAIL_EXIT


def _cmd_extend(ns):
    m = parse_map_spec(ns.map)
    tau = _horizon_for(ns, m)
    rows = []
    for z in _complex_list(ns.z):
        v = complex(ext_mod.extend(m, ns.variant, z, tau=tau))
        rows.append((z.real, z.imag, v.real, v.imag))
    header = ("z_re", "z_im", "value_re", "value_im")
    if ns.format == "csv":
        return (header, rows), 0
    return {"map": m.name, "variant": ns.variant, "tau": tau,
            "values": [dict(zip(header, r)) for r in rows]}, 0


def _cmd_verify_mu(ns):
    m = parse_map_spec(ns.map)
    report = ext_mod.qc_report(
        m, ns.variant, _horizon_for(ns, m), k=ns.k, fd_step=ns.fd_step,
        fd_tolerance=ns.fd_tol, grid=_grid_from(ns), nx=ns.nx, ny=ns.ny,
        samples=not ns.summary_only,
    )
    return report, 0 if report.passed else _FAIL_EXIT


def _cmd_trace_check(ns):
    m = parse_map_spec(ns.map)
    tau = _horizon_for(ns, m)
    # pull the deepest level just inside the horizon
    xs, ys = ext_mod._mirror_levels(tau, 1e-9, _grid_from(ns), ns.nx, ns.ny)
    level_max = np.empty(xs.size)

    def run(a, b, mesh):
        via_trace = ext_mod.trace_extend(m, ns.variant, mesh)
        via_formula = ext_mod.extend(m, ns.variant, mesh, tau=tau)
        level_max[a:b] = np.max(np.abs(via_trace - via_formula), axis=1)

    _run_blocks(run, xs, ys)
    worst = float(np.max(level_max))
    passed = worst <= ns.tol
    return {
        "map": m.name, "variant": ns.variant, "tau": tau,
        "points": xs.size * ys.size, "max_difference": worst, "tol": ns.tol, "pass": passed,
    }, 0 if passed else _FAIL_EXIT


def _cmd_carleson(ns):
    m = parse_map_spec(ns.map)
    scales = ns.scales
    if ns.density == "vmoa":
        dens = carleson_mod.vmoa_density(m)
    else:
        tau = _horizon_for(ns, m)
        dens = carleson_mod.mu_density(m, ns.variant, tau)
        if scales is None:
            # boxes deeper than the strip have no dilatation values
            scales = [s for s in carleson_mod.DEFAULT_SCALES if s <= tau]
            if not scales:
                raise ValueError(f"horizon {tau} is smaller than the smallest default scale "
                                 f"{carleson_mod.DEFAULT_SCALES[-1]}: give --scales or a larger --tau")
    report = carleson_mod.carleson_scan(
        dens, scales=scales, positions=ns.positions,
        rel_tol=ns.rel_tol, vanish_threshold=ns.threshold,
    )
    if ns.format == "csv":
        return (report.CSV_HEADER, report.rows()), 0
    return report.summary(), 0


def _cmd_mu_tilde(ns):
    m = parse_map_spec(ns.map)
    t = ns.t if ns.t is not None else _horizon_for(ns, m, loewner_mod.VARIANT_SCHWARZIAN)
    outer = None if ns.outer == "none" else (lambda z: np.zeros(np.shape(z), dtype=complex))
    # without an outer field the density ends at the strip edge, so the 2t box is left out
    scales = ns.scales or ([2 * t, t, t / 2] if outer else [t, t / 2])
    splits = carleson_mod.bigbox_decomposition(
        m, t, ns.center_y, scales, outer=outer, rel_tol=ns.rel_tol
    )
    rows = [{"scale": s.length, "total": s.total, "inner": s.inner_term,
             "outer": s.outer_term, "defect": s.defect} for s in splits]
    return {"map": m.name, "t": t, "center_y": ns.center_y,
            "outer": ns.outer, "boxes": rows}, 0


_HANDLERS = {
    "maps-list": _cmd_maps_list,
    "eval": _cmd_eval,
    "norms": _cmd_norms,
    "horizon": _cmd_horizon,
    "evolve": _cmd_evolve,
    "pde-check": _cmd_pde_check,
    "extend": _cmd_extend,
    "verify-mu": _cmd_verify_mu,
    "trace-check": _cmd_trace_check,
    "carleson": _cmd_carleson,
    "mu-tilde": _cmd_mu_tilde,
}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's malloc.h


@functools.cache
def _glibc_heap():
    """glibc with the CLI's heap policy set, once per process, or None under another libc.

    A strip scan's blocks each allocate and free megabytes of 256 KiB arrays, which glibc
    would hand back to the kernel for the next block to fault in again.  Kept instead:
    arrays up to 1 MiB on the heap, up to 8 MiB of free heap per block in flight, and one
    arena, so that no helper thread's arena sits idle with pages kept."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return None
    import ctypes  # here, so that importing the package does not pay for it

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.mallopt.restype = libc.malloc_trim.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, MAX_WORKERS * 8 << 20)
    libc.mallopt(_M_ARENA_MAX, 1)
    return libc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    heap = _glibc_heap()
    try:
        if _has_config(argv):
            argv = _config_argv(build_parser(required=False).parse_args(argv), argv)
        ns = build_parser().parse_args(argv)
        report, code = _HANDLERS[ns.command](ns)
        if isinstance(report, tuple):
            report = _csv(*report)
        _atomic_write(report if isinstance(report, str) else _json_doc(report), ns.out)
        return code
    except HorizonError as exc:
        sys.stderr.write(f"chordalqc: {exc}\n")
        return _FAIL_EXIT
    except EvaluationError as exc:
        spec = getattr(ns, "map", None)
        where = f"--map {spec}: " if spec else ""
        sys.stderr.write(f"chordalqc: error: {where}{exc}\n")
        return _USAGE_EXIT
    except (QuadratureError, ValueError, OSError) as exc:
        sys.stderr.write(f"chordalqc: error: {exc}\n")
        return _USAGE_EXIT
    finally:
        if heap is not None:
            heap.malloc_trim(0)  # the next command in this process starts from a trimmed heap


if __name__ == "__main__":
    raise SystemExit(main())
