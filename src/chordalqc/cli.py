"""Deterministic command-line front end.

Every subcommand delegates to one library operation and returns a CSV or
JSON report that :func:`main` alone writes: identical configuration
produces byte-identical output.  A full ``verify-mu`` report's sample text
is formatted on two processes where two CPUs are free (a forked child makes
every other chunk), with the same bytes as one process makes.
Exit codes: 0 success/PASS, 2 computed FAIL (a bound violated, no
horizon at the requested level), 1 usage or evaluation error.

Map specs follow the mini-grammar of :mod:`chordalqc.maps` (``name[:params]``,
``compose:<outer>,<inner>``); numbers are ``re``, ``re+imi``, ``imi``, ``i`` or
``-i``.  Each flag is declared once, and its argparse type converts and checks
it where it enters: maps and points are parsed, and every number flag gets a
value class from :func:`_checked` (count, integer, positive, nonnegative,
tolerance, horizon, level).  A bad value is a usage error naming its flag, and
no handler checks a flag value; the checks that span flags (``horizon
--t-max`` and ``norms --t`` against ``--x-min``, ``--x-min`` against the
range of a command's horizon scan, and ``--tau`` less twice the pull-in of
``verify-mu`` and ``trace-check`` above ``--x-min``) run in the subcommand's
parser once every flag is read.  A JSON file passed through ``--config``
supplies defaults for any flag not given explicitly; flags win.
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
from .schwarz import MAX_WORKERS, NormProfile, StripGrid, norm_profile

_USAGE_EXIT = 1
_FAIL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # a check that spans flags, run once all are parsed: namespace -> usage error text or None
    check = None

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        message = self.check and self.check(ns)
        if message:
            self.error(message)
        return ns, extras

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _atomic_write(report, path: str | None):
    """Write ``report`` to ``path`` through a temporary file renamed into place, or
    to stdout when ``path`` is None: ASCII ``bytes``, or an iterable of ASCII ``str``
    chunks (a :class:`_Chunks`), each written as soon as it is made.  If making or
    writing a chunk raises, the temporary file is removed and ``path`` is untouched,
    and a report's formatting child is reaped before the error leaves this call."""
    chunks = (str(report, "ascii"),) if isinstance(report, bytes) else report
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chordalqc-")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        # mkstemp creates 0600; give the file the mode open(path, "w") gives a new one
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Chunks:
    """A report as ASCII ``str`` chunks, made one at a time as they are iterated;
    ``len`` is the number of bytes made so far, the report's size once written."""

    def __init__(self, chunks):
        self._chunks = chunks
        self._size = 0

    def __iter__(self):
        try:
            for chunk in self._chunks:
                self._size += len(chunk)
                yield chunk
        finally:
            self._chunks.close()  # a report left partway ends its formatting child here

    def __len__(self):
        return self._size


def _num(v) -> str:
    return repr(float(v))


def _csv(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) if not isinstance(v, str) else v for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


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
# samples formatted per chunk: a chunk's text (about 650 kB) and the list it is joined
# from stay under the CLI's 1 MiB mmap threshold, so each reuses the last one's heap pages
_SAMPLE_CHUNK = 2048
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(col) -> list:
    """A float64 column spelled as json.dumps spells each float.

    ``repr`` runs once per distinct magnitude, taken by bit pattern: a negative
    entry is "-" and its magnitude's text, so x and -x cost one call, and -0.0
    and -inf are spelled "-0.0" and "-Infinity".  NaN takes no sign."""
    bits, index = np.unique(np.abs(col).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    negative = np.signbit(col) & ~np.isnan(col)
    table = np.array(text + ["-" + t for t in text], dtype=object)
    return table[index + len(text) * negative].tolist()


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


def _made_in_turns(make, items):
    """``make(item)``, ASCII text, for each of the sequence ``items`` in order.  Given
    ``os.fork``, two items or more, one thread and two CPUs, a forked child makes the
    odd-numbered ones and sends each through a pipe, length-prefixed, or its error
    (pickled, else named), raised here in its place.  The child leaves by ``os._exit``;
    however this ends, the pipe is closed, then the child reaped."""
    import threading

    from . import schwarz

    if (not hasattr(os, "fork") or len(items) < 2 or threading.active_count() != 1
            or min(schwarz._cpu_count(), MAX_WORKERS) < 2):
        yield from map(make, items)
        return
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                for item in items[1::2]:
                    try:
                        kind, data = b"T", make(item).encode("ascii")
                    except BaseException as exc:
                        try:
                            kind, data = b"E", pickle.dumps(exc)
                            pickle.loads(data)
                        except Exception:
                            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                    pipe.write(kind + len(data).to_bytes(8, "little") + data)
                    pipe.flush()
                    if kind == b"E":
                        break
        finally:
            os._exit(0)
    os.close(write)
    try:
        with open(read, "rb") as pipe:  # closed first: a child still writing gets EPIPE
            for i, item in enumerate(items):
                if i % 2 == 0:
                    yield make(item)
                    continue
                kind, size = pipe.read(1), int.from_bytes(pipe.read(8), "little")
                data = pipe.read(size)
                if not kind or len(data) < size:
                    raise ChildProcessError(f"the formatting process ended before chunk {i}")
                if kind == b"E":
                    raise pickle.loads(data)
                yield str(data, "ascii")
    finally:
        os.waitpid(pid, 0)


def _json_doc(doc) -> bytes | _Chunks:
    """Indented JSON of ``doc``: ASCII bytes, or for a :class:`QCReport` with
    samples the :class:`_Chunks` of its text.

    A :class:`QCReport` is written as ``json.dumps`` would write its
    ``to_json_dict()``, byte for byte, but the sample block is formatted
    straight from the report's columns: in chunks of ``_SAMPLE_CHUNK``
    samples, each chunk's fields interleaved with the sample template by
    slices.  The head, everything before the samples, is made here; each
    sample chunk, then the tail, only when :func:`_atomic_write` asks for the
    next one, so one chunk per process is the only copy of the samples' text.
    After the head, :func:`_made_in_turns` may fork a child that makes every
    other chunk; the chunks are yielded in order either way.
    """
    if isinstance(doc, ext_mod.QCReport) and doc.points is None:
        doc = doc.to_json_dict()
    if not isinstance(doc, ext_mod.QCReport):
        return (json.dumps(doc, indent=2) + "\n").encode("ascii")
    head = json.dumps(dataclasses.replace(doc, points=None).to_json_dict(), indent=2)
    # head ends with the document's closing "\n}"; samples is its last key
    head = head[:-2] + ',\n  "samples": '
    columns = doc.sample_columns()
    n = columns[0].size
    if not n:
        return (head + "[]\n}\n").encode("ascii")

    def chunks():
        yield head + "["
        yield from _made_in_turns(lambda a: _json_samples(columns, a, min(a + _SAMPLE_CHUNK, n)),
                                  range(0, n, _SAMPLE_CHUNK))
        yield "\n  ]\n}\n"

    return _Chunks(chunks())


def _complex_list(text: str) -> list:
    """Semicolon-separated points, blank items skipped; a list with none is an error."""
    points = [parse_complex(part) for part in text.split(";") if part.strip()]
    if not points:
        raise ValueError(f"no points in {text!r}")
    return points


def _arg_type(parse):
    """``parse`` as an argparse ``type``: its ValueError is a usage error naming the flag."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _checked(convert, ok=None, complaint=""):
    """An argparse ``type``: the text read by ``convert`` (``float`` or ``int``), finite,
    and kept by ``ok`` when given, else a usage error naming the flag: argparse's
    ``invalid <convert> value``, ``non-finite number`` or ``<complaint> '<text>'``."""
    def check(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if convert is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"non-finite number '{value}'")
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"{complaint} {text!r}")
        return value
    return check


_number = _checked(float)
_positive = _checked(float, lambda v: v > 0, "nonpositive number")
_nonnegative = _checked(float, lambda v: v >= 0, "negative number")
_tolerance = _checked(float, lambda v: v >= 0, "negative tolerance")
_horizon = _checked(float, lambda v: v > 0, "nonpositive horizon")  # --tau, and mu-tilde --t
_level = _checked(float, lambda v: 0 < v < 1, "level outside (0,1)")  # every --k
_count = _checked(int, lambda v: v >= 1, "count below 1")
_natural = _checked(int, lambda v: v >= 0, "negative integer")


def _number_list(text: str) -> list:
    """Comma-separated finite numbers, blank items skipped: an argparse ``type``."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    for v in values:
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"non-finite number '{v}'")
    return values


def _grid_from(ns) -> StripGrid:
    return StripGrid(
        x_min=ns.x_min,
        points_per_decade=ns.points_per_decade,
        y_max=ns.y_max,
        y_count=ns.y_count,
    )


_GRID_FLAGS = {
    "--x-min": dict(type=_positive, default=1e-4, help="smallest Re level of the strip grid"),
    "--points-per-decade": dict(type=_natural, default=64, help="log-spaced Re levels per decade"),
    "--y-max": dict(type=_nonnegative, default=20.0, help="Im range half-width"),
    "--y-count": dict(type=_count, default=257, help="number of Im samples"),
}
_LEVEL_COUNTS = {
    "--nx": dict(type=_count, default=None, help="override Re level count"),
    "--ny": dict(type=_count, default=None, help="override Im sample count"),
}


def _t_max_check(ns):
    """``horizon``'s scan range must reach the grid's first level."""
    if ns.t_max < ns.x_min:
        return f"argument --t-max: {ns.t_max} below --x-min {ns.x_min}"


def _t_check(ns):
    """``norms``' t values must be positive and strictly decreasing, and the smallest
    must reach the grid's first level."""
    ts = ns.t
    if min(ts) <= 0:
        return f"argument --t: nonpositive t {min(ts)}"
    for a, b in zip(ts, ts[1:]):
        if b >= a:
            return f"argument --t: t values not strictly decreasing ({b} after {a})"
    if ts[-1] < ns.x_min:
        return f"argument --t: smallest t {ts[-1]} below --x-min {ns.x_min}"


def _scan_check(scans, pull=None):
    """A check for a command that scans for its horizon when ``scans(ns)``: the scan's
    range, up to ``loewner.SCAN_T_MAX``, must reach the grid's first level; with ``pull``,
    a given --tau less twice the strip's pull-in ``pull(ns)`` must stay above it."""
    def check(ns):
        if scans(ns) and ns.x_min > loewner_mod.SCAN_T_MAX:
            return (f"argument --x-min: {ns.x_min} above the horizon scan's last level "
                    f"{loewner_mod.SCAN_T_MAX}")
        if pull is not None and ns.tau is not None and ns.tau - 2 * pull(ns) <= ns.x_min:
            return f"argument --tau: {ns.tau} leaves no room above --x-min {ns.x_min}"
    return check


def _no_tau(ns):  # as _horizon_for
    return getattr(ns, "tau", None) is None


def build_parser(required: bool = True, only: str | None = None) -> _Parser:
    """The CLI parser; ``required=False`` leaves out the checks of required flags
    and of flags against each other, for the parse that looks for ``--config``
    (the file may supply values).  With ``only`` a subcommand name, only its parser
    is built: the others are needed only when invoked, and the usage line still
    names them all."""
    top = _Parser(prog="chordalqc", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True,
                             metavar=None if only is None else "{%s}" % ",".join(_HANDLERS))
    # built per parser, so a parse_map_spec rebound after import is the one called
    map_type, point_type, points_type = map(_arg_type, (parse_map_spec, parse_complex, _complex_list))

    def command(name, help, flags=None, *, variant=False, k=False, tau=False, mapped=True,
                grid=True, formats=("csv", "json"), fmt="csv", check=None, **kwargs):
        """Subcommand ``name`` with, in order: --map if ``mapped``; --variant, --k (``k``
        is its help text, True for the shared one) and --tau where asked; its own ``flags``
        (option string -> add_argument keywords); the grid flags if ``grid``; --out,
        --format (``formats``, default ``fmt``; none when empty: JSON only), --config;
        and ``check`` across its flags.  Each subcommand's help lists its defaults."""
        if only is not None and name != only:
            return
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           **kwargs)
        if required:
            p.check = check
        if mapped:
            p.add_argument("--map", type=map_type, required=required, help="map spec")
        if variant:
            p.add_argument("--variant", choices=loewner_mod.VARIANTS,
                           default=loewner_mod.VARIANT_SCHWARZIAN, help="chain variant")
        if k:
            p.add_argument("--k", type=_level, default=0.5,
                           help=k if isinstance(k, str) else "disk level in (0,1)")
        if tau:
            p.add_argument("--tau", type=_horizon, default=None, help="horizon override (skips the scan)")
        for flag, spec in {**(flags or {}), **(_GRID_FLAGS if grid else {})}.items():
            p.add_argument(flag, **spec)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=fmt, help="report format")
        p.add_argument("--config", default=None, help="JSON file with flag defaults (flags win)")

    command("maps-list", "list catalog map specs", mapped=False, grid=False,
            formats=("text", "json"), fmt="text")
    command("eval", "order-3 jet of a map at points", {
        "--z": dict(type=points_type, required=required, help="semicolon-separated points, re+imi"),
    }, grid=False)
    command("norms", "beta/sigma strip-norm profile", {
        "--t": dict(type=_number_list, required=required, help="comma-separated decreasing t values"),
    }, check=_t_check)
    command("horizon", "largest grid-certified horizon at level k", {
        "--t-max": dict(type=_positive, default=loewner_mod.SCAN_T_MAX, help="scan range maximum"),
    }, variant=True, k=True, fmt="json", check=_t_max_check)
    command("evolve", "RK4 trace of the evolution flow", {
        "--s": dict(type=_nonnegative, default=0.0, help="start time"),
        "--t": dict(type=_nonnegative, required=required, help="end time"),
        "--z": dict(type=point_type, required=required, help="start point, re+imi"),
        "--step": dict(type=_positive, default=1e-3, help="RK4 step"),
    }, variant=True, k=True, tau=True, check=_scan_check(_no_tau))
    command("pde-check", "closed-form Loewner PDE residuals at random samples", {
        "--samples": dict(type=_count, default=10000, help="number of random (z, t) samples"),
        "--seed": dict(type=_natural, default=0, help="RNG seed"),
        "--tol": dict(type=_tolerance, default=1e-10, help="residual tolerance"),
        "--t-cap": dict(type=_nonnegative, default=0.05, help="largest sampled time"),
    }, variant=True, k=True, formats=(), check=_scan_check(_no_tau))
    command("extend", "extension values over the imaginary axis", {
        "--z": dict(type=points_type, required=required, help="semicolon-separated points"),
    }, variant=True, k=True, tau=True, check=_scan_check(_no_tau))
    command("verify-mu", "dilatation identity and bound over the strip", {
        "--fd-step": dict(type=_positive, default=ext_mod.DEFAULT_FD_STEP, help="Wirtinger difference step"),
        "--fd-tol": dict(type=_tolerance, default=ext_mod.DEFAULT_FD_TOL, help="identity tolerance"),
        **_LEVEL_COUNTS,
        "--summary-only": dict(action="store_true", help="omit per-sample rows"),
    }, variant=True, k=True, tau=True, formats=(), check=_scan_check(_no_tau, lambda ns: ns.fd_step))
    command("trace-check", "chain-trace vs closed-form extension equality", {
        "--tol": dict(type=_tolerance, default=1e-12, help="equality tolerance"),
        **_LEVEL_COUNTS,
    }, variant=True, k=True, tau=True, formats=(),
        check=_scan_check(_no_tau, lambda ns: ext_mod.TRACE_PULL),
        description="Compare the chain member h_t at t = -Re z, evaluated at "
        "i Im z, with the closed-form extension at z.  Both code one identity "
        "and use the same jet, so this guards the algebra of the two formulas; "
        "it is not independent numerical evidence for the extension.")
    command("carleson", "Carleson box-ratio scan of a density", {
        "--density": dict(choices=("vmoa", "mu"), default="vmoa"),
        "--scales": dict(type=_number_list, default=None,
                         help="comma-separated |I| values (default dyadic 1..2^-10)"),
        "--positions": dict(type=_number_list, default=None, help="comma-separated center_y values"),
        "--rel-tol": dict(type=_tolerance, default=1e-6, help="quadrature relative tolerance"),
        "--threshold": dict(type=_number, default=carleson_mod.DEFAULT_VANISH_THRESHOLD,
                            help="vanishing verdict threshold (fraction of the norm estimate)"),
    }, variant=True, k="level for the mu-density horizon", tau=True,
        check=_scan_check(lambda ns: ns.density == "mu" and ns.tau is None))
    command("mu-tilde", "composite dilatation box decomposition", {
        "--t": dict(type=_horizon, default=None, help="strip width (default: horizon at --k)"),
        "--outer": dict(choices=("none", "zero"), default="zero", help="outer dilatation beyond the strip"),
        "--scales": dict(type=_number_list, default=None,
                         help="comma-separated |I| values (default 2t,t,t/2; t,t/2 with --outer none)"),
        "--center-y": dict(type=_number, default=0.0, help="box center on the imaginary axis"),
        "--rel-tol": dict(type=_tolerance, default=1e-8, help="quadrature relative tolerance"),
    }, k=True, formats=(), check=_scan_check(lambda ns: ns.t is None))
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
# Each returns (report, exit code): a JSON document, (header, rows) for CSV, or ASCII text.


def _cmd_maps_list(ns):
    if ns.format == "json":
        return [{"spec": s, "description": d} for s, d in CATALOG_SPECS], 0
    width = max(len(s) for s, _ in CATALOG_SPECS)
    return "".join(f"{s.ljust(width)}  {d}\n" for s, d in CATALOG_SPECS).encode("ascii"), 0


def _cmd_eval(ns):
    jets = [(z, [complex(c) for c in ns.map.jet(z).coeffs]) for z in ns.z]
    if ns.format == "csv":
        header = ["z_re", "z_im", *(f"c{k}_{p}" for k in range(ORDER + 1) for p in ("re", "im"))]
        return (header, [[z.real, z.imag, *(p for c in cs for p in (c.real, c.imag))]
                         for z, cs in jets]), 0
    doc = [{"z": [z.real, z.imag], "coeffs": [[c.real, c.imag] for c in cs]} for z, cs in jets]
    return {"map": ns.map.name, "jets": doc}, 0


def _cmd_norms(ns):
    profile = norm_profile(ns.map, ns.t, grid=_grid_from(ns))
    if ns.format == "csv":
        return (NormProfile.CSV_HEADER, profile.rows()), 0
    return {
        "map": ns.map.name,
        "t": list(profile.t_values),
        "beta": list(profile.beta),
        "sigma": list(profile.sigma),
    }, 0


def _cmd_horizon(ns):
    try:
        res = loewner_mod.tau0_scan(ns.map, ns.variant, ns.k, grid=_grid_from(ns), t_max=ns.t_max)
    except HorizonError as exc:
        # JSON under --format csv too: the failure document has no rows
        return {"map": ns.map.name, "variant": ns.variant, "k": ns.k, "error": str(exc)}, _FAIL_EXIT
    if ns.format == "csv":
        return (res.CSV_HEADER, res.profile_rows()), 0
    return {
        "map": ns.map.name,
        "variant": ns.variant,
        "k": ns.k,
        "t_star": res.t_star,
        "levels_scanned": int(res.x_levels.size),
    }, 0


def _horizon_for(ns, variant=None):
    """The --tau override when given, else the grid-certified horizon at --k."""
    tau = getattr(ns, "tau", None)
    if tau is not None:
        return tau
    return loewner_mod.tau0_scan(ns.map, variant or ns.variant, ns.k, grid=_grid_from(ns)).t_star


def _cmd_evolve(ns):
    field = loewner_mod.HerglotzField(ns.map, ns.variant, ns.k, _horizon_for(ns))
    states = loewner_mod.evolve_trace(field, ns.s, ns.t, ns.z, step=ns.step)
    rows = [
        (st.s, st.t, st.z0.real, st.z0.imag, st.z.real, st.z.imag, st.step,
         st.residual_estimate)
        for st in states
    ]
    header = ("s", "t", "z0_re", "z0_im", "z_re", "z_im", "step", "residual_estimate")
    if ns.format == "csv":
        return (header, rows), 0
    return {"map": ns.map.name, "variant": ns.variant, "k": ns.k, "tau": field.tau0,
            "trace": [dict(zip(header, r)) for r in rows]}, 0


def _cmd_pde_check(ns):
    t_hi = min(ns.t_cap, _horizon_for(ns))
    rng = np.random.default_rng(ns.seed)
    n = ns.samples
    z = rng.uniform(0.01, 5.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
    ts = rng.uniform(0.0, t_hi, n)
    worst = float(np.max(loewner_mod.pde_residual(ns.map, ns.variant, z, ts)))
    passed = worst <= ns.tol
    return {
        "map": ns.map.name, "variant": ns.variant, "samples": n, "seed": ns.seed,
        "t_cap": t_hi, "max_residual": worst, "tol": ns.tol, "pass": passed,
    }, 0 if passed else _FAIL_EXIT


def _cmd_extend(ns):
    tau = _horizon_for(ns)
    rows = []
    for z in ns.z:
        v = complex(ext_mod.extend(ns.map, ns.variant, z, tau=tau))
        rows.append((z.real, z.imag, v.real, v.imag))
    header = ("z_re", "z_im", "value_re", "value_im")
    if ns.format == "csv":
        return (header, rows), 0
    return {"map": ns.map.name, "variant": ns.variant, "tau": tau,
            "values": [dict(zip(header, r)) for r in rows]}, 0


def _cmd_verify_mu(ns):
    report = ext_mod.qc_report(
        ns.map, ns.variant, _horizon_for(ns), k=ns.k, fd_step=ns.fd_step,
        fd_tolerance=ns.fd_tol, grid=_grid_from(ns), nx=ns.nx, ny=ns.ny,
        samples=not ns.summary_only,
    )
    return report, 0 if report.passed else _FAIL_EXIT


def _cmd_trace_check(ns):
    tau = _horizon_for(ns)
    points, worst = ext_mod.trace_check(ns.map, ns.variant, tau, _grid_from(ns), ns.nx, ns.ny)
    passed = worst <= ns.tol
    return {
        "map": ns.map.name, "variant": ns.variant, "tau": tau,
        "points": points, "max_difference": worst, "tol": ns.tol, "pass": passed,
    }, 0 if passed else _FAIL_EXIT


def _cmd_carleson(ns):
    scales = ns.scales
    if ns.density == "vmoa":
        dens = carleson_mod.vmoa_density(ns.map)
    else:
        tau = _horizon_for(ns)
        dens = carleson_mod.mu_density(ns.map, ns.variant, tau)
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
    t = ns.t if ns.t is not None else _horizon_for(ns, loewner_mod.VARIANT_SCHWARZIAN)
    outer = None if ns.outer == "none" else (lambda z: np.zeros(np.shape(z), dtype=complex))
    # without an outer field the density ends at the strip edge, so the 2t box is left out
    scales = ns.scales or ([2 * t, t, t / 2] if outer else [t, t / 2])
    splits = carleson_mod.bigbox_decomposition(
        ns.map, t, ns.center_y, scales, outer=outer, rel_tol=ns.rel_tol
    )
    rows = [{"scale": s.length, "total": s.total, "inner": s.inner_term,
             "outer": s.outer_term, "defect": s.defect} for s in splits]
    return {"map": ns.map.name, "t": t, "center_y": ns.center_y,
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
    arena, so that no scan thread's arena sits idle with pages kept."""
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
    # a subcommand needs only its own flags; anything else (--help, a typo) gets every one
    only = argv[0] if argv and argv[0] in _HANDLERS else None
    try:
        if _has_config(argv):
            argv = _config_argv(build_parser(required=False, only=only).parse_args(argv), argv)
        ns = build_parser(only=only).parse_args(argv)
        report, code = _HANDLERS[ns.command](ns)
        if heap is not None:
            heap.malloc_trim(0)  # the scan's kept heap goes back before the report is built
        if isinstance(report, tuple):
            report = _csv(*report)
        elif not isinstance(report, bytes):
            report = _json_doc(report)
        _atomic_write(report, ns.out)
        return code
    except HorizonError as exc:
        sys.stderr.write(f"chordalqc: {exc}\n")
        return _FAIL_EXIT
    except EvaluationError as exc:
        m = getattr(ns, "map", None)
        where = f"--map {m.name}: " if m else ""
        sys.stderr.write(f"chordalqc: error: {where}{exc}\n")
        return _USAGE_EXIT
    except (QuadratureError, ValueError, OSError) as exc:
        sys.stderr.write(f"chordalqc: error: {exc}\n")
        return _USAGE_EXIT
    finally:
        if heap is not None:
            heap.malloc_trim(0)  # after an error too, the next command starts from a trimmed heap


if __name__ == "__main__":
    raise SystemExit(main())
