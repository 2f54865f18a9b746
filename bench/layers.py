"""Spans and counts at the layer boundaries, recorded from outside the program.

``Tracer.install`` replaces public functions of each layer (and the CLI's
serialize and write helpers) by wrappers that record a span: name,
operation id, parent span, start, end, a size and the exception type if
the call raised.  A function imported by name into another module is
replaced there as well, so the CLI's calls are seen.  The densities
returned by ``vmoa_density``, ``mu_density`` and ``composite_density``
get their evaluator wrapped the same way, which is how the quadrature's
node counts are measured.  Jet products and quotients, the innermost
and most frequent calls, are counted without spans.

Spans stay in memory until ``dump``.  The untraced benchmark run never
imports this module.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import numpy as np

MB = float(1 << 20)

# (module, attribute, span name, size of the call from (args, result))
_BOUNDARIES = (
    ("chordalqc.cli", "main", "cli.main", None),
    ("chordalqc.cli", "_json_doc", "cli.serialize", None),
    ("chordalqc.cli", "_csv", "cli.serialize", None),
    ("chordalqc.cli", "_atomic_write", "cli.write", lambda a, r: len(a[0])),  # ASCII reports
    ("chordalqc.maps", "parse_map_spec", "maps.parse_map_spec", None),
    ("chordalqc.maps", "ConformalMap.jet", "maps.jet", lambda a, r: int(np.size(a[1]))),
    ("chordalqc.schwarz", "derivative_ratios", "schwarz.derivative_ratios", None),
    ("chordalqc.schwarz", "strip_weights", "schwarz.strip_weights", lambda a, r: int(r[0].size)),
    ("chordalqc.schwarz", "norm_profile", "schwarz.norm_profile", None),
    ("chordalqc.loewner", "tau0_scan", "loewner.tau0_scan", None),
    ("chordalqc.loewner", "evolve_trace", "loewner.evolve_trace", lambda a, r: len(r) - 1),
    ("chordalqc.loewner", "pde_residual", "loewner.pde_residual", lambda a, r: int(np.size(r))),
    ("chordalqc.loewner", "family_ht", "loewner.family_ht", None),
    ("chordalqc.extension", "qc_report", "extension.qc_report", None),
    ("chordalqc.extension", "QCReport.to_json_dict", "extension.to_json_dict", None),
    ("chordalqc.extension", "extend", "extension.extend", None),
    ("chordalqc.extension", "mu_formula", "extension.mu_formula", None),
    ("chordalqc.extension", "trace_extend", "extension.trace_extend", None),
    ("chordalqc.carleson", "carleson_scan", "carleson.carleson_scan", None),
    ("chordalqc.carleson", "box_ratio", "carleson.box_ratio", None),
    ("chordalqc.carleson", "bigbox_decomposition", "carleson.bigbox_decomposition", None),
)
_DENSITY_FACTORIES = ("vmoa_density", "mu_density", "composite_density")
_COUNTED = ("jet_mul", "jet_div")
_QUADRATURE = ("carleson.carleson_scan", "carleson.box_ratio", "carleson.bigbox_decomposition")

# span record fields
NAME, OP, PARENT, START, END, SIZE, NODES_N, ERROR = range(8)


class Tracer:
    """Span recorder for one process; ``install`` it, run, ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.jet_ops = 0
        self._stack = []
        self._ops = -1
        self._marks = []
        self._patched = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, size=None, nodes=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                tracer._ops += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, tracer._ops, parent, time.perf_counter(), 0.0, 0, 0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
            if size is not None:
                rec[SIZE] = size(args, out)
            if nodes:
                rec[SIZE] = int(np.size(args[0]))
                rec[NODES_N] = int(np.shape(args[0])[0])
            return out

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.jet_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    def _density_factory(self, fn):
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            dens = fn(*args, **kwargs)
            evaluator = tracer._span("carleson.density", dens.evaluator, nodes=True)
            return dataclasses.replace(dens, evaluator=evaluator)

        return factory

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every chordalqc module attribute that refers to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "chordalqc" and not modname.startswith("chordalqc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import chordalqc  # noqa: F401  (loads every layer module)

        for modname, attr, name, size in _BOUNDARIES:
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._span(name, original, size))
            else:
                original = getattr(owner, attr)
                self._replace_everywhere(original, self._span(name, original, size))
        carleson = sys.modules["chordalqc.carleson"]
        for attr in _DENSITY_FACTORIES:
            original = getattr(carleson, attr)
            self._replace_everywhere(original, self._density_factory(original))
        jets = sys.modules["chordalqc.jets"]
        for attr in _COUNTED:
            original = getattr(jets, attr)
            self._replace_everywhere(original, self._counter(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self):
        """Boundary between passes: call before each pass and once after the last."""
        self._marks.append((len(self.spans), self.jet_ops))

    def dump(self, path: str):
        fields = ("name", "op", "parent", "start", "end", "size", "nodes_n", "error")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> list:
        """Per-layer metrics of each pass between consecutive marks."""
        return [
            _pass_metrics(self.spans, a, b, jets_b - jets_a)
            for (a, jets_a), (b, jets_b) in zip(self._marks, self._marks[1:])
        ]


def _pass_metrics(spans, lo: int, hi: int, jet_ops: int) -> dict:
    child_s = {}
    children = {}
    for i in range(lo, hi):
        rec = spans[i]
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] = child_s.get(rec[PARENT], 0.0) + rec[END] - rec[START]
            children.setdefault(rec[PARENT], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_s(i):
        return dur(i) - child_s.get(i, 0.0)

    by_name = {}
    for i in range(lo, hi):
        by_name.setdefault(spans[i][NAME], []).append(i)

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def size(name):
        return sum(spans[i][SIZE] for i in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    dens = by_name.get("carleson.density", [])
    nodes = size("carleson.density")
    accepted = 0
    for i in by_name.get("carleson.box_ratio", ()):
        if spans[i][ERROR] is None:
            # node doubling: the estimate returned is the one at the largest n
            kids = [j for j in children.get(i, ()) if spans[j][NAME] == "carleson.density"]
            n_final = max((spans[j][NODES_N] for j in kids), default=0)
            accepted += sum(spans[j][SIZE] for j in kids if spans[j][NODES_N] == n_final)
    return {
        "jets.op_calls": jet_ops,
        "maps.jet_calls": len(by_name.get("maps.jet", ())),
        "schwarz.strip_weights_s": total("schwarz.strip_weights"),
        "schwarz.points_per_s": ratio(size("schwarz.strip_weights"),
                                      total("schwarz.strip_weights")),
        "loewner.tau0_scan_s": total("loewner.tau0_scan"),
        "extension.qc_report_s": total("extension.qc_report"),
        "extension.to_json_dict_s": total("extension.to_json_dict"),
        "carleson.density_calls": len(dens),
        "carleson.nodes_evaluated": nodes,
        "carleson.ns_per_node": ratio(1e9 * total("carleson.density"), nodes),
        "carleson.node_use_ratio": ratio(accepted, nodes),
        "carleson.density_self_s": sum(self_s(i) for i in dens),
        "carleson.quadrature_self_s": sum(self_s(i) for n in _QUADRATURE
                                          for i in by_name.get(n, ())),
        "carleson.boxes_failed": sum(1 for i in by_name.get("carleson.box_ratio", ())
                                     if spans[i][ERROR] == "QuadratureError"),
        "cli.serialize_s": total("cli.serialize"),
        "cli.write_mb_per_s": ratio(size("cli.write") / MB, total("cli.write")),
    }
