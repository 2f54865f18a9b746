"""One workload in a fresh process: timed set-up, closed-loop passes, result file.

``run.py`` starts this with ``PYTHONPATH=src`` and one-thread BLAS/OpenMP
pools.  An operation is one in-process ``chordalqc.cli.main`` call writing
to ``--out``; operations run one at a time.  A pass runs every operation of
the workload once, and passes repeat until ``--seconds`` have elapsed (at
least one).  The first pass keeps its outputs for the checks in ``run.py``;
every later pass must reproduce them byte for byte.

With ``--trace`` the process first runs untraced passes for half the time,
then installs the span wrappers of ``layers.py`` for the other half, then
runs the layer probes of ``probes.py`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_pass(cli, ops, outdir: str) -> dict:
    """Run every operation once; return the pass wall time, op times and exit codes."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, op.name + op.ext) for op in ops]
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)
    gc.collect()
    op_s, codes = [], []
    start = time.perf_counter()
    for op, path in zip(ops, paths):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv(path))
        except Exception as exc:  # an uncaught program error fails this operation only
            sys.stderr.write(f"{op.name}: {type(exc).__name__}: {exc}\n")
            code = -1
        op_s.append(time.perf_counter() - t0)
        codes.append(code)
    return {"wall_s": time.perf_counter() - start, "op_s": op_s, "codes": codes}


def _passes(cli, ops, work: str, seconds: float, first: dict, mismatches: set) -> list:
    """Whole passes until ``seconds`` have elapsed; outputs compared with the first pass."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        if not first:
            res = _run_pass(cli, ops, os.path.join(work, "first"))
            for op in ops:
                path = os.path.join(work, "first", op.name + op.ext)
                first[op.name] = _digest(path) if os.path.exists(path) else None
        else:
            outdir = os.path.join(work, "again")
            res = _run_pass(cli, ops, outdir)
            for op in ops:
                path = os.path.join(outdir, op.name + op.ext)
                if (_digest(path) if os.path.exists(path) else None) != first[op.name]:
                    mismatches.add(op.name)
            shutil.rmtree(outdir)
        done.append(res)
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True, help="scratch directory of this run")
    ap.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    ap.add_argument("--trace", action="store_true", help="per-layer run")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import chordalqc  # noqa: F401  (timed: a CLI user pays this import on every command)
    from chordalqc import cli
    from chordalqc.maps import parse_map_spec

    ops = workloads.build(args.workload, args.seed)
    for spec in sorted({op.opts["map"] for op in ops}):
        parse_map_spec(spec)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if not args.setup_only:
        first, mismatches = {}, set()
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = _passes(cli, ops, args.work, seconds, first, mismatches)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            import layers
            import probes

            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = []
                start = time.perf_counter()
                while not traced or time.perf_counter() - start < seconds:
                    tracer.mark()
                    traced.extend(_passes(cli, ops, args.work, 0, first, mismatches))
                tracer.mark()
            finally:
                tracer.uninstall()
            per_pass = tracer.layer_metrics()
            metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
            metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                           - statistics.median(p["wall_s"] for p in passes))
            metrics.update(probes.run_all())
            tracer.dump(os.path.join(os.path.dirname(args.work), f"trace-{args.workload}.json"))
            result["layers"] = metrics
            passes = passes + traced
        result["passes"] = passes
        result["mismatches"] = sorted(mismatches)

    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
