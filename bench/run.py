"""Benchmark of the chordalqc CLI: one workload per run, outputs checked.

    python3 bench/run.py --workload strip-scan --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process (``worker.py``) with one-thread BLAS/OpenMP pools; a few
more fresh processes time the set-up alone.  Every output of the first
pass is then checked here against the independent computations of
``checks.py``.  Standard output lists each metric with its unit and the
operations attempted and failed; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``bench/_work`` and are removed at the end, except
the span file of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def metric_units(kind: str) -> dict:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, work: str, env: dict, extra: list, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result file."""
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", work] + extra
    with open(os.path.join(work, "stderr.txt"), "w") as err:
        proc = subprocess.run(cmd, env=env, stdout=err, stderr=err,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        with open(os.path.join(work, "stderr.txt")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chordalqc", "cli.py")):
        sys.stderr.write("bench/run.py: run from the root of a chordalqc source checkout\n")
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")

    base = os.path.join(HERE, "_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = _env(root)
    try:
        setups = [_worker(args, os.path.join(work, f"setup{i}"), env, ["--setup-only"], deadline)
                  ["setup_s"] for i in range(SETUP_PROBES)]
        res = _worker(args, work, env, ["--trace"] if args.trace else [], deadline)

        import checks

        ops = workloads.build(args.workload, args.seed)
        rng = random.Random(f"checks:{args.workload}:{args.seed}")
        problems = [f"{name}: output differs between passes" for name in res["mismatches"]]
        attempted = failed = 0
        for p in res["passes"]:
            attempted += len(p["codes"])
            failed += sum(1 for c in p["codes"] if c != 0)
        for op, code in zip(ops, res["passes"][0]["codes"]):
            if code != 0:
                note = "known failure" if op.expect_failure else "UNEXPECTED failure"
                sys.stderr.write(f"{op.name}: exit {code} ({note})\n")
                continue
            path = os.path.join(work, "first", op.name + op.ext)
            try:
                problems += [f"{op.name}: {p}" for p in checks.check_op(op, path, rng)]
            except Exception as exc:  # an output the check cannot read is a wrong output
                problems.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench/run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        sys.stderr.write(f"CHECK FAILED {p}\n")
    if args.trace:
        values = res["layers"]
    else:
        # each operation's median over the passes, then the median over operations:
        # pooling single times would let the median hop between operations of similar length
        per_op = [statistics.median(times) for times in zip(*(p["op_s"] for p in res["passes"]))]
        values = {
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "wall_s": statistics.median(p["wall_s"] for p in res["passes"]),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    print(f"{args.workload} seed {args.seed}: {len(res['passes'])} passes, "
          f"{attempted} operations attempted, {failed} failed, correct: {not problems}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
