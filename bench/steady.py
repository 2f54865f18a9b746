"""Steadiness of the benchmark: repeated runs in fresh processes, spreads against bounds.

    python3 bench/steady.py --runs 10                      # every workload, seeds 1..10
    python3 bench/steady.py --runs 5 --workloads export --save bench/_work/a.json
    python3 bench/steady.py --compare bench/_work/a.json bench/_work/b.json

Each run is ``bench/run.py`` with the ``run_seconds`` of BENCHMARK.json and
its own seed.  For every end-to-end metric the table gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median
next to the metric's bound; a spread above a third of the bound is marked.
``--compare`` sets two saved sets side by side: the change of each median,
as a share of the first, against the bound, and the failed shares.
Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(workloads, runs: int, first_seed: int, seconds: int) -> dict:
    """{workload: [result line of each run]}."""
    out = {}
    for w in workloads:
        out[w] = []
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                raise SystemExit(f"{w} seed {seed}: run.py exited with {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.stderr.write(proc.stderr[-2000:])
                raise SystemExit(f"{w} seed {seed}: outputs failed their checks")
            out[w].append(res)
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    return out


def summary(results: list, bench: dict) -> dict:
    """Per metric: values, median, quartiles, spread; plus the failed share."""
    rows = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rows[m["name"]] = {"values": vals, "median": statistics.median(vals), "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / statistics.median(vals), "bound": m["bound"]}
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    return {"metrics": rows, "failed_shares": sorted(str(f) for f in shares)}


def print_summary(name: str, s: dict):
    print(f"{name}: failed share(s) {s['failed_shares']}")
    for metric, r in s["metrics"].items():
        flag = "" if r["spread"] <= r["bound"] / 3 else "  <-- above bound/3"
        print(f"  {metric:12s} median {r['median']:.6g}  q1 {r['q1']:.6g}  q3 {r['q3']:.6g}"
              f"  spread {r['spread']:.4f}  bound {r['bound']}{flag}")


def compare(path_a: str, path_b: str):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    bad = 0
    for w in a:
        if w not in b:
            continue
        print(f"{w}: failed shares {a[w]['failed_shares']} vs {b[w]['failed_shares']}")
        bad += a[w]["failed_shares"] != b[w]["failed_shares"]
        for metric, ra in a[w]["metrics"].items():
            rb = b[w]["metrics"][metric]
            change = (rb["median"] - ra["median"]) / ra["median"]
            worse = change > ra["bound"]
            bad += worse
            print(f"  {metric:12s} {ra['median']:.6g} -> {rb['median']:.6g}  change {change:+.4f}"
                  f"  bound {ra['bound']}{'  <-- worse than the bound' if worse else ''}")
    return 1 if bad else 0


def main(argv=None) -> int:
    bench = _bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--save", default=None, help="write the summaries to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved sets")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    results = collect(args.workloads.split(","), args.runs, args.first_seed, bench["run_seconds"])
    summaries = {w: summary(r, bench) for w, r in results.items()}
    for w, s in summaries.items():
        print_summary(w, s)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(summaries, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
