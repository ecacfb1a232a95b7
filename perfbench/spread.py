#!/usr/bin/env python3
"""Run a workload several times, each with another seed, and report every
metric's median, quartiles and spread (quartile distance over median).

Run from the root of the repository:

    python3 perfbench/spread.py --workload night-batch --runs 10 --trace 0

Each run is a fresh process started through run.py. The spread of each
end-to-end metric must stay within its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, walls, attempted, failed, correct = {}, [], 0, 0, True
    for k in range(args.runs):
        seed = args.first_seed + k
        start = time.time()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        walls.append(time.time() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stdout), file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append((m["value"], m["unit"]))

    print("workload=%s runs=%d seconds=%g trace=%d correct=%s attempted=%d failed=%d wall_max=%.1fs"
          % (args.workload, args.runs, seconds, args.trace, correct, attempted, failed, max(walls)))
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name in sorted(values):
        vs = [v for v, _ in values[name]]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s %s" % (name, q1, med, q3, spread,
                                                             "" if bound is None else bound, values[name][0][1]))
        if args.values:
            print("    " + " ".join("%.5g" % v for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
