#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload abm-miss --seed 1 --seconds 20 --trace 0

The Go program is built into the build directory ($CARGO_TARGET_DIR, or
.bench_build) with its Go caches there too, so nothing is written outside
the checkout. The workload then runs in a fresh process; its last line of
standard output is the result object. A failed build exits non-zero
without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(root):
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a handful of ops: harness self-test")
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.smoke:
        cmd.append("-smoke")
    if args.trace:
        out = os.path.dirname(binary)
        cmd += ["-trace-out", os.path.join(out, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
