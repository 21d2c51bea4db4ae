#!/usr/bin/env python3
"""Compares two sets of benchmark runs, for example a parent commit and a change.

    python3 perf/compare.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \
        [--workloads gen,repro,serve,fleet] [--pairs 10] [--seconds 20] \
        [--trace 0|1] [--first-seed 1] [--out DIR]
    python3 perf/compare.py --load DIR

The first form runs `perf/run.py` in both checkouts, pair by pair, with
the same seed on both sides of a pair and alternating which side runs
first, and saves every result under DIR (default
`perf/out/compare-<time>`). The second form re-reads a saved DIR.

For each workload and metric it prints each side's median and quartiles
(`statistics.quantiles(n=4)`), the spread (quartile distance over the
median), and how many pairs each side won (ties count for neither). The
verdict follows the rule for claiming a gain: B wins at least nine tenths
of the pairs and the medians differ by more than A's own spread. A metric
whose median got worse by more than its bound in BENCHMARK.json is marked
WORSE; one whose spread exceeds its bound is UNRESOLVED.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perf", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed (exit {out.returncode})")
    return json.loads(lines[-1])


def collect(args):
    out = args.out or os.path.join(HERE, "out", time.strftime("compare-%Y%m%d-%H%M%S"))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(out, "BENCHMARK.json"), "w") as f:
        json.dump(bench, f)
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [("a", args.a), ("b", args.b)]
        if i % 2:
            sides.reverse()
        for w in args.workloads.split(","):
            for side, checkout in sides:
                res = run_one(os.path.abspath(checkout), w, seed, args.seconds, args.trace)
                with open(os.path.join(out, f"{side}-{w}-{i:03d}.json"), "w") as f:
                    json.dump(res, f)
                print(f"pair {i} {w} {side}: attempted {res['attempted']} failed {res['failed']}",
                      file=sys.stderr)
    return out


def load(out):
    with open(os.path.join(out, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = {}
    for name in sorted(os.listdir(out)):
        if name.count("-") < 2 or not name.endswith(".json"):
            continue
        side, rest = name.split("-", 1)
        w, i = rest[:-len(".json")].rsplit("-", 1)
        with open(os.path.join(out, name)) as f:
            runs.setdefault(w, {}).setdefault(int(i), {})[side] = json.load(f)
    return bench, runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def report(bench, runs):
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for w, pairs in runs.items():
        pairs = [p for _, p in sorted(pairs.items()) if "a" in p and "b" in p]
        if not pairs:
            continue
        share = {s: sum(p[s]["failed"] for p in pairs) / max(1, sum(p[s]["attempted"] for p in pairs))
                 for s in "ab"}
        print(f"\n## {w}: {len(pairs)} pairs, failed share A {share['a']:.6f} B {share['b']:.6f}")
        print(f"{'metric':<40} {'unit':<9} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
              f"{'A sprd':>7} {'B/A':>7} {'wins A:B':>9}  verdict")
        for name in pairs[0]["a"]["metrics"]:
            if not all(name in p[s]["metrics"] for p in pairs for s in "ab"):
                continue
            m = spec.get(name, {"better": "lower", "unit": pairs[0]["a"]["metrics"][name]["unit"]})
            a = [p["a"]["metrics"][name]["value"] for p in pairs]
            b = [p["b"]["metrics"][name]["value"] for p in pairs]
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if m["better"] == "higher" else -1
            wins_b = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            wins_a = sum(sign * (x - y) > 0 for x, y in zip(a, b))
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            worse = -sign * (ratio - 1)
            verdict = "same"
            if "bound" in m and spread > m["bound"]:
                verdict = "UNRESOLVED"
            if "bound" in m and worse > m["bound"]:
                verdict = "WORSE"
            elif wins_b >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:<40} {m['unit']:<9} {fmt(qa):>32} {fmt(qb):>32} {spread:>7.3f} "
                  f"{ratio:>7.3f} {wins_a:>4}:{wins_b:<4}  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--load")
    p.add_argument("--workloads", default="gen,repro,serve,fleet")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args()
    if args.load:
        out = args.load
    elif args.a and args.b:
        out = collect(args)
    else:
        p.error("give --a and --b, or --load")
    report(*load(out))


if __name__ == "__main__":
    main()
