#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in its own process.

    python3 perf/run.py --workload gen|repro|serve|fleet --seed N --seconds S --trace 0|1
    python3 perf/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), offline. RKVC_THREADS defaults to
min(2, available CPUs) and is never set above the CPU count. The last line
of standard output is the run's JSON result; `--workload all` runs the
four workloads one after another, each in its own process, and ends with
a summary table instead. Exits non-zero if the build or a run fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["gen", "repro", "serve", "fleet"]


def environment():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    cpus = len(os.sched_getaffinity(0))
    want = int(env.get("RKVC_THREADS", "0") or 0) or 2
    env["RKVC_THREADS"] = str(max(1, min(want, cpus)))
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perf", "Cargo.toml")]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def run_all(binary, args, env):
    rows = []
    for w in WORKLOADS:
        out = subprocess.run([binary, "--workload", w] + args, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{w}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        rows.append((w, res))
    for w, res in rows:
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main():
    args = sys.argv[1:]
    env = environment()
    code = build(env)
    if code != 0:
        print("build failed", file=sys.stderr)
        return code or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "rkvc-perf")
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            return run_all(binary, args[:i] + args[i + 2:], env)
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
