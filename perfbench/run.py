#!/usr/bin/env python3
"""Builds and runs the VIP simulator benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload matrix|campaign|serve --seed N \
        --seconds S --trace 0|1 [--expect DIR]

Run from the repository root. Builds three binaries from source with
cargo (offline) into $CARGO_TARGET_DIR (default .bench_build): the
benchmark (untraced), the benchmark with the `trace` feature (in
<target>/traced), and the repository's `simulate` binary. With --trace 0
it prints every end-to-end metric of BENCHMARK.json; with --trace 1 every
per-layer metric, a self-time table and the tracing overhead. The last
stdout line is the JSON result. Exits nonzero if a build fails or any
output fails its behaviour check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    builds = [
        ["--manifest-path", manifest, "--target-dir", target],
        ["--manifest-path", manifest, "--features", "trace",
         "--target-dir", os.path.join(target, "traced")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "vip-bench", "--bin", "simulate", "--target-dir", target],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_bin(binary, args):
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} {' '.join(args)} timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{binary} {' '.join(args)} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["matrix", "campaign", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--expect", default=os.path.join(HERE, "expect"),
                    help="directory of pinned expectations")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no repository sources next to perfbench/ (crates/ missing)")
    with open(spec_path) as f:
        spec = json.load(f)

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target)
    untraced = os.path.join(target, "release", "perfbench")
    traced = os.path.join(target, "traced", "release", "perfbench")
    common = [
        "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--expect", os.path.abspath(args.expect),
        "--simulate", os.path.join(target, "release", "simulate"),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]

    if args.trace == 0:
        out = run_bin(untraced, common + ["--mode", "e2e"])
        attempted, failed, metrics = out["attempted"], out["failed"], out["metrics"]
        wanted = spec["end_to_end"]
    else:
        base = run_bin(untraced, common + ["--mode", "base"])
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.json")
        tr = run_bin(traced, common + ["--mode", "trace", "--spans-out", spans])
        overhead = 100.0 * (tr["replay_s"] - base["replay_s"]) / base["replay_s"]
        print(f"replay: untraced {base['replay_s']:.3f} s, traced {tr['replay_s']:.3f} s, "
              f"tracing overhead {overhead:+.2f} %")
        attempted = base["attempted"] + tr["attempted"]
        failed = base["failed"] + tr["failed"]
        metrics = {**base["metrics"], **tr["metrics"], "bench.trace_overhead_pct": overhead}
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    correct = failed == 0 and attempted > 0
    for m in wanted:
        print(f"{m['name']:<34} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
