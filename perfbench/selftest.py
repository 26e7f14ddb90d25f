#!/usr/bin/env python3
"""Self-tests of the benchmark itself (run from the repository root):

    python3 perfbench/selftest.py

1. A tiny run of each workload prints every end-to-end metric of
   BENCHMARK.json with its unit, and passes its behaviour checks.
2. Corrupting one pinned expectation of each workload makes the command
   exit nonzero with "correct": false.
3. The exact per-layer counts repeat bit-for-bit across two tiny traced
   runs of the same seed.

Scratch copies of the expectations go under $CARGO_TARGET_DIR (default
.bench_build). Exits nonzero on the first failed test.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["matrix", "campaign", "serve"]
SEED = 1
EXACT = [
    "desim.events_per_sim_ms", "desim.events.source", "desim.events.cpu_done",
    "desim.events.mem_tick", "desim.events.compute_done", "desim.events.sa_arrival",
    "desim.events.background", "desim.events.rollback", "alloc.count_per_sim_ms",
    "dram.bytes_per_sim_ms", "soc.sa_bytes_per_sim_ms", "bench.serve.hit_ratio",
    "bench.serve.busiest_worker_share",
]


def run(workload, trace=0, expect=None):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    if expect:
        cmd += ["--expect", expect]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def corrupt(path, match):
    """Flips the last digit of the first line whose fields start with `match`."""
    with open(path) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if line.split()[:len(match)] == match:
            last = line.rstrip()[-1]
            lines[i] = line.rstrip()[:-1] + ("1" if last == "0" else "0") + "\n"
            break
    else:
        sys.exit(f"selftest: no pinned line {match} in {path}")
    with open(path, "w") as f:
        f.writelines(lines)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for w in WORKLOADS:
        code, out = run(w)
        got = {k: v["unit"] for k, v in (out or {}).get("metrics", {}).items()}
        check(code == 0 and out["correct"] and got == units,
              f"{w}: tiny run prints every end-to-end metric with its unit")

    # The first operation of variant SEED % 16 in each workload's file.
    v = SEED % 16
    targets = {
        "matrix": ("matrix.txt", [hex(0x11E5CA + v)]),
        "campaign": ("campaign.txt", [hex(0xCA4D0000 + v), "0"]),
        "serve": ("serve.txt", ["0", "0"]),
    }
    scratch = os.path.join(os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))), "selftest-expect")
    for w, (name, match) in targets.items():
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "expect"), scratch)
        corrupt(os.path.join(scratch, name), match)
        code, out = run(w, expect=scratch)
        check(code != 0 and out is not None and not out["correct"],
              f"{w}: a corrupted pinned expectation fails the run")
    shutil.rmtree(scratch, ignore_errors=True)

    for w in WORKLOADS:
        (c1, a), (c2, b) = run(w, trace=1), run(w, trace=1)
        same = c1 == 0 and c2 == 0 and all(
            a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in EXACT)
        check(same, f"{w}: exact per-layer counts repeat across two traced runs")


if __name__ == "__main__":
    main()
