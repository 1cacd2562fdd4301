#!/usr/bin/env python3
"""Builds and runs the store's benchmark (tcbench).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds tcbench from the repository sources into .bench_build/ (the first run
compiles the store; later runs only relink what changed), runs one workload
and passes its output through. The last line of standard output is the JSON
result; the exit code is tcbench's (non-zero when an output check fails).

    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

runs every workload untraced and prints each one's end-to-end metrics, by
name and unit, in one table. Add --smoke for the small, fast configuration
the benchmark's own tests use.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
WORKLOADS = ["ingest_upsert", "scan_cold", "lookup_mixed"]
RUN_TIMEOUT_S = 175

# The issue-level end-to-end metrics, by the workload that measures them.
ISSUE_METRICS = {
    "all": ["setup_s", "failed_op_ratio", "peak_rss_mib", "storage_bytes_per_raw_byte"],
    "ingest_upsert": ["ingest_records_per_s", "ingest_ack_p50_ms", "ingest_ack_p99_ms"],
    "scan_cold": ["scan_round_p50_s"],
    "lookup_mixed": ["lookup_ops_per_s", "get_p50_us", "get_p99_us",
                     "upsert_p50_us", "upsert_p99_us"],
}


def build():
    """Configures (once) and builds tcbench; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
                return None
    return BUILD / "tcbench"


def run_one(exe, workload, seed, seconds, trace, smoke, capture):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(RUNS)]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None


def run_all(exe, args):
    """Every workload, untraced; prints the issue-level metrics per workload."""
    ok = True
    rows = []
    for w in WORKLOADS:
        p = run_one(exe, w, args.seed, args.seconds, 0, args.smoke, capture=True)
        if p is None:
            return 1
        sys.stdout.write("".join(line + "\n" for line in p.stdout.splitlines()
                                 if line.startswith(("check failed", "plan "))))
        report = RUNS / f"report-{w}-{args.seed}-trace0.json"
        metrics = json.loads(report.read_text())["metrics"]
        for name in ISSUE_METRICS["all"] + ISSUE_METRICS[w]:
            m = metrics[name]
            rows.append((w, name, m["value"], m["unit"]))
        ok = ok and p.returncode == 0
    width = max(len(r[1]) for r in rows)
    for w, name, value, unit in rows:
        print(f"{w:14s} {name:{width}s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    RUNS.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(exe, args)
    p = run_one(exe, args.workload, args.seed, args.seconds, args.trace, args.smoke,
                capture=False)
    return 1 if p is None else p.returncode


if __name__ == "__main__":
    sys.exit(main())
