#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 mipbench/steadiness.py [--runs 10] [--workload <name> ...]
                                   [--first-seed 1] [--out <file.json>]

Runs BENCHMARK.json's command once per seed on each workload, untraced,
and reports for each metric its median, quartiles (statistics.quantiles,
n=4) and spread = (q3 - q1) / median, next to the metric's bound. A spread
under a third of the bound is the steadiness target. Run from the root of
a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"context": {
        "nproc": os.cpu_count(), "build_type": run.BUILD_TYPE,
        "MIP_THREADS": run.MIP_THREADS, **run.MALLOC_ENV,
        "run_seconds": bench["run_seconds"], "runs": args.runs,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1]}}
    ok = True
    for workload in workloads:
        results = []
        for k in range(args.runs):
            r = run_once(bench, workload, args.first_seed + k)
            if not r["correct"] or r["failed"]:
                ok = False
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, args.first_seed + k, r["correct"], r["failed"]),
                    file=sys.stderr)
            results.append(r)
            print("  seed %d (%.1f s): %s" % (args.first_seed + k, r["wall_s"], " ".join(
                "%s=%.4g" % (m["name"], r["metrics"][m["name"]]["value"])
                for m in bench["end_to_end"])), flush=True)
        report[workload] = {"run_wall_s": [r["wall_s"] for r in results]}
        print("%s (%d runs)" % (workload, len(results)), flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            s["bound"] = metric["bound"]
            s["values"] = values
            report[workload][name] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- spread"
            print("  %-14s median %12.6g  spread %6.2f%%  bound %5.1f%%%s" % (
                name, s["median"], 100 * s["spread"], 100 * metric["bound"],
                flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
