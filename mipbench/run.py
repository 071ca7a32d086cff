#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs one
workload, printing one JSON result line last on stdout.

    python3 mipbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build lives in .bench_build/ (CMake,
Ninja when available); the first run configures and compiles it. An
untraced run pools the samples of FORKS driver processes into the
end-to-end metrics. With --trace 1 one driver process also writes its spans
to .bench_build/trace/ and the per-layer metrics come from spans.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "mipbench_driver")
WORKLOADS = ("dashboard_sql", "federated_analysis", "disk_ingest_query")
# Engine morsel threads, fixed so runs on any machine are alike (the
# federation fan-out pool keeps its own default size).
MIP_THREADS = "4"
# glibc raises its mmap threshold (and with it the trim threshold, to twice
# as much) the first time the process frees a large mmapped block; until
# then every op faults its large buffers in again. When that happens depends
# on allocation history: the same federated workflow took 65 ms at 0-2k page
# faults per op or 105 ms at 18k, depending on the seed. Both thresholds are
# pinned at their dynamic maxima (32 and 64 MiB), the state a long-running
# process reaches. A 4 MiB trim threshold, tried first, kept peak RSS
# steadier but trimmed and re-faulted the disk workload's buffers a seed-
# dependent number of times (0.5M or 0.9M faults, 130 or 175 ms a cycle).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
BUILD_TYPE = "RelWithDebInfo"
# An untraced run is split over this many fresh driver processes, each
# measuring an equal share of --seconds, and their samples are pooled:
# memory layout, thread placement and which fan-out thread's malloc arena
# holds how much free memory are fixed per process. One process's level (for
# the same seed, 37 or 44 ms a panel; 87 or 126 MiB peak RSS) otherwise set
# the whole run's.
FORKS = 5
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import spans  # noqa: E402


def fail(message):
    print("mipbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MIP sources next to the benchmark (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "mipbench_driver",
                   "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(args, seconds, dump, oracle=True):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--oracle", "1" if oracle else "0",
           "--workdir", os.path.join(BUILD, "work")]
    if dump:
        cmd += ["--dump", dump]
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    env = dict(os.environ, MIP_THREADS=MIP_THREADS, **MALLOC_ENV)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver timed out")
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(forks):
    """Pools the forks' samples into the end-to-end metrics. Only the first
    fork runs the oracle check; a fork whose first-pass outputs differ from
    it (digest mismatch) counts all its ops as failed."""
    for f in forks[1:]:
        if f["digest"] != forks[0]["digest"]:
            print("mipbench: outputs differ between processes",
                  file=sys.stderr)
            f["correct"] = False
            f["failed"] = f["attempted"]
    attempted = sum(f["attempted"] for f in forks)
    failed = sum(f["failed"] for f in forks)
    pooled = {k: [x for f in forks for x in f[k]]
              for k in ("setup_s", "op_ms", "a_ms", "b_ms", "c_ms")}
    metrics = {
        "setup_s": (quantile(pooled["setup_s"], 0.5), "s"),
        "ops_per_s": (attempted / sum(f["timed_s"] for f in forks), "1/s"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (quantile([f["peak_rss_mb"] for f in forks], 0.5),
                        "MiB"),
    }
    for cls in ("op", "a", "b", "c"):
        for q in (50, 90):
            metrics["%s_p%d_ms" % (cls, q)] = (
                quantile(pooled[cls + "_ms"], q / 100), "ms")
    return {"correct": all(f["correct"] for f in forks) and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    if not args.trace:
        seconds = args.seconds / FORKS
        print(json.dumps(end_to_end(
            [run_driver(args, seconds, None, oracle=(k == 0))
             for k in range(FORKS)])))
        return
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    dump = os.path.join(BUILD, "trace",
                        "%s-%d.jsonl" % (args.workload, args.seed))
    result = run_driver(args, args.seconds, dump)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in spans.reduce_file(dump).items()}}))

if __name__ == "__main__":
    main()
