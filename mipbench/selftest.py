#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 mipbench/selftest.py

Checks that
  * the same seed gives the same op-sequence hash and another seed another;
  * the exact per-layer counts repeat exactly across traced runs of
    different lengths;
  * every metric BENCHMARK.json names is emitted, with its unit, and every
    run is correct.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

EXACT = ("fed.remote_calls_per_op", "fed.bytes_per_op", "smpc.rounds_per_op",
         "smpc.triples_per_op", "storage.flushes", "storage.compactions",
         "storage.space_amp")

failures = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def op_hash(workload, seed):
    out = subprocess.run([run.DRIVER, "--workload", workload, "--seed",
                          str(seed), "--describe"], stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(out.stdout)["op_sequence_hash"]


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, specs, kind):
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s %s result has exactly the keys correct, attempted, failed, "
          "metrics (has %s)" % (workload, kind, sorted(result)))
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          "%s %s run is correct (%d attempted, %d failed)" % (
              workload, kind, result["attempted"], result["failed"]))
    emitted = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in emitted]
    wrong_unit = [s["name"] for s in specs if s["name"] in emitted
                  and emitted[s["name"]]["unit"] != s["unit"]]
    extra = sorted(set(emitted) - {s["name"] for s in specs})
    check(not missing and not wrong_unit and not extra,
          "%s emits every %s metric with its unit (missing %s, wrong unit "
          "%s, not in BENCHMARK.json %s)" % (workload, kind, missing,
                                             wrong_unit, extra))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    for w in (x["name"] for x in bench["workloads"]):
        h1, h1b, h2 = op_hash(w, 1), op_hash(w, 1), op_hash(w, 2)
        check(h1 == h1b, "%s: seed 1 gives one op-sequence hash (%s)" % (w, h1))
        check(h1 != h2, "%s: seed 2 gives another (%s)" % (w, h2))

        check_metrics(w, bench_run(w, 5, 3, 0), bench["end_to_end"],
                      "end-to-end")
        short = bench_run(w, 5, 2, 1)
        longer = bench_run(w, 5, 5, 1)
        check_metrics(w, short, bench["per_layer"], "per-layer")
        for name in EXACT:
            a = short["metrics"].get(name, {}).get("value")
            b = longer["metrics"].get(name, {}).get("value")
            check(a is not None and a == b,
                  "%s: %s repeats exactly (%r vs %r)" % (w, name, a, b))
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
