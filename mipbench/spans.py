#!/usr/bin/env python3
"""Span reducer: turns a traced run's dump into the per-layer table.

    python3 mipbench/spans.py .bench_build/trace/<workload>-<seed>.jsonl

The dump (written by mipbench_driver --trace 1) holds one JSON object per
span -- id, parent, name, t0/t1 in ns, tag -- and a last line with the run's
per-layer counters. A span's self time is its duration minus the part of
its interval that its child spans cover. Every metric is reported with its
base (what it was divided by); a layer the workload never enters reads 0.
"""
import collections
import json
import sys

Metric = collections.namedtuple("Metric", "value unit base")

ALGORITHMS = ("descriptive", "pearson", "linreg", "anova")
QUERIES = ("agg", "group", "rows", "join", "hit")


def load(path):
    spans, counters = [], {}
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            if "counters" in obj:
                counters = obj["counters"]
            else:
                spans.append(obj)
    return spans, counters


def covered_ns(intervals):
    """Length of the union of [t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_ns(spans):
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                for c in children.get(s["id"], ())]
        kids = [k for k in kids if k[1] > k[0]]
        out[s["id"]] = (s["t1"] - s["t0"]) - covered_ns(kids)
    return out


def ratio(num, den):
    return num / den if den else 0.0


def reduce(spans, counters):
    """Per-layer metrics: name -> Metric(value, unit, base)."""
    own = self_ns(spans)
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[(s["name"], s["tag"])].append(s)
        by_name[(s["name"], None)].append(s)
    c = collections.defaultdict(float, counters)
    m = {}

    def mean_ms(name, tag=None):
        group = by_name.get((name, tag), [])
        total = sum(s["t1"] - s["t0"] for s in group) / 1e6
        return Metric(ratio(total, len(group)), "ms",
                      "%.3f ms / %d %s spans" % (total, len(group),
                                                 name if tag is None else
                                                 name + ":" + tag))

    def per(num_key, den_key, unit, den_label):
        return Metric(ratio(c[num_key], c[den_key]), unit,
                      "%g %s / %g %s" % (c[num_key], num_key, c[den_key],
                                         den_label))

    # gateway
    m["gateway.hit_frac"] = Metric(
        ratio(c["gateway.hits"], c["gateway.hits"] + c["gateway.misses"]),
        "fraction", "%g hits / %g lookups" % (
            c["gateway.hits"], c["gateway.hits"] + c["gateway.misses"]))
    sql = by_name.get(("sql", None), [])
    sql_self = sum(own[s["id"]] for s in sql) / 1e6
    m["gateway.self_ms"] = Metric(ratio(sql_self, len(sql)), "ms",
                                  "%.3f ms outside sends / %d Handle calls"
                                  % (sql_self, len(sql)))
    for q in QUERIES:
        m["sql.%s_ms" % q] = mean_ms("sql", q)

    # engine
    m["engine.plan_ms"] = mean_ms("engine.plan")
    m["engine.encode_ms"] = mean_ms("engine.encode")
    m["join.build_rows_per_op"] = per("join.build_rows", "ops", "count", "ops")
    m["join.broadcast_frac"] = per("join.broadcast", "join.planned",
                                   "fraction", "joins planned")

    # federation
    sends = by_name.get(("send", None), [])
    send_total = sum(s["t1"] - s["t0"] for s in sends) / 1e6
    m["fed.remote_ms_per_op"] = Metric(
        ratio(send_total, c["ops"]), "ms",
        "%.3f ms in sends / %g traced ops" % (send_total, c["ops"]))
    m["fed.remote_calls_per_op"] = per("net.round_trips", "ops", "count",
                                       "ops")
    m["fed.bytes_per_op"] = per("net.bytes", "ops", "bytes", "ops")
    m["fed.codec_ratio"] = per("net.bytes_wire", "net.bytes_raw", "ratio",
                               "raw bytes")
    by_parent = collections.defaultdict(list)
    for s in sends:
        by_parent[s["parent"]].append((s["t0"], s["t1"]))
    phase = sum(covered_ns(v) for v in by_parent.values()) / 1e6
    m["fed.fanout_overlap"] = Metric(
        ratio(send_total, phase), "ratio",
        "%.3f ms summed over sends / %.3f ms wall of the remote phases"
        % (send_total, phase))
    m["fed.local_step_ms"] = per("fed.step_ms", "fed.step_attempts", "ms",
                                 "worker steps")
    m["fed.straggler_ratio"] = per("fed.straggler_sum", "fed.plain_sessions",
                                   "ratio", "plain sessions")

    # algorithms
    for mode in ("plain", "secure"):
        for a in ALGORITHMS:
            m["algo.%s.%s_ms" % (mode, a)] = mean_ms("algo", mode + "." + a)
    plain_algo = [s for a in ALGORITHMS
                  for s in by_name.get(("algo", "plain." + a), [])]
    master = sum(own[s["id"]] for s in plain_algo) / 1e6
    m["algo.master_ms"] = Metric(
        ratio(master, c["ops"]), "ms",
        "%.3f ms of plain Run* outside sends / %g traced ops"
        % (master, c["ops"]))

    # smpc
    for part in ("share", "triple", "online", "reconstruct"):
        m["smpc.%s_ms" % part] = per("smpc.%s_ms" % part,
                                     "smpc.%s_calls" % part, "ms", "calls")
    m["smpc.bytes_per_op"] = per("smpc.bytes", "secure_ops", "bytes",
                                 "secure ops")
    for part in ("rounds", "triples", "field_mults"):
        m["smpc.%s_per_op" % part] = per("smpc." + part, "secure_ops",
                                         "count", "secure ops")

    # storage
    m["storage.append_ms"] = mean_ms("storage.append", "noflush")
    m["storage.flush_ms"] = mean_ms("storage.append", "flush")
    m["storage.compact_ms"] = mean_ms("storage.compact")
    m["storage.flushes"] = per("storage.flushes", "storage.passes", "count",
                               "passes")
    m["storage.compactions"] = per("storage.compactions", "storage.passes",
                                   "count", "passes")
    m["storage.write_amp"] = per("storage.written_bytes", "storage.user_bytes",
                                 "ratio", "user bytes")
    m["storage.space_amp"] = Metric(c["storage.space_amp"], "ratio",
                                    "bytes on disk / raw bytes of the rows")
    m["storage.pruned_frac"] = Metric(
        ratio(c["storage.scan_pruned"],
              c["storage.scan_pruned"] + c["storage.scan_segments"]),
        "fraction", "%g pruned / %g segments" % (
            c["storage.scan_pruned"],
            c["storage.scan_pruned"] + c["storage.scan_segments"]))
    m["storage.segments_per_scan"] = per("storage.scan_segments",
                                         "storage.scans", "count", "scans")
    m["storage.index_probes_per_lookup"] = per(
        "storage.lookup_probes", "storage.lookups", "count", "lookups")
    m["storage.index_hit_frac"] = per("storage.lookup_hits",
                                      "storage.lookup_probes", "fraction",
                                      "probes")

    # process and tracing
    m["proc.cpu_util"] = per("proc.cpu_s", "proc.wall_s", "ratio",
                             "s wall, untraced")
    m["trace.overhead"] = Metric(
        1.0 - ratio(c["traced.ops_per_s"], c["untraced.ops_per_s"]),
        "fraction", "1 - %.4f traced / %.4f untraced ops/s"
        % (c["traced.ops_per_s"], c["untraced.ops_per_s"]))
    return m


def reduce_file(path):
    return reduce(*load(path))


def layer_table(spans):
    """Rows of (span, count, total ms, self ms) grouped by name and tag."""
    own = self_ns(spans)
    rows = collections.defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[(s["name"], s["tag"].split(":")[0])]
        row[0] += 1
        row[1] += s["t1"] - s["t0"]
        row[2] += own[s["id"]]
    return sorted(rows.items())


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: spans.py <dump.jsonl>")
    spans, counters = load(sys.argv[1])
    print("%-34s %8s %12s %12s" % ("span", "count", "total_ms", "self_ms"))
    for (name, tag), (n, total, own) in layer_table(spans):
        label = name + (":" + tag if tag else "")
        print("%-34s %8d %12.3f %12.3f" % (label, n, total / 1e6, own / 1e6))
    print()
    for name, metric in reduce(spans, counters).items():
        print("%-34s %14.6g %-8s %s" % (name, metric.value, metric.unit,
                                        metric.base))


if __name__ == "__main__":
    main()
