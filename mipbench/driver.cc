// Repository benchmark driver: runs one workload for a fixed time and prints
// one JSON result line with its outcome counts and raw samples; run.py turns
// the samples of one or more such runs into the metrics (see README.md).
//
//   mipbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--oracle <0|1>] [--dump <spans.jsonl>] [--workdir <dir>]
//                   [--describe]
//
// --describe prints the seed's op sequence and its hash, and exits. With
// --trace 1 the run spends half its time untraced and half traced, writes
// the spans and per-layer counters to --dump, and leaves the per-layer
// metrics to spans.py.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace mipbench {
namespace {

// Set-up runs this many times per process; run.py reports the median.
constexpr int kSetupRepeats = 3;
constexpr size_t kMaxErrorsShown = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool oracle = true;
  bool describe = false;
  std::string dump;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      args->describe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--oracle") {
      args->oracle = value != "0";
    } else if (flag == "--dump") {
      args->dump = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double timed_s = 0.0;  ///< sum of op latencies (closed loop, one client)
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> op_ms, a_ms, b_ms, c_ms;
};

class Runner {
 public:
  Runner(Workload* w, std::vector<std::string>* errors)
      : w_(w), errors_(errors), runs_of_op_(w->PassLength(), 0) {}

  /// Repeats whole passes until `seconds` of op time have been measured.
  mip::Result<Phase> Run(double seconds, Tracer* tracer) {
    Phase phase;
    w_->ResetCounters();
    const double cpu0 = CpuSeconds();
    const int64_t wall0 = NowNs();
    while (phase.timed_s < seconds) {
      MIP_RETURN_NOT_OK(w_->BeginPass());
      for (size_t i = 0; i < w_->PassLength(); ++i) {
        OpTiming t;
        const mip::Status st = w_->RunOp(pass_, i, tracer, &t);
        phase.attempted += 1;
        runs_of_op_[i] += 1;
        if (!st.ok()) {
          phase.failed += 1;
          Note("pass " + std::to_string(pass_) + " op " + std::to_string(i) +
               ": " + st.ToString());
        }
        phase.timed_s += t.op_ms / 1e3;
        phase.op_ms.push_back(t.op_ms);
        phase.a_ms.insert(phase.a_ms.end(), t.a_ms.begin(), t.a_ms.end());
        phase.b_ms.insert(phase.b_ms.end(), t.b_ms.begin(), t.b_ms.end());
        phase.c_ms.insert(phase.c_ms.end(), t.c_ms.begin(), t.c_ms.end());
      }
      MIP_RETURN_NOT_OK(w_->EndPass());
      ++pass_;
    }
    phase.wall_s = MsBetween(wall0, NowNs()) / 1e3;
    phase.cpu_s = CpuSeconds() - cpu0;
    return phase;
  }

  /// Oracle check of the first pass; a wrong op is wrong in every pass
  /// (later passes are compared with the first), so each of its runs fails.
  mip::Result<uint64_t> WrongOps() {
    std::vector<std::string> notes;
    MIP_ASSIGN_OR_RETURN(std::vector<size_t> wrong,
                         w_->CheckAgainstOracle(&notes));
    for (const std::string& note : notes) Note("oracle: " + note);
    uint64_t total = 0;
    for (size_t i : wrong) total += runs_of_op_.at(i);
    return total;
  }

  void Note(const std::string& text) {
    if (errors_->size() < kMaxErrorsShown) errors_->push_back(text);
    ++notes_;
  }
  size_t notes() const { return notes_; }

 private:
  Workload* w_;
  std::vector<std::string>* errors_;
  std::vector<uint64_t> runs_of_op_;
  size_t pass_ = 0;
  size_t notes_ = 0;
};

void PrintSamples(const char* name, const std::vector<double>& v) {
  std::printf(", \"%s\": [", name);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", v[i]);
  }
  std::printf("]");
}

/// The result line: outcome counts and, for an untraced run, the raw
/// samples run.py turns into the end-to-end metrics.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 uint64_t digest, const std::vector<double>& setup_s,
                 const Phase* phase, double peak_rss_mb) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\"",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(digest));
  if (phase != nullptr) {
    std::printf(", \"timed_s\": %.17g, \"peak_rss_mb\": %.17g",
                phase->timed_s, peak_rss_mb);
    PrintSamples("setup_s", setup_s);
    PrintSamples("op_ms", phase->op_ms);
    PrintSamples("a_ms", phase->a_ms);
    PrintSamples("b_ms", phase->b_ms);
    PrintSamples("c_ms", phase->c_ms);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mipbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--oracle <0|1>] "
                 "[--dump <file>] [--workdir <dir>] [--describe]\n");
    return 2;
  }
  std::unique_ptr<Workload> w;
  if (args.workload == "dashboard_sql") {
    w = MakeDashboardSql(args.seed);
  } else if (args.workload == "federated_analysis") {
    w = MakeFederatedAnalysis(args.seed);
  } else if (args.workload == "disk_ingest_query") {
    w = MakeDiskIngestQuery(args.seed, args.workdir);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.describe) {
    // Op descriptions are SQL text and identifiers: no quotes to escape.
    uint64_t h = kFnvBasis;
    std::string ops;
    for (size_t i = 0; i < w->PassLength(); ++i) {
      h = Fnv1a(h, w->Describe(i));
      ops += (i == 0 ? "\"" : ", \"") + w->Describe(i) + "\"";
    }
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"op_sequence_hash\": \"%016llx\", \"ops\": [%s]}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(h), ops.c_str());
    return 0;
  }

  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const int64_t t0 = NowNs();
    const mip::Status st = w->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(t0, NowNs()) / 1e3);
  }

  std::vector<std::string> errors;
  Runner runner(w.get(), &errors);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Phase untraced;
  double peak_rss_mb = 0.0;
  if (!args.trace) {
    auto phase = runner.Run(args.seconds, nullptr);
    if (!phase.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   phase.status().ToString().c_str());
      return 1;
    }
    untraced = std::move(phase).MoveValueUnsafe();
    peak_rss_mb = PeakRssMiB();  // before the oracle allocates
    attempted = untraced.attempted;
    failed = untraced.failed;
  } else {
    // Half untraced (the overhead baseline, and the CPU share), half traced.
    auto plain = runner.Run(args.seconds / 2, nullptr);
    if (!plain.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   plain.status().ToString().c_str());
      return 1;
    }
    Tracer tracer;
    w->SetTracer(&tracer);
    auto traced = runner.Run(args.seconds / 2, &tracer);
    std::map<std::string, double> counters = w->Counters();
    w->SetTracer(nullptr);
    if (!traced.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    attempted = plain->attempted + traced->attempted;
    failed = plain->failed + traced->failed;
    counters["proc.cpu_s"] = plain->cpu_s;
    counters["proc.wall_s"] = plain->wall_s;
    counters["untraced.ops_per_s"] =
        static_cast<double>(plain->attempted) / plain->timed_s;
    counters["traced.ops_per_s"] =
        static_cast<double>(traced->attempted) / traced->timed_s;
    counters["traced.timed_s"] = traced->timed_s;
    const char* threads = std::getenv("MIP_THREADS");
    counters["mip_threads"] = threads != nullptr ? std::atof(threads) : 0.0;
    if (args.dump.empty()) {
      std::fprintf(stderr, "--trace 1 needs --dump\n");
      return 2;
    }
    const mip::Status st = tracer.Dump(args.dump, counters);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (args.oracle) {
    auto wrong = runner.WrongOps();
    if (!wrong.ok()) {
      std::fprintf(stderr, "oracle failed: %s\n",
                   wrong.status().ToString().c_str());
      return 1;
    }
    failed = std::min(attempted, failed + *wrong);
  }
  for (const std::string& e : errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  if (runner.notes() > errors.size()) {
    std::fprintf(stderr, "... %zu more\n", runner.notes() - errors.size());
  }
  PrintResult(failed == 0, attempted, failed, w->FirstPassDigest(), setup_s,
              args.trace ? nullptr : &untraced, peak_rss_mb);
  return 0;
}

}  // namespace
}  // namespace mipbench

int main(int argc, char** argv) { return mipbench::Main(argc, argv); }
