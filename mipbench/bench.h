// Shared pieces of the repository benchmark driver: the workload interface
// the run loop drives, the in-memory span recorder used by traced runs, and
// the timing transport that records every federation Send as a span.
#ifndef MIPBENCH_BENCH_H_
#define MIPBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"
#include "net/transport.h"

namespace mipbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// FNV-1a over the text that describes an operation; the op-sequence hash
/// of a run is the fold of every op's description.
inline uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;

/// \brief Span recorder for traced runs. Spans are kept in memory and
/// written as JSON lines when the run ends. The client loop is a single
/// thread, so the span it has open is a process-wide "current parent" that
/// spans recorded on other threads (fan-out Sends) attach to.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    int64_t t0 = 0;
    int64_t t1 = 0;
    std::string tag;  ///< free-form detail (message type, template, ...)
  };

  /// Opens a span on the client thread and makes it the current parent.
  void Open(const std::string& name, const std::string& tag = "");
  /// Closes the innermost open client span.
  void Close();
  /// Records a finished span under the current parent (any thread).
  void Record(const std::string& name, int64_t t0, int64_t t1,
              const std::string& tag);

  /// Writes every span plus the run's counters as JSON lines.
  mip::Status Dump(const std::string& path,
                   const std::map<std::string, double>& counters) const;

 private:
  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> next_id_{1};
  std::vector<Span> stack_;  ///< open client spans (client thread only)
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII client span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& tag = "")
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(name, tag);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// \brief Thread-safe timing wrapper installed with MasterNode::set_transport
/// in traced runs only: records each Send as a "send" span and forwards
/// everything to the wrapped transport.
class TimingTransport : public mip::net::Transport {
 public:
  TimingTransport(mip::net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  mip::Status RegisterEndpoint(const std::string& node_id,
                               Handler handler) override {
    return inner_->RegisterEndpoint(node_id, std::move(handler));
  }
  mip::Result<std::vector<uint8_t>> Send(
      mip::net::Envelope envelope) override {
    const std::string tag = envelope.type + ":" + envelope.to;
    const int64_t t0 = NowNs();
    auto reply = inner_->Send(std::move(envelope));
    tracer_->Record("send", t0, NowNs(), tag);
    return reply;
  }
  mip::net::NetworkStats stats() const override { return inner_->stats(); }
  std::map<std::string, mip::net::NetworkStats> link_stats() const override {
    return inner_->link_stats();
  }
  void ResetStats() override { inner_->ResetStats(); }
  std::map<std::string, mip::LatencyHistogram> link_histograms()
      const override {
    return inner_->link_histograms();
  }
  void set_fault_hook(mip::net::FaultHook* hook) override {
    inner_->set_fault_hook(hook);
  }
  bool SupportsCodecs(const std::string& peer_id) override {
    return inner_->SupportsCodecs(peer_id);
  }
  void MeterCodec(const std::string& from, const std::string& to,
                  uint64_t raw_bytes, uint64_t wire_bytes) override {
    inner_->MeterCodec(from, to, raw_bytes, wire_bytes);
  }

 private:
  mip::net::Transport* inner_;
  Tracer* tracer_;
};

/// Latencies of one operation. `op_ms` covers the whole op; a/b/c collect
/// samples of the workload's three classes of like operations (see
/// README.md), any number per op.
struct OpTiming {
  double op_ms = 0.0;
  std::vector<double> a_ms, b_ms, c_ms;
};

/// \brief One benchmark workload. The run loop calls Setup() several times
/// (set-up time is the median), then repeats whole passes of the seeded op
/// sequence until the measured time is used up.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Description of op `i` of a pass; folded into the op-sequence hash.
  virtual std::string Describe(size_t i) const = 0;
  virtual size_t PassLength() const = 0;

  /// Builds the system from scratch (data, load, views, indexes, warm-up),
  /// replacing any previous instance. Deterministic work only.
  virtual mip::Status Setup() = 0;
  /// Untimed reset before each pass.
  virtual mip::Status BeginPass() { return mip::Status::OK(); }
  /// Runs op `i` of pass `pass`. Timing excludes the output checks, which
  /// run afterwards in the same call; a failed or wrong op returns non-OK.
  virtual mip::Status RunOp(size_t pass, size_t i, Tracer* tracer,
                            OpTiming* timing) = 0;
  /// Untimed work after each pass (per-pass counters, state checks).
  virtual mip::Status EndPass() { return mip::Status::OK(); }
  /// Installs or removes span recording inside the system (traced runs).
  virtual void SetTracer(Tracer* tracer) { (void)tracer; }
  /// Resets the per-layer counters (start of a measured phase).
  virtual void ResetCounters() = 0;
  /// Per-layer counts since ResetCounters, for the span reducer.
  virtual std::map<std::string, double> Counters() const = 0;
  /// Checks the first pass's outputs against an independent oracle (runs
  /// after the measured phases) and returns the indices of wrong ops.
  virtual mip::Result<std::vector<size_t>> CheckAgainstOracle(
      std::vector<std::string>* errors) = 0;
  /// Digest of the first pass's outputs. Every process of one seed must
  /// produce the same outputs, so a process that skips the oracle is
  /// checked by matching the digest of one that ran it.
  virtual uint64_t FirstPassDigest() const = 0;
};

std::unique_ptr<Workload> MakeDashboardSql(uint64_t seed);
std::unique_ptr<Workload> MakeFederatedAnalysis(uint64_t seed);
std::unique_ptr<Workload> MakeDiskIngestQuery(uint64_t seed,
                                              const std::string& workdir);

/// Relative comparison used by the output checks: equal, or within `tol` of
/// the larger magnitude (with `floor` as the smallest magnitude considered).
bool Close(double a, double b, double tol, double floor = 0.0);

/// Cell-by-cell comparison: same shape and value kinds; integers, strings
/// and booleans exact, doubles within `tol` (relative).
mip::Status CompareTables(const mip::engine::Table& got,
                          const mip::engine::Table& want, double tol);

}  // namespace mipbench

#endif  // MIPBENCH_BENCH_H_
