// disk_ingest_query: a hospital ingesting and querying its own persistent
// visit records. One op is one cycle: append a fixed-size visit batch
// (WAL write + fsync, then memtable; every 4th append crosses the default
// memtable budget and flushes), four index point lookups on the unsorted
// high-cardinality visit_id, and two zone-map-pruned range scans on the
// time column. CompactAll runs at fixed cycles. The gateway, bus and SMPC are not
// used.
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "bench.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/table.h"
#include "storage/store.h"

namespace mipbench {
namespace {

namespace fs = std::filesystem;
using mip::Status;
using mip::engine::DataType;
using mip::engine::Schema;
using mip::engine::Table;
using mip::engine::Value;

constexpr int64_t kBaseRows = 200000;
// 20480 rows x 53 estimated bytes = 1.09 MB per batch against the default
// 4 MiB memtable budget: exactly every 4th append flushes.
constexpr int64_t kBatchRows = 20480;
constexpr size_t kCyclesPerPass = 12;
constexpr size_t kCompactEvery = 12;
constexpr int64_t kScanWindowRows = 4096;
// Several queries per cycle give the query classes more samples per run.
constexpr int kLookupsPerCycle = 4;
constexpr int kScansPerCycle = 2;
constexpr int64_t kEpoch = 1700000000;  // visit times are epoch seconds
constexpr char kTable[] = "visits";
const char* const kCodes[] = {"I10.0", "E11.9", "G30.1", "F03.9",
                              "G20.0", "I63.5", "J44.1", "N18.3"};

/// Every row is a pure function of its global row index, so the checks
/// need no copy of the data: row r has time kEpoch + 60 r (ingest order),
/// a visit_id from a bijection on [0, 2^62) (unique, unsorted), and
/// seeded patient, duration and diagnosis code.
struct RowGen {
  uint64_t key;

  static uint64_t Mix62(uint64_t x) {
    constexpr uint64_t kMask = (1ull << 62) - 1;
    x &= kMask;
    x = (x * 0x9E3779B97F4A7C15ull) & kMask;  // odd multiplier: bijective
    x ^= x >> 29;                              // xorshift: bijective
    x = (x * 0xBF58476D1CE4E5B9ull) & kMask;
    x ^= x >> 31;
    return x;
  }
  int64_t Time(int64_t r) const { return kEpoch + 60 * r; }
  int64_t VisitId(int64_t r) const {
    return static_cast<int64_t>(Mix62(static_cast<uint64_t>(r) + key));
  }
  uint64_t Hash(int64_t r) const {
    return Mix62(static_cast<uint64_t>(r) ^ (key * 0x94D049BB133111EBull));
  }
  int64_t Patient(int64_t r) const {
    return static_cast<int64_t>(Hash(r) % 50000);
  }
  double Duration(int64_t r) const {
    return 5.0 + static_cast<double>((Hash(r) >> 20) % 5500) / 100.0;
  }
  const char* Code(int64_t r) const { return kCodes[(Hash(r) >> 40) % 8]; }

  Table Rows(int64_t first, int64_t count) const {
    Schema s;
    (void)s.AddField({"t", DataType::kInt64});
    (void)s.AddField({"visit_id", DataType::kInt64});
    (void)s.AddField({"patient_id", DataType::kInt64});
    (void)s.AddField({"dur", DataType::kFloat64});
    (void)s.AddField({"code", DataType::kString});
    Table t = Table::Empty(s);
    for (int64_t r = first; r < first + count; ++r) {
      (void)t.AppendRow({Value::Int(Time(r)), Value::Int(VisitId(r)),
                         Value::Int(Patient(r)), Value::Double(Duration(r)),
                         Value::String(Code(r))});
    }
    return t;
  }
};

uint64_t BytesWrittenBySelf() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// A draw from the k-th of n equal strata of [0, range). A cycle's queries
/// take one draw per stratum, so every seed spreads them alike over the base
/// segments, this pass's flushed segments and the memtable, and the work in
/// a pass does not depend on the seed.
int64_t StratumDraw(mip::Rng* rng, int64_t range, int k, int n) {
  const int64_t lo = range * k / n;
  const int64_t hi = range * (k + 1) / n;
  return lo + static_cast<int64_t>(
                  rng->NextBounded(static_cast<uint64_t>(hi - lo)));
}

struct Cycle {
  std::vector<int64_t> lookup_rows;  ///< rows whose visit_id is looked up
  std::vector<int64_t> scan_firsts;  ///< first rows of the scanned windows
};

class DiskIngestQuery : public Workload {
 public:
  DiskIngestQuery(uint64_t seed, const std::string& workdir)
      : gen_{seed * 0x2545F4914F6CDD1Dull + 17},
        root_(fs::path(workdir) / ("disk-" + std::to_string(::getpid()))) {
    mip::Rng rng(seed ^ 0xD15C);
    for (size_t i = 0; i < kCyclesPerPass; ++i) {
      // Rows present once cycle i's batch is in.
      const int64_t rows = kBaseRows + static_cast<int64_t>(i + 1) * kBatchRows;
      Cycle cycle;
      for (int k = 0; k < kLookupsPerCycle; ++k) {
        cycle.lookup_rows.push_back(
            StratumDraw(&rng, rows, k, kLookupsPerCycle));
      }
      for (int k = 0; k < kScansPerCycle; ++k) {
        cycle.scan_firsts.push_back(
            StratumDraw(&rng, rows - kScanWindowRows, k, kScansPerCycle));
      }
      cycles_.push_back(std::move(cycle));
    }
  }
  ~DiskIngestQuery() override {
    db_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string Describe(size_t i) const override {
    std::string text = "append " + std::to_string(kBatchRows);
    for (int64_t row : cycles_[i].lookup_rows) {
      text += " lookup " + std::to_string(row);
    }
    for (int64_t row : cycles_[i].scan_firsts) {
      text += " scan " + std::to_string(row);
    }
    return text + ((i + 1) % kCompactEvery == 0 ? " compact" : "");
  }
  size_t PassLength() const override { return cycles_.size(); }

  Status Setup() override {
    db_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);
    if (ec) return Status::IOError("cannot create " + root_.string());
    // The base table, bulk loaded, flushed (segments + every index) and
    // compacted; each pass starts from a copy of it.
    MIP_ASSIGN_OR_RETURN(auto store,
                         mip::storage::StorageEngine::Open(Template().string()));
    for (int64_t r = 0; r < kBaseRows; r += kBatchRows) {
      MIP_RETURN_NOT_OK(store->AppendRows(
          kTable, gen_.Rows(r, std::min(kBatchRows, kBaseRows - r))));
    }
    MIP_RETURN_NOT_OK(store->Flush());
    MIP_RETURN_NOT_OK(store->CompactAll(2));
    return Status::OK();
  }

  Status BeginPass() override {
    db_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(Live(), ec);
    fs::copy(Template(), Live(), ec);
    if (ec) return Status::IOError("cannot copy the base table: " + ec.message());
    MIP_ASSIGN_OR_RETURN(store_,
                         mip::storage::StorageEngine::Open(Live().string()));
    db_ = std::make_unique<mip::engine::Database>("hospital");
    MIP_RETURN_NOT_OK(db_->AttachStorage(store_.get()));
    rows_ = kBaseRows;
    // Warm the plan path and the file cache with queries no cycle charges.
    MIP_RETURN_NOT_OK(db_->ExecuteSql(LookupSql(0)).status());
    MIP_RETURN_NOT_OK(db_->ExecuteSql(ScanSql(0)).status());
    pass_ctr0_ = store_->Counters();
    wchar0_ = BytesWrittenBySelf();
    return Status::OK();
  }

  Status RunOp(size_t pass, size_t i, Tracer* tracer,
               OpTiming* timing) override {
    (void)pass;
    const Cycle& cycle = cycles_[i];
    const Table batch = gen_.Rows(rows_, kBatchRows);
    std::vector<std::string> lookup_sql, scan_sql;
    for (int64_t row : cycle.lookup_rows) lookup_sql.push_back(LookupSql(row));
    for (int64_t row : cycle.scan_firsts) scan_sql.push_back(ScanSql(row));
    const bool compact = (i + 1) % kCompactEvery == 0;
    std::vector<mip::Result<Table>> points, scans;
    Status append_st, compact_st;

    const int64_t op0 = NowNs();
    {
      ScopedSpan op(tracer, "op", "cycle");
      auto before = store_->Counters();
      append_st = store_->AppendRows(kTable, batch);
      int64_t t = NowNs();
      auto after = store_->Counters();
      timing->a_ms.push_back(MsBetween(op0, t));
      if (tracer != nullptr) {
        tracer->Record("storage.append", op0, t,
                       after.flushes > before.flushes ? "flush" : "noflush");
      }
      for (const std::string& sql : lookup_sql) {
        before = after;
        const int64_t q0 = NowNs();
        points.push_back(db_->ExecuteSql(sql));
        t = NowNs();
        after = store_->Counters();
        timing->c_ms.push_back(MsBetween(q0, t));
        if (tracer != nullptr) tracer->Record("storage.point", q0, t, "");
        lookup_probes_ += after.index_probes - before.index_probes;
        lookup_hits_ += after.index_hits - before.index_hits;
      }
      for (const std::string& sql : scan_sql) {
        before = after;
        const int64_t q0 = NowNs();
        scans.push_back(db_->ExecuteSql(sql));
        t = NowNs();
        after = store_->Counters();
        timing->b_ms.push_back(MsBetween(q0, t));
        if (tracer != nullptr) tracer->Record("storage.scan", q0, t, "");
        scan_scanned_ += after.segments_scanned - before.segments_scanned;
        scan_pruned_ += after.segments_pruned - before.segments_pruned;
      }
      if (compact) {
        const int64_t q0 = NowNs();
        compact_st = store_->CompactAll();
        if (tracer != nullptr) {
          tracer->Record("storage.compact", q0, NowNs(), "");
        }
      }
    }
    timing->op_ms = MsBetween(op0, NowNs());

    ops_ += 1;
    user_bytes_ += mip::engine::RawTableWireBytes(batch);
    lookups_ += points.size();
    scans_ += scans.size();
    MIP_RETURN_NOT_OK(append_st);
    rows_ += kBatchRows;
    db_->BumpCatalogVersion();  // as Database::IngestDisk does
    MIP_RETURN_NOT_OK(compact_st);
    for (size_t k = 0; k < points.size(); ++k) {
      if (!points[k].ok()) return points[k].status();
      MIP_RETURN_NOT_OK(CheckLookup(*points[k], cycle.lookup_rows[k]));
    }
    for (size_t k = 0; k < scans.size(); ++k) {
      if (!scans[k].ok()) return scans[k].status();
      MIP_RETURN_NOT_OK(CheckScan(*scans[k], cycle.scan_firsts[k]));
    }
    return Status::OK();
  }

  Status EndPass() override {
    const auto c = store_->Counters();
    flushes_ += c.flushes - pass_ctr0_.flushes;
    compactions_ += c.compactions - pass_ctr0_.compactions;
    written_bytes_ += BytesWrittenBySelf() - wchar0_;
    passes_ += 1;
    // Space amplification of the finished pass: bytes on disk over the raw
    // size of every row the table holds.
    const uint64_t raw = RawBytes(rows_);
    space_amp_ = raw > 0 ? static_cast<double>(DirBytes(Live())) /
                               static_cast<double>(raw)
                         : 0.0;
    return Status::OK();
  }

  void ResetCounters() override {
    ops_ = passes_ = 0;
    flushes_ = compactions_ = 0;
    user_bytes_ = written_bytes_ = 0;
    lookups_ = lookup_probes_ = lookup_hits_ = 0;
    scans_ = scan_scanned_ = scan_pruned_ = 0;
  }

  std::map<std::string, double> Counters() const override {
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    return {
        {"ops", d(ops_)},
        {"storage.passes", d(passes_)},
        {"storage.flushes", d(flushes_)},
        {"storage.compactions", d(compactions_)},
        {"storage.user_bytes", d(user_bytes_)},
        {"storage.written_bytes", d(written_bytes_)},
        {"storage.lookups", d(lookups_)},
        {"storage.lookup_probes", d(lookup_probes_)},
        {"storage.lookup_hits", d(lookup_hits_)},
        {"storage.scans", d(scans_)},
        {"storage.scan_segments", d(scan_scanned_)},
        {"storage.scan_pruned", d(scan_pruned_)},
        {"storage.space_amp", space_amp_},
    };
  }

  mip::Result<std::vector<size_t>> CheckAgainstOracle(
      std::vector<std::string>* errors) override {
    // Every cycle is checked against the row model as it runs (the model
    // is the oracle); nothing is left for after the run.
    (void)errors;
    return std::vector<size_t>{};
  }
  uint64_t FirstPassDigest() const override { return 0; }

 private:
  fs::path Template() const { return root_ / "template"; }
  fs::path Live() const { return root_ / "live"; }

  std::string LookupSql(int64_t row) const {
    return "SELECT t, visit_id, patient_id, dur, code FROM visits WHERE "
           "visit_id = " +
           std::to_string(gen_.VisitId(row));
  }
  std::string ScanSql(int64_t first) const {
    return "SELECT count(*) AS n, sum(dur) AS total FROM visits WHERE t >= " +
           std::to_string(gen_.Time(first)) +
           " AND t < " + std::to_string(gen_.Time(first + kScanWindowRows));
  }

  uint64_t RawBytes(int64_t rows) const {
    // Rows are fixed-width apart from the 5-letter code, so the raw size is
    // linear in the row count.
    const Table one = gen_.Rows(0, 1);
    const Table two = gen_.Rows(0, 2);
    const uint64_t b1 = mip::engine::RawTableWireBytes(one);
    const uint64_t per_row = mip::engine::RawTableWireBytes(two) - b1;
    return b1 + per_row * static_cast<uint64_t>(rows - 1);
  }

  Status CheckLookup(const Table& got, int64_t row) const {
    const Status st = CompareTables(got, gen_.Rows(row, 1), 0.0);
    if (st.ok()) return st;
    return Status::ExecutionError("lookup of row " + std::to_string(row) +
                                  ": " + st.ToString());
  }

  Status CheckScan(const Table& got, int64_t first) const {
    double want_sum = 0.0;
    for (int64_t r = first; r < first + kScanWindowRows; ++r) {
      want_sum += gen_.Duration(r);
    }
    if (got.num_rows() != 1 || got.num_columns() != 2 ||
        got.At(0, 0).int_value() != kScanWindowRows ||
        !Close(got.At(0, 1).double_value(), want_sum, 1e-9)) {
      return Status::ExecutionError("range scan at row " +
                                    std::to_string(first) + " is wrong");
    }
    return Status::OK();
  }

  RowGen gen_;
  fs::path root_;
  std::vector<Cycle> cycles_;
  std::unique_ptr<mip::storage::StorageEngine> store_;
  std::unique_ptr<mip::engine::Database> db_;
  int64_t rows_ = 0;

  mip::engine::StorageCounters pass_ctr0_;
  uint64_t wchar0_ = 0;
  uint64_t ops_ = 0, passes_ = 0;
  uint64_t flushes_ = 0, compactions_ = 0;
  uint64_t user_bytes_ = 0, written_bytes_ = 0;
  uint64_t lookups_ = 0, lookup_probes_ = 0, lookup_hits_ = 0;
  uint64_t scans_ = 0, scan_scanned_ = 0, scan_pruned_ = 0;
  double space_amp_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeDiskIngestQuery(uint64_t seed,
                                              const std::string& workdir) {
  return std::make_unique<DiskIngestQuery>(seed, workdir);
}

}  // namespace mipbench
