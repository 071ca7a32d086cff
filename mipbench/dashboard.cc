// dashboard_sql: clinicians refreshing dashboard panels over federated
// views. One op is one panel refresh: five SQL queries sent in-process
// through Gateway::Handle against a 4-site federated cohort + visits view on
// the in-process bus.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/table.h"
#include "federation/gateway.h"
#include "federation/master.h"

namespace mipbench {
namespace {

using mip::Rng;
using mip::Status;
using mip::engine::DataType;
using mip::engine::Schema;
using mip::engine::Table;
using mip::engine::Value;

constexpr int kSites = 4;
constexpr int64_t kCohortRowsPerSite = 20000;
constexpr int64_t kVisitRowsPerSite = 50000;
constexpr int64_t kStudyRows = 256;
constexpr int64_t kDays = 3650;
// 50 panels x 4 cache-missing queries = 200 distinct keys per pass, beyond
// the gateway's 128-entry LRU: a key's previous use is always more than 128
// keys back, so every non-headline query misses in every pass.
constexpr size_t kPanelsPerPass = 50;
constexpr int kRowsWindow = 25;

enum Query { kAgg, kGroup, kRows, kJoin, kHit, kNumQueries };
constexpr std::array<const char*, kNumQueries> kQueryNames = {
    "agg", "group", "rows", "join", "hit"};

constexpr char kHeadlineSql[] =
    "SELECT count(*) AS n, avg(age) AS mean_age FROM cohort_federated";

std::string AggSql(double score) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT count(*) AS n, avg(mmse) AS mean_mmse, sum(score) AS "
                "total FROM cohort_federated WHERE score > %.1f",
                score);
  return buf;
}
std::string GroupSql(double score) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT diagnosis, count(*) AS n, avg(age) AS mean_age, "
                "avg(mmse) AS mean_mmse FROM cohort_federated WHERE score < "
                "%.1f GROUP BY diagnosis ORDER BY diagnosis",
                score);
  return buf;
}
std::string RowsSql(int64_t first_id) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT patient_id, age, mmse FROM cohort_federated WHERE "
                "patient_id >= %lld AND patient_id < %lld ORDER BY patient_id",
                static_cast<long long>(first_id),
                static_cast<long long>(first_id + kRowsWindow));
  return buf;
}
std::string JoinSql(int64_t day) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "SELECT arm, count(*) AS n, avg(dur) AS mean_dur FROM "
                "visits_federated JOIN study ON visits_federated.patient_id = "
                "study.patient_id WHERE day >= %lld GROUP BY arm ORDER BY arm",
                static_cast<long long>(day));
  return buf;
}

/// `count` distinct draws from [0, range), in seeded order.
std::vector<int64_t> DistinctDraws(Rng* rng, int64_t range, size_t count) {
  std::vector<int64_t> all(static_cast<size_t>(range));
  std::iota(all.begin(), all.end(), 0);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->NextBounded(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

/// `count` draws from [0, range), one from each of `count` equal strata,
/// in seeded order. Every seed gets the same spread of parameter values, so
/// the work in a pass does not depend on the seed; the values themselves
/// (and so the cache keys) do.
std::vector<int64_t> StratifiedDraws(Rng* rng, int64_t range, size_t count) {
  std::vector<int64_t> out;
  const auto n = static_cast<int64_t>(count);
  for (int64_t k = 0; k < n; ++k) {
    const int64_t lo = range * k / n;
    const int64_t hi = range * (k + 1) / n;
    out.push_back(lo + static_cast<int64_t>(
                           rng->NextBounded(static_cast<uint64_t>(hi - lo))));
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->NextBounded(i)]);
  }
  return out;
}

struct SiteTables {
  Table cohort;
  Table visits;
};

SiteTables MakeSite(uint64_t seed, int site) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xDA5B + static_cast<uint64_t>(site));
  static const char* kDiagnoses[] = {"AD", "CN", "MCI"};
  Schema cs;
  (void)cs.AddField({"patient_id", DataType::kInt64});
  (void)cs.AddField({"age", DataType::kInt64});
  (void)cs.AddField({"diagnosis", DataType::kString});
  (void)cs.AddField({"mmse", DataType::kFloat64});
  (void)cs.AddField({"score", DataType::kFloat64});
  SiteTables out{Table::Empty(cs), Table::Empty(Schema())};
  const int64_t base = site * kCohortRowsPerSite;
  for (int64_t i = 0; i < kCohortRowsPerSite; ++i) {
    (void)out.cohort.AppendRow(
        {Value::Int(base + i),
         Value::Int(40 + static_cast<int64_t>(rng.NextBounded(50))),
         Value::String(kDiagnoses[rng.NextBounded(3)]),
         Value::Double(std::round(rng.NextUniform(10.0, 30.0) * 100) / 100),
         Value::Double(static_cast<double>(rng.NextBounded(10000)) * 0.1)});
  }
  Schema vs;
  (void)vs.AddField({"patient_id", DataType::kInt64});
  (void)vs.AddField({"day", DataType::kInt64});
  (void)vs.AddField({"dur", DataType::kFloat64});
  out.visits = Table::Empty(vs);
  for (int64_t i = 0; i < kVisitRowsPerSite; ++i) {
    (void)out.visits.AppendRow(
        {Value::Int(base + static_cast<int64_t>(
                               rng.NextBounded(kCohortRowsPerSite))),
         Value::Int(static_cast<int64_t>(rng.NextBounded(kDays))),
         Value::Double(5.0 + rng.NextUniform(0.0, 55.0))});
  }
  return out;
}

/// The local study arm table joined against the federated visits: a small
/// cohort spread over every site, so the cost model broadcasts it.
Table MakeStudy(uint64_t seed) {
  Rng rng(seed ^ 0x57D1);
  Schema s;
  (void)s.AddField({"patient_id", DataType::kInt64});
  (void)s.AddField({"arm", DataType::kString});
  Table t = Table::Empty(s);
  const std::vector<int64_t> ids =
      DistinctDraws(&rng, kSites * kCohortRowsPerSite, kStudyRows);
  for (size_t i = 0; i < ids.size(); ++i) {
    (void)t.AppendRow(
        {Value::Int(ids[i]), Value::String(i % 2 == 0 ? "control" : "treated")});
  }
  return t;
}

std::vector<uint8_t> SqlPayload(const std::string& sql) {
  mip::BufferWriter w;
  w.WriteString(sql);
  return w.TakeBytes();
}

class DashboardSql : public Workload {
 public:
  explicit DashboardSql(uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0xDA5B0A8D);
    const auto agg = StratifiedDraws(&rng, 10000, kPanelsPerPass);
    const auto group = StratifiedDraws(&rng, 10000, kPanelsPerPass);
    const auto rows = StratifiedDraws(
        &rng, kSites * kCohortRowsPerSite - kRowsWindow, kPanelsPerPass);
    const auto join = StratifiedDraws(&rng, kDays, kPanelsPerPass);
    for (size_t p = 0; p < kPanelsPerPass; ++p) {
      panels_.push_back({AggSql(static_cast<double>(agg[p]) * 0.1),
                         GroupSql(static_cast<double>(group[p]) * 0.1),
                         RowsSql(rows[p]), JoinSql(join[p]), kHeadlineSql});
    }
  }

  std::string Describe(size_t i) const override {
    std::string text;
    for (const std::string& sql : panels_[i]) text += sql + ";";
    return text;
  }
  size_t PassLength() const override { return panels_.size(); }

  Status Setup() override {
    gateway_.reset();
    timing_.reset();
    master_ = std::make_unique<mip::federation::MasterNode>();
    for (int s = 0; s < kSites; ++s) {
      const std::string id = "hospital_" + std::to_string(s);
      SiteTables t = MakeSite(seed_, s);
      MIP_RETURN_NOT_OK(master_->AddWorker(id).status());
      MIP_RETURN_NOT_OK(master_->LoadDataset(id, "cohort", std::move(t.cohort)));
      MIP_RETURN_NOT_OK(master_->LoadDataset(id, "visits", std::move(t.visits)));
    }
    MIP_RETURN_NOT_OK(master_->CreateFederatedView("cohort").status());
    MIP_RETURN_NOT_OK(master_->CreateFederatedView("visits").status());
    MIP_RETURN_NOT_OK(master_->local_db().PutTable("study", MakeStudy(seed_)));
    gateway_ = std::make_unique<mip::federation::Gateway>(&master_->local_db());
    // Warm the schema and statistics caches with one query per template
    // whose parameters no pass uses, so passes never hit these entries.
    for (const std::string& sql :
         {AggSql(-1.0), GroupSql(-1.0), RowsSql(-kRowsWindow), JoinSql(-1)}) {
      MIP_RETURN_NOT_OK(Send(sql).status());
    }
    MIP_ASSIGN_OR_RETURN(headline_cold_, Send(kHeadlineSql));
    first_replies_.assign(panels_.size(), {});
    return Status::OK();
  }

  void SetTracer(Tracer* tracer) override {
    if (tracer == nullptr) {
      master_->set_transport(nullptr);
      timing_.reset();
      return;
    }
    timing_ = std::make_unique<TimingTransport>(&master_->bus(), tracer);
    master_->set_transport(timing_.get());
  }

  Status RunOp(size_t pass, size_t i, Tracer* tracer,
               OpTiming* timing) override {
    std::vector<mip::Result<std::vector<uint8_t>>> replies;
    replies.reserve(kNumQueries);
    std::array<double, kNumQueries> ms{};
    const int64_t op0 = NowNs();
    {
      ScopedSpan op(tracer, "op", "panel");
      for (int q = 0; q < kNumQueries; ++q) {
        const int64_t q0 = NowNs();
        {
          ScopedSpan span(tracer, "sql", kQueryNames[q]);
          replies.push_back(Send(panels_[i][q]));
        }
        ms[q] = MsBetween(q0, NowNs());
      }
    }
    timing->op_ms = MsBetween(op0, NowNs());
    timing->a_ms.push_back(ms[kJoin]);
    timing->b_ms.push_back(ms[kGroup]);
    timing->c_ms.push_back(ms[kAgg]);
    ops_ += 1;

    for (int q = 0; q < kNumQueries; ++q) {
      if (!replies[q].ok()) {
        return Status::ExecutionError(std::string(kQueryNames[q]) + ": " +
                                      replies[q].status().ToString());
      }
    }
    if (tracer != nullptr) TraceEngineLayers(i, replies, tracer);
    if (replies[kHit].ValueOrDie() != headline_cold_) {
      return Status::ExecutionError("cache hit differs from its cold reply");
    }
    std::vector<std::vector<uint8_t>>& first = first_replies_[i];
    if (pass == 0) {
      for (auto& r : replies) first.push_back(std::move(r).MoveValueUnsafe());
      return Status::OK();
    }
    for (int q = 0; q < kNumQueries; ++q) {
      if (first.size() != kNumQueries || replies[q].ValueOrDie() != first[q]) {
        return Status::ExecutionError(std::string(kQueryNames[q]) +
                                      ": reply differs from the first pass");
      }
    }
    return Status::OK();
  }

  void ResetCounters() override {
    ops_ = 0;
    extra_planned_ = extra_broadcast_ = 0;
    cache0_ = gateway_->cache().stats();
    net0_ = master_->bus().stats();
    join0_ = JoinSnapshot();
  }

  std::map<std::string, double> Counters() const override {
    const auto cache = gateway_->cache().stats();
    const auto net = master_->bus().stats();
    const auto join = JoinSnapshot();
    return {
        {"ops", static_cast<double>(ops_)},
        {"gateway.queries", static_cast<double>(ops_ * kNumQueries)},
        {"gateway.hits", static_cast<double>(cache.hits - cache0_.hits)},
        {"gateway.misses", static_cast<double>(cache.misses - cache0_.misses)},
        {"net.round_trips",
         static_cast<double>(net.round_trips - net0_.round_trips)},
        {"net.bytes", static_cast<double>(net.bytes - net0_.bytes)},
        {"net.bytes_raw", static_cast<double>(net.bytes_raw - net0_.bytes_raw)},
        {"net.bytes_wire",
         static_cast<double>(net.bytes_wire - net0_.bytes_wire)},
        {"join.planned",
         static_cast<double>(join[0] - join0_[0] - extra_planned_)},
        {"join.broadcast",
         static_cast<double>(join[1] - join0_[1] - extra_broadcast_)},
        {"join.build_rows", static_cast<double>(join[2] - join0_[2])},
    };
  }

  uint64_t FirstPassDigest() const override {
    uint64_t h = kFnvBasis;
    for (const auto& panel : first_replies_) {
      for (const auto& reply : panel) {
        h = Fnv1a(h, std::string(reply.begin(), reply.end()));
      }
    }
    return h;
  }

  mip::Result<std::vector<size_t>> CheckAgainstOracle(
      std::vector<std::string>* errors) override {
    // The pooled oracle: every site's rows in one single-table Database.
    mip::engine::Database pooled("pooled");
    std::vector<Table> cohorts, visits;
    for (int s = 0; s < kSites; ++s) {
      SiteTables t = MakeSite(seed_, s);
      cohorts.push_back(std::move(t.cohort));
      visits.push_back(std::move(t.visits));
    }
    MIP_ASSIGN_OR_RETURN(Table cohort, Table::Concat(cohorts));
    MIP_ASSIGN_OR_RETURN(Table visit, Table::Concat(visits));
    MIP_RETURN_NOT_OK(pooled.PutTable("cohort_federated", std::move(cohort)));
    MIP_RETURN_NOT_OK(pooled.PutTable("visits_federated", std::move(visit)));
    MIP_RETURN_NOT_OK(pooled.PutTable("study", MakeStudy(seed_)));
    std::vector<size_t> wrong;
    for (size_t i = 0; i < panels_.size(); ++i) {
      const auto& first = first_replies_[i];
      if (first.size() != kNumQueries) continue;  // op never ran
      Status st;
      for (int q = 0; q < kNumQueries && st.ok(); ++q) {
        mip::BufferReader reader(first[q]);
        auto got = mip::engine::DeserializeTable(&reader);
        auto want = pooled.ExecuteSql(panels_[i][q]);
        if (!got.ok()) {
          st = got.status();
        } else if (!want.ok()) {
          st = want.status();
        } else {
          st = CompareTables(*got, *want, 1e-9);
        }
        if (!st.ok()) {
          st = Status::ExecutionError("panel " + std::to_string(i) + " " +
                                      kQueryNames[q] + ": " + st.ToString());
        }
      }
      if (!st.ok()) {
        wrong.push_back(i);
        errors->push_back(st.ToString());
      }
    }
    return wrong;
  }

 private:
  mip::Result<std::vector<uint8_t>> Send(const std::string& sql) {
    mip::net::Envelope env{"dashboard", "gateway", mip::federation::kGatewayRunSql,
                           "", SqlPayload(sql)};
    // A current client negotiates the columnar codecs; the transport would
    // set this flag before the handler runs.
    env.codec_ok = true;
    return gateway_->Handle(env);
  }

  std::array<uint64_t, 3> JoinSnapshot() const {
    const auto* j = master_->local_db().join_counters();
    return {j->joins_planned.load(), j->broadcast_chosen.load(),
            j->build_rows.load()};
  }

  /// Traced runs only, after the op's timed section: the engine's share of
  /// a query, timed from outside through separate calls on the same SQL
  /// (plan) and the same reply (encode).
  void TraceEngineLayers(
      size_t i,
      const std::vector<mip::Result<std::vector<uint8_t>>>& replies,
      Tracer* tracer) {
    auto& db = master_->local_db();
    for (int q = 0; q < kNumQueries; ++q) {
      const auto before = JoinSnapshot();
      {
        ScopedSpan span(tracer, "engine.plan", kQueryNames[q]);
        (void)db.TryPlanSelectSql(panels_[i][q]);
      }
      const auto after = JoinSnapshot();
      extra_planned_ += after[0] - before[0];
      extra_broadcast_ += after[1] - before[1];
      mip::BufferReader reader(replies[q].ValueOrDie());
      auto table = mip::engine::DeserializeTable(&reader);
      if (!table.ok()) continue;
      mip::BufferWriter writer;
      ScopedSpan span(tracer, "engine.encode", kQueryNames[q]);
      mip::engine::SerializeTable(*table, &writer,
                                  mip::engine::TableWireOptions{true});
    }
  }

  uint64_t seed_;
  std::vector<std::array<std::string, kNumQueries>> panels_;
  std::unique_ptr<mip::federation::MasterNode> master_;
  std::unique_ptr<mip::federation::Gateway> gateway_;
  std::unique_ptr<TimingTransport> timing_;
  std::vector<uint8_t> headline_cold_;
  std::vector<std::vector<std::vector<uint8_t>>> first_replies_;

  uint64_t ops_ = 0;
  uint64_t extra_planned_ = 0;
  uint64_t extra_broadcast_ = 0;
  mip::federation::ResultCache::Stats cache0_;
  mip::net::NetworkStats net0_;
  std::array<uint64_t, 3> join0_{};
};

}  // namespace

std::unique_ptr<Workload> MakeDashboardSql(uint64_t seed) {
  return std::make_unique<DashboardSql>(seed);
}

}  // namespace mipbench
