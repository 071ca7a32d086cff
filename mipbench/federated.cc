// federated_analysis: researchers running federated experiments. One op is
// one experiment workflow (descriptive + Pearson + linear regression +
// one-way ANOVA over a seeded variable subset), run once with plain
// aggregation and then once through SMPC, over 4 dementia sites whose sizes
// follow the Alzheimer's case study (the largest site is the straggler).
#include <algorithm>
#include <array>

#include "algorithms/anova.h"
#include "algorithms/descriptive.h"
#include "algorithms/linear_regression.h"
#include "algorithms/pearson.h"
#include "bench.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "federation/master.h"

namespace mipbench {
namespace {

using mip::Status;
using mip::federation::AggregationMode;
using mip::federation::FederationSession;
using mip::federation::MasterNode;

// Site sizes are the case study's (1960/1032/1103/1066 patients) times this
// factor: hospital-scale cohorts with the study's size ratios, large enough
// that data work rather than thread wake-ups dominates a fan-out step.
constexpr int64_t kSiteScale = 10;
const std::vector<std::string> kVariables = {
    "age",        "mmse",    "left_hippocampus", "right_hippocampus",
    "left_entorhinal_area", "lateral_ventricles", "abeta42", "p_tau"};
const std::vector<std::string> kLevels = {"AD", "CN", "MCI"};
constexpr std::array<const char*, 4> kAlgorithms = {"descriptive", "pearson",
                                                    "linreg", "anova"};

std::vector<mip::engine::Table> MakeCohorts(uint64_t seed) {
  std::vector<mip::engine::Table> out;
  const auto sites = mip::data::AlzheimerCaseStudySites();
  for (size_t s = 0; s < sites.size(); ++s) {
    mip::data::DementiaCohortConfig config;
    config.num_patients = sites[s].patients * kSiteScale;
    config.seed = seed * 7919 + 1000 * s;
    config.site_volume_bias = 0.03 * (static_cast<double>(s) - 1.5);
    auto cohort = mip::data::GenerateDementiaCohort(config);
    out.push_back(cohort.ok() ? std::move(cohort).MoveValueUnsafe()
                              : mip::engine::Table());
  }
  return out;
}

/// Flattened statistics of one workflow, in a fixed order, for the checks.
using Summary = std::vector<double>;

class FederatedAnalysis : public Workload {
 public:
  explicit FederatedAnalysis(uint64_t seed) : seed_(seed) {
    // A seeded order of the variables; workflow k takes positions k, k+1
    // and k+3 (mod 8), so every variable is the target of one workflow and
    // a covariate of two in each pass, whatever the seed.
    mip::Rng rng(seed ^ 0xFEDA7A11);
    std::vector<std::string> order = kVariables;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    for (size_t k = 0; k < order.size(); ++k) {
      ops_vars_.push_back({order[k], order[(k + 1) % order.size()],
                           order[(k + 3) % order.size()]});
    }
  }

  std::string Describe(size_t i) const override {
    std::string text = "workflow";
    for (const std::string& v : ops_vars_[i]) text += " " + v;
    return text;
  }
  size_t PassLength() const override { return ops_vars_.size(); }

  Status Setup() override {
    timing_.reset();
    master_ = std::make_unique<MasterNode>();
    MIP_RETURN_NOT_OK(LoadSites(master_.get(), seed_));
    // Warm-up: one plain and one secure workflow (fan-out pool, SMPC
    // dealer and codec state), with a variable set no pass is charged for.
    Summary ignored;
    MIP_RETURN_NOT_OK(RunWorkflow(master_.get(), {"age", "mmse", "p_tau"},
                                  AggregationMode::kPlain, nullptr, &ignored));
    MIP_RETURN_NOT_OK(RunWorkflow(master_.get(), {"age", "mmse", "p_tau"},
                                  AggregationMode::kSecure, nullptr, &ignored));
    first_plain_.assign(ops_vars_.size(), {});
    first_secure_.assign(ops_vars_.size(), {});
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
    Summary plain, secure;
    double secure_descriptive_ms = 0.0;
    const int64_t op0 = NowNs();
    Status plain_st, secure_st;
    {
      ScopedSpan op(tracer, "op", "workflow");
      const auto net0 = master_->bus().stats();
      const int64_t p0 = NowNs();
      plain_st = RunWorkflow(master_.get(), ops_vars_[i],
                             AggregationMode::kPlain, tracer, &plain);
      timing->a_ms.push_back(MsBetween(p0, NowNs()));
      const auto net1 = master_->bus().stats();
      plain_bytes_ += net1.bytes - net0.bytes;
      plain_bytes_raw_ += net1.bytes_raw - net0.bytes_raw;
      plain_bytes_wire_ += net1.bytes_wire - net0.bytes_wire;
      const int64_t s0 = NowNs();
      secure_st = RunWorkflow(master_.get(), ops_vars_[i],
                              AggregationMode::kSecure, tracer, &secure,
                              &secure_descriptive_ms);
      timing->b_ms.push_back(MsBetween(s0, NowNs()));
    }
    timing->op_ms = MsBetween(op0, NowNs());
    timing->c_ms.push_back(secure_descriptive_ms);
    ops_ += 1;

    MIP_RETURN_NOT_OK(plain_st);
    MIP_RETURN_NOT_OK(secure_st);
    if (plain.size() != secure.size()) {
      return Status::ExecutionError("plain and secure shapes differ");
    }
    for (size_t k = 0; k < plain.size(); ++k) {
      if (!Close(secure[k], plain[k], 1e-3, 1.0)) {
        return Status::ExecutionError(
            "secure statistic " + std::to_string(k) + " = " +
            std::to_string(secure[k]) + ", plain " + std::to_string(plain[k]));
      }
    }
    if (pass == 0) {
      first_plain_[i] = std::move(plain);
      first_secure_[i] = std::move(secure);
      return Status::OK();
    }
    if (plain != first_plain_[i] || secure != first_secure_[i]) {
      return Status::ExecutionError("result differs from the first pass");
    }
    return Status::OK();
  }

  void ResetCounters() override {
    ops_ = 0;
    plain_sessions_ = 0;
    step_ms_ = 0.0;
    step_attempts_ = 0;
    straggler_sum_ = 0.0;
    plain_bytes_ = plain_bytes_raw_ = plain_bytes_wire_ = 0;
    net0_ = master_->bus().stats();
    smpc0_ = master_->smpc().stats();
  }

  std::map<std::string, double> Counters() const override {
    const auto net = master_->bus().stats();
    const auto smpc = master_->smpc().stats();
    auto hist = [](const mip::LatencyHistogram& now,
                   const mip::LatencyHistogram& then, double* sum) {
      *sum = now.sum() - then.sum();
      return static_cast<double>(now.count() - then.count());
    };
    std::map<std::string, double> c = {
        {"ops", static_cast<double>(ops_)},
        {"secure_ops", static_cast<double>(ops_)},
        {"net.round_trips",
         static_cast<double>(net.round_trips - net0_.round_trips)},
        // Bus bytes of the plain runs only: the secure runs' messages
        // carry SMPC job ids whose length varies from session to session,
        // and their share traffic is counted by smpc.bytes.
        {"net.bytes", static_cast<double>(plain_bytes_)},
        {"net.bytes_raw", static_cast<double>(plain_bytes_raw_)},
        {"net.bytes_wire", static_cast<double>(plain_bytes_wire_)},
        {"fed.plain_sessions", static_cast<double>(plain_sessions_)},
        {"fed.step_ms", step_ms_},
        {"fed.step_attempts", static_cast<double>(step_attempts_)},
        {"fed.straggler_sum", straggler_sum_},
        {"smpc.bytes", static_cast<double>(smpc.bytes_transferred -
                                           smpc0_.bytes_transferred)},
        {"smpc.rounds", static_cast<double>(smpc.rounds - smpc0_.rounds)},
        {"smpc.triples", static_cast<double>(smpc.triples_consumed -
                                             smpc0_.triples_consumed)},
        {"smpc.field_mults",
         static_cast<double>(smpc.field_mults - smpc0_.field_mults)},
    };
    double sum = 0.0;
    c["smpc.share_calls"] = hist(smpc.share_ms, smpc0_.share_ms, &sum);
    c["smpc.share_ms"] = sum;
    c["smpc.triple_calls"] = hist(smpc.triple_ms, smpc0_.triple_ms, &sum);
    c["smpc.triple_ms"] = sum;
    c["smpc.online_calls"] = hist(smpc.online_ms, smpc0_.online_ms, &sum);
    c["smpc.online_ms"] = sum;
    c["smpc.reconstruct_calls"] =
        hist(smpc.reconstruct_ms, smpc0_.reconstruct_ms, &sum);
    c["smpc.reconstruct_ms"] = sum;
    return c;
  }

  uint64_t FirstPassDigest() const override {
    uint64_t h = kFnvBasis;
    for (const auto* runs : {&first_plain_, &first_secure_}) {
      for (const Summary& s : *runs) {
        h = Fnv1a(h, std::string(reinterpret_cast<const char*>(s.data()),
                                 s.size() * sizeof(double)));
      }
    }
    return h;
  }

  mip::Result<std::vector<size_t>> CheckAgainstOracle(
      std::vector<std::string>* errors) override {
    // The pooled oracle: all four cohorts on one site, plain aggregation.
    MasterNode pooled;
    MIP_RETURN_NOT_OK(pooled.AddWorker("pooled").status());
    MIP_ASSIGN_OR_RETURN(mip::engine::Table all,
                         mip::engine::Table::Concat(MakeCohorts(seed_)));
    MIP_RETURN_NOT_OK(pooled.LoadDataset("pooled", "dementia", std::move(all)));
    std::vector<size_t> wrong;
    for (size_t i = 0; i < ops_vars_.size(); ++i) {
      if (first_plain_[i].empty()) continue;  // op never ran
      Summary want;
      MIP_RETURN_NOT_OK(RunWorkflow(&pooled, ops_vars_[i],
                                    AggregationMode::kPlain, nullptr, &want));
      const Summary& got = first_plain_[i];
      std::string bad;
      if (got.size() != want.size()) bad = "shape";
      for (size_t k = 0; bad.empty() && k < got.size(); ++k) {
        if (!Close(got[k], want[k], 1e-9)) {
          bad = "statistic " + std::to_string(k) + " = " +
                std::to_string(got[k]) + ", pooled " + std::to_string(want[k]);
        }
      }
      if (!bad.empty()) {
        wrong.push_back(i);
        errors->push_back("workflow " + std::to_string(i) + ": " + bad);
      }
    }
    return wrong;
  }

 private:
  static Status LoadSites(MasterNode* master, uint64_t seed) {
    const auto sites = mip::data::AlzheimerCaseStudySites();
    std::vector<mip::engine::Table> cohorts = MakeCohorts(seed);
    for (size_t s = 0; s < sites.size(); ++s) {
      if (cohorts[s].num_rows() == 0) {
        return Status::ExecutionError("cohort generation failed");
      }
      MIP_RETURN_NOT_OK(master->AddWorker(sites[s].worker_id).status());
      MIP_RETURN_NOT_OK(master->LoadDataset(sites[s].worker_id, "dementia",
                                            std::move(cohorts[s])));
    }
    return Status::OK();
  }

  /// Runs the four algorithms, one session each, appending their
  /// statistics to `out`.
  Status RunWorkflow(MasterNode* master, const std::vector<std::string>& vars,
                     AggregationMode mode, Tracer* tracer, Summary* out,
                     double* descriptive_ms = nullptr) {
    const bool plain = mode == AggregationMode::kPlain;
    ScopedSpan workflow(tracer, "workflow", plain ? "plain" : "secure");
    for (const char* algo : kAlgorithms) {
      const int64_t t0 = NowNs();
      ScopedSpan span(tracer, "algo",
                      std::string(plain ? "plain." : "secure.") + algo);
      MIP_ASSIGN_OR_RETURN(FederationSession session, master->StartSession());
      MIP_RETURN_NOT_OK(RunAlgorithm(&session, algo, vars, mode, out));
      if (descriptive_ms != nullptr && algo == kAlgorithms[0]) {
        *descriptive_ms = MsBetween(t0, NowNs());
      }
      if (plain && master == master_.get()) NoteFanout(session);
    }
    return Status::OK();
  }

  static Status RunAlgorithm(FederationSession* session, const char* algo,
                             const std::vector<std::string>& vars,
                             AggregationMode mode, Summary* out) {
    const std::string name = algo;
    if (name == "descriptive") {
      mip::algorithms::DescriptiveSpec spec;
      spec.variables = vars;
      spec.mode = mode;
      MIP_ASSIGN_OR_RETURN(auto r, mip::algorithms::RunDescriptive(session, spec));
      for (const auto& row : r.federated) {
        out->insert(out->end(),
                    {static_cast<double>(row.datapoints),
                     static_cast<double>(row.na), row.mean, row.se, row.min,
                     row.max});
      }
    } else if (name == "pearson") {
      mip::algorithms::PearsonSpec spec;
      spec.variables = vars;
      spec.mode = mode;
      MIP_ASSIGN_OR_RETURN(auto r, mip::algorithms::RunPearson(session, spec));
      out->push_back(static_cast<double>(r.n));
      for (size_t a = 0; a < vars.size(); ++a) {
        for (size_t b = a + 1; b < vars.size(); ++b) {
          out->push_back(r.correlations(a, b));
        }
      }
    } else if (name == "linreg") {
      mip::algorithms::LinearRegressionSpec spec;
      spec.target = vars[0];
      spec.covariates.assign(vars.begin() + 1, vars.end());
      spec.mode = mode;
      MIP_ASSIGN_OR_RETURN(auto r,
                           mip::algorithms::RunLinearRegression(session, spec));
      out->push_back(static_cast<double>(r.n));
      out->push_back(r.r_squared);
      for (const auto& c : r.coefficients) {
        out->insert(out->end(), {c.estimate, c.std_error});
      }
    } else {
      mip::algorithms::AnovaOneWaySpec spec;
      spec.outcome = vars[0];
      spec.factor = "diagnosis";
      spec.levels = kLevels;
      spec.mode = mode;
      MIP_ASSIGN_OR_RETURN(auto r, mip::algorithms::RunAnovaOneWay(session, spec));
      for (size_t l = 0; l < r.levels.size(); ++l) {
        out->insert(out->end(), {static_cast<double>(r.level_counts[l]),
                                 r.level_means[l]});
      }
      out->push_back(r.f_statistic);
    }
    return Status::OK();
  }

  /// Per-worker round trips of a finished plain session: the mean local
  /// step, and how far the slowest worker trailed the median one.
  void NoteFanout(const FederationSession& session) {
    std::vector<double> ms;
    for (const auto& report : session.CumulativeReports()) {
      ms.push_back(report.elapsed_ms);
      step_ms_ += report.elapsed_ms;
      step_attempts_ += static_cast<uint64_t>(report.attempts);
    }
    if (ms.empty()) return;
    std::sort(ms.begin(), ms.end());
    const double median = ms.size() % 2 == 1
                              ? ms[ms.size() / 2]
                              : (ms[ms.size() / 2 - 1] + ms[ms.size() / 2]) / 2;
    if (median > 0) straggler_sum_ += ms.back() / median;
    plain_sessions_ += 1;
  }

  uint64_t seed_;
  std::vector<std::vector<std::string>> ops_vars_;
  std::unique_ptr<MasterNode> master_;
  std::unique_ptr<TimingTransport> timing_;
  std::vector<Summary> first_plain_;
  std::vector<Summary> first_secure_;

  uint64_t ops_ = 0;
  uint64_t plain_sessions_ = 0;
  double step_ms_ = 0.0;
  uint64_t step_attempts_ = 0;
  double straggler_sum_ = 0.0;
  uint64_t plain_bytes_ = 0, plain_bytes_raw_ = 0, plain_bytes_wire_ = 0;
  mip::net::NetworkStats net0_;
  mip::smpc::SmpcCostStats smpc0_;
};

}  // namespace

std::unique_ptr<Workload> MakeFederatedAnalysis(uint64_t seed) {
  return std::make_unique<FederatedAnalysis>(seed);
}

}  // namespace mipbench
