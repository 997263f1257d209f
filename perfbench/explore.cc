// explore: S2FA DSE for all eight apps over many DSE seeds derived from
// the workload seed, at the paper budget (240 simulated minutes on 8
// simulated cores). Set-up compiles each kernel (b2c) and builds its design
// space and HLS evaluator; in the rounds merlin, hls, tuner, dse and the
// evaluation cache do all the work and no kernel is executed. The design
// spaces run from 10^6.1 (PR) to 10^28.4 (AES), so per-app cost differs
// widely; the host figure is a geometric mean over apps.
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "calibrate.h"
#include "dse/explorer.h"
#include "obs/obs.h"
#include "s2fa/framework.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace s2fa;

// Explorations per app per round. The best design found varies widely
// with the DSE seed, so the modeled figure needs many seeds to be steady.
constexpr int kDseSeeds = 24;

struct Target {
  kir::Kernel kernel;
  tuner::DesignSpace space;
  tuner::EvalFn evaluate;  // Merlin + HLS estimate
};

struct Outcome {
  bool feasible = false;
  double best_cost = 0;
  double time_to_best_min = 0;
  std::size_t evaluations = 0;
  std::size_t trace_points = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;

  bool operator==(const Outcome&) const = default;
};

class ExploreWorkload : public Workload {
 public:
  explicit ExploreWorkload(int exec_threads) : exec_threads_(exec_threads) {}

  // Loads the apps and prepares what every exploration of one reuses: the
  // compiled kernel, its design space and the HLS evaluator.
  void Setup(std::uint64_t seed) override {
    {
      ScopedSpan span("apps:AllApps");
      apps_ = apps::AllApps();
    }
    targets_.clear();
    for (const apps::App& app : apps_) {
      Target t;
      {
        ScopedSpan s("b2c:CompileKernel");
        t.kernel = b2c::CompileKernel(*app.pool, app.spec);
      }
      {
        ScopedSpan s("tuner:BuildDesignSpace");
        t.space = tuner::BuildDesignSpace(t.kernel);
      }
      {
        ScopedSpan s("s2fa:MakeHlsEvaluator");
        t.evaluate = MakeHlsEvaluator(t.kernel);
      }
      targets_.push_back(std::move(t));
    }
    dse_seeds_.clear();
    for (int k = 0; k < kDseSeeds; ++k) {
      dse_seeds_.push_back(DeriveSeed(seed, 0xD5E0 + k));
    }
    first_.assign(apps_.size() * dse_seeds_.size(), std::nullopt);
    host_us_.assign(apps_.size(), {});
  }

  void Round(Ledger& ledger) override {
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t k = 0; k < dse_seeds_.size(); ++k) {
        Explore(a, k, ledger);
      }
    }
  }

  void EndToEnd(Metrics& m) const override {
    std::vector<double> per_app_us, best, to_best;
    std::size_t samples = 0, feasible = 0, explorations = 0;
    for (const auto& samples_us : host_us_) {
      per_app_us.push_back(Median(samples_us));
      samples += samples_us.size();
    }
    for (const auto& outcome : first_) {
      if (!outcome) continue;
      ++explorations;
      if (!outcome->feasible) continue;
      ++feasible;
      best.push_back(outcome->best_cost);
      to_best.push_back(outcome->time_to_best_min);
    }
    const double host_us = GeoMean(per_app_us);
    const std::string op = "1 S2FA DSE of one app";
    m["host_us_per_op"] = {host_us, "us", Kind::kMeasured, op, samples};
    m["explore_ms"] = {host_us / 1000.0, "ms", Kind::kMeasured, op, samples};
    m["modeled_us_per_op"] = {GeoMean(best), "sim_us", Kind::kModeled,
                              "best design of 1 exploration", best.size()};
    m["dse_best_us"] = m["modeled_us_per_op"];
    m["dse_time_to_best_min"] = {GeoMean(to_best), "sim_min", Kind::kModeled,
                                 "1 exploration", to_best.size()};
    m["goodput"] = {explorations == 0 ? 0.0
                                      : static_cast<double>(feasible) /
                                            static_cast<double>(explorations),
                    "frac", Kind::kExact, "explorations finding a feasible "
                    "design", explorations};
  }

  void TraceExtras(Ledger&) override {}

  void PerLayer(const std::vector<Span>& spans, const obs::MetricsSnapshot&,
                Metrics& m) const override {
    double evaluations = 0, lookups = 0, hits = 0;
    for (const auto& outcome : first_) {
      if (!outcome) continue;
      evaluations += static_cast<double>(outcome->evaluations);
      lookups += static_cast<double>(outcome->cache_lookups);
      hits += static_cast<double>(outcome->cache_hits);
    }
    const double n = static_cast<double>(first_.size());
    m["dse.evaluations"] = {evaluations / n, "count", Kind::kExact,
                            "1 exploration", first_.size()};
    m["cache.hit_frac"] = {lookups > 0 ? hits / lookups : 0, "frac",
                           Kind::kExact, "1 cache lookup", first_.size()};
    std::size_t dse_calls = 0;
    const double dse_us = SpanTotalUs(spans, "dse:RunS2faDse", &dse_calls);
    const double eval_us = SpanTotalUs(spans, "s2fa:EvalFn");
    m["dse.eval_busy_frac"] = {
        dse_us > 0 ? eval_us / (dse_us * exec_threads_) : 0, "frac",
        Kind::kMeasured, "evaluator busy / (DSE wall x threads)", dse_calls};
    m["dse.train_ms"] = {SpanTotalUs(spans, "dse.train") / 1000.0, "ms",
                         Kind::kMeasured, "traced pass", dse_calls};
  }

  std::string ModeledDigest() const override {
    std::ostringstream out;
    out << std::hexfloat;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      if (!first_[i]) continue;
      const Outcome& o = *first_[i];
      out << apps_[i / dse_seeds_.size()].name << '/' << i % dse_seeds_.size()
          << ' ' << o.feasible << ' ' << o.best_cost << ' '
          << o.time_to_best_min << ' ' << o.evaluations << ' '
          << o.trace_points << ' ' << o.cache_lookups << ' ' << o.cache_hits
          << '\n';
    }
    return out.str();
  }

  std::string InputDigest() const override {
    std::ostringstream out;
    for (std::uint64_t s : dse_seeds_) out << s << '\n';
    return out.str();
  }

 private:
  void Explore(std::size_t a, std::size_t k, Ledger& ledger) {
    const apps::App& app = apps_[a];
    dse::ExplorerOptions options;  // paper budget: 240 min, 8 cores
    options.seed = dse_seeds_[k];
    options.exec_threads = exec_threads_;

    ScopedOp op(++ops_);
    const Target& t = targets_[a];
    const tuner::EvalFn evaluate = [&t](const merlin::DesignConfig& config) {
      ScopedSpan s("s2fa:EvalFn");
      return t.evaluate(config);
    };
    const auto start = std::chrono::steady_clock::now();
    dse::DseResult result;
    {
      ScopedSpan s("dse:RunS2faDse");
      result = dse::RunS2faDse(t.space, t.kernel, evaluate, options);
    }
    host_us_[a].push_back(ElapsedUs(start));
    Calibrate();

    ScopedSpan check("bench:check");
    Outcome outcome;
    outcome.feasible = result.found_feasible &&
                       std::isfinite(result.best_cost) &&
                       !result.trace.empty();
    outcome.best_cost = result.best_cost;
    outcome.time_to_best_min =
        result.trace.empty() ? 0 : result.trace.back().time_minutes;
    outcome.evaluations = result.evaluations;
    outcome.trace_points = result.trace.size();
    outcome.cache_lookups = result.cache_stats.lookups;
    outcome.cache_hits = result.cache_stats.hits;

    const std::string what = app.name + " DSE seed " + std::to_string(k);
    auto& first = first_[a * dse_seeds_.size() + k];
    if (!first) first = outcome;
    ledger.Check(outcome.feasible && outcome == *first,
                 what + (outcome.feasible
                             ? " is not deterministic: a repeat exploration "
                               "differs from the first"
                             : " found no feasible design"));
  }

  int exec_threads_;
  std::vector<apps::App> apps_;
  std::vector<Target> targets_;  // per app
  std::vector<std::uint64_t> dse_seeds_;
  // Modeled outcome of the first exploration of each (app, DSE seed).
  std::vector<std::optional<Outcome>> first_;
  std::vector<std::vector<double>> host_us_;  // per app, every exploration
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeExploreWorkload(int exec_threads) {
  return std::make_unique<ExploreWorkload>(exec_threads);
}

}  // namespace perfbench
