// run: bulk offload. Each app's fixed expert design (App::manual_config,
// never a DSE result, so a change to exploration cannot move this
// workload) runs a whole batch of seeded input through
// BlazeRuntime::Map/Reduce, and the JVM-baseline interpreter runs a fixed
// subset of the same records. kir execution, serialization and the JVM
// interpreter do nearly all the work at full batch fill; DSE and serving
// bookkeeping do none.
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "blaze/serialization.h"
#include "calibrate.h"
#include "kir/eval.h"
#include "obs/obs.h"
#include "s2fa/framework.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace s2fa;

// Records interpreted per JVM-baseline call.
constexpr std::size_t kJvmRecords = 8;
// Per app per round, offloads (and JVM calls) repeat until they have taken
// this long, at least once each: cheap apps get many samples per round.
constexpr double kOffloadRoundUs = 100e3;
constexpr double kJvmRoundUs = 20e3;

struct Target {
  apps::App app;
  bool reduce = false;
  std::size_t batch = 0;
  blaze::Dataset input;
  blaze::Dataset broadcast;
  bool has_broadcast = false;
  blaze::Dataset expected;  // App::reference over `input`
  blaze::Dataset jvm_input;
  blaze::Dataset jvm_expected;
  // Measured per round.
  std::vector<double> map_us_per_record;
  std::vector<double> jvm_us_per_record;
  // Modeled cost of the first Map/Reduce; every later one must match.
  blaze::ExecutionStats stats;
  bool have_stats = false;
  blaze::Dataset last_output;
  // From the traced replay.
  double steps_per_record = 0;

  const blaze::Dataset* bc() const {
    return has_broadcast ? &broadcast : nullptr;
  }
};

class OffloadWorkload : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    std::vector<apps::App> all;
    {
      ScopedSpan span("apps:AllApps");
      all = apps::AllApps();
    }
    for (apps::App& app : all) {
      Target t;
      Artifact artifact;
      {
        ScopedSpan span("s2fa:BuildWithConfig");
        artifact = BuildWithConfig(*app.pool, app.spec, app.manual_config);
      }
      {
        ScopedSpan span("blaze:RegisterWithBlaze");
        RegisterWithBlaze(runtime_, app.name, artifact);
      }
      t.reduce = app.spec.pattern == kir::ParallelPattern::kReduce;
      t.batch = static_cast<std::size_t>(artifact.plan.batch);
      // One invocation per app: a whole batch short of a seeded remainder
      // below 1/16 of it, as real datasets rarely fill the last batch.
      Rng rng(DeriveSeed(seed, std::hash<std::string>{}(app.name)));
      const std::size_t records = t.batch - rng.NextBounded(t.batch / 16);
      {
        ScopedSpan span("apps:App::make_input");
        t.input = app.make_input(records, rng);
        if (app.make_broadcast) {
          t.broadcast = app.make_broadcast(rng);
          t.has_broadcast = true;
        }
        t.jvm_input = blaze::SliceRecords(t.input, 0, kJvmRecords);
      }
      {
        ScopedSpan span("apps:App::reference");
        t.expected = app.reference(t.input, t.bc());
        t.jvm_expected = app.reference(t.jvm_input, t.bc());
      }
      t.app = std::move(app);
      targets_.push_back(std::move(t));
    }
  }

  void Round(Ledger& ledger) override {
    for (Target& t : targets_) {
      ScopedOp op(NextOp(t));
      for (double us = 0; us < kOffloadRoundUs;) us += Offload(t, ledger);
      for (double us = 0; us < kJvmRoundUs;) us += RunJvm(t, ledger);
    }
  }

  void EndToEnd(Metrics& m) const override {
    std::vector<double> map_us, jvm_us, modeled;
    std::size_t map_samples = 0, jvm_samples = 0;
    for (const Target& t : targets_) {
      map_us.push_back(Median(t.map_us_per_record));
      jvm_us.push_back(Median(t.jvm_us_per_record));
      map_samples += t.map_us_per_record.size();
      jvm_samples += t.jvm_us_per_record.size();
      modeled.push_back(t.stats.total_us /
                        static_cast<double>(t.input.num_records()));
    }
    m["host_us_per_op"] = {GeoMean(map_us), "us", Kind::kMeasured,
                           "1 record through Map/Reduce", map_samples};
    m["run_us_per_record"] = m["host_us_per_op"];
    m["jvm_us_per_record"] = {GeoMean(jvm_us), "us", Kind::kMeasured,
                              "1 record on the JVM baseline", jvm_samples};
    m["modeled_us_per_op"] = {GeoMean(modeled), "sim_us", Kind::kModeled,
                              "1 record, Blaze offload cost model",
                              targets_.size()};
    m["goodput"] = {checked_ == 0 ? 0.0
                                  : static_cast<double>(correct_) /
                                        static_cast<double>(checked_),
                    "frac", Kind::kExact, "records equal to the reference",
                    checked_};
  }

  // Replays each app's batch stage by stage: SerializeBatch, then
  // Evaluator::Run, then DeserializeBatch. The result must equal Map's.
  void TraceExtras(Ledger& ledger) override {
    for (Target& t : targets_) {
      ScopedOp op(NextOp(t));
      const blaze::RegisteredAccelerator& accel =
          runtime_.manager().Get(t.app.name);
      const std::size_t count = t.input.num_records();
      std::optional<kir::Evaluator> evaluator;
      {
        ScopedSpan span("kir:Evaluator");
        evaluator.emplace(accel.design);
      }
      kir::BufferMap buffers;
      {
        ScopedSpan span("blaze:SerializeBatch");
        blaze::SerializeBatch(accel.plan, t.input, 0, count, buffers, t.bc());
      }
      {
        ScopedSpan span("kir:Evaluator::Run");
        evaluator->Run(
            {{"N", jvm::Value::OfInt(static_cast<std::int32_t>(count))}},
            buffers);
      }
      t.steps_per_record = static_cast<double>(evaluator->last_steps()) /
                           static_cast<double>(count);
      blaze::Dataset out;
      {
        ScopedSpan span("blaze:DeserializeBatch");
        out = blaze::MakeOutputShell(accel.plan, t.reduce ? 1 : count);
        blaze::DeserializeBatch(accel.plan, buffers, 0, count, out);
      }
      ScopedSpan check("bench:check");
      ledger.Record(out.num_records(), CountMismatches(t.last_output, out, true),
                    t.app.name + ": the stage-by-stage replay differs from " +
                        (t.reduce ? "Reduce" : "Map"));
    }
  }

  void PerLayer(const std::vector<Span>& spans, const obs::MetricsSnapshot&,
                Metrics& m) const override {
    double records = 0, slots = 0, invocations = 0;
    for (const Target& t : targets_) {
      const auto n = static_cast<double>(t.input.num_records());
      records += n;
      slots += static_cast<double>(t.stats.invocations * t.batch);
      invocations += static_cast<double>(t.stats.invocations);
      m["kir.steps_per_record." + t.app.name] = {
          t.steps_per_record, "count", Kind::kExact, "1 record", 1};
    }
    m["blaze.batch_fill"] = {records / slots, "frac", Kind::kExact,
                             "records / (invocations x plan batch)",
                             targets_.size()};
    m["blaze.invocations"] = {invocations, "count", Kind::kExact,
                              "1 offload of every app", targets_.size()};
    // Per-stage costs from the replay, per record of each app.
    std::size_t evaluators = 0;
    const double compile_us = SpanTotalUs(spans, "kir:Evaluator", &evaluators);
    m["kir.compile_us"] = {compile_us / static_cast<double>(evaluators), "us",
                           Kind::kMeasured, "1 Evaluator", evaluators};
    m["blaze.serialize_us_per_record"] = {
        SpanTotalUs(spans, "blaze:SerializeBatch") / records, "us",
        Kind::kMeasured, "1 record (replay)", targets_.size()};
    m["blaze.deserialize_us_per_record"] = {
        SpanTotalUs(spans, "blaze:DeserializeBatch") / records, "us",
        Kind::kMeasured, "1 record (replay)", targets_.size()};
    // Per-app figures: the replay's Evaluator::Run and the JVM baseline.
    for (const Target& t : targets_) {
      const auto n = static_cast<double>(t.input.num_records());
      double eval_us = 0, jvm_us = 0;
      std::size_t jvm_calls = 0;
      for (const Span& s : spans) {
        if (s.op == 0 || ops_app_.count(s.op) == 0 ||
            ops_app_.at(s.op) != &t) {
          continue;
        }
        if (s.name == "kir:Evaluator::Run") eval_us += s.end_us - s.start_us;
        if (s.name == "jvm:apps::RunOnJvm") {
          jvm_us += s.end_us - s.start_us;
          ++jvm_calls;
        }
      }
      m["kir.eval_us_per_record." + t.app.name] = {
          eval_us / n, "us", Kind::kMeasured, "1 record (replay)", 1};
      m["jvm.us_per_record." + t.app.name] = {
          jvm_calls == 0 ? 0
                         : jvm_us / static_cast<double>(jvm_calls * kJvmRecords),
          "us", Kind::kMeasured, "1 record on the JVM baseline", jvm_calls};
    }
  }

  std::string ModeledDigest() const override {
    std::ostringstream out;
    out << std::hexfloat;
    for (const Target& t : targets_) {
      out << t.app.name << ' ' << t.stats.invocations << ' '
          << t.stats.total_us << ' ' << t.stats.compute_us << ' '
          << t.stats.serialize_us << ' ' << t.stats.transfer_us << '\n';
    }
    return out.str();
  }

  std::string InputDigest() const override {
    std::ostringstream out;
    for (const Target& t : targets_) {
      out << t.app.name << ' ' << Digest(t.input) << ' ' << Digest(t.broadcast)
          << '\n';
    }
    return out.str();
  }

 private:
  std::uint64_t NextOp(const Target& t) {
    ops_app_[++ops_] = &t;
    return ops_;
  }

  // One offload of the app's batch; returns its wall time.
  double Offload(Target& t, Ledger& ledger) {
    blaze::ExecutionStats stats;
    blaze::Dataset out;
    const auto start = std::chrono::steady_clock::now();
    if (t.reduce) {
      ScopedSpan span("blaze:BlazeRuntime::Reduce");
      out = runtime_.Reduce(t.app.name, t.input, t.bc(), &stats);
    } else {
      ScopedSpan span("blaze:BlazeRuntime::Map");
      out = runtime_.Map(t.app.name, t.input, t.bc(), &stats);
    }
    const double wall_us = ElapsedUs(start);
    Calibrate();
    t.map_us_per_record.push_back(wall_us /
                                  static_cast<double>(t.input.num_records()));

    ScopedSpan check("bench:check");
    const bool same_cost = !t.have_stats ||
                           (stats.total_us == t.stats.total_us &&
                            stats.invocations == t.stats.invocations);
    if (!t.have_stats) {
      t.stats = stats;
      t.have_stats = true;
    }
    // A reduce is one output for the whole input; a map, one per record.
    const std::size_t records = out.num_records();
    const std::size_t wrong =
        same_cost ? CountMismatches(t.expected, out) : records;
    ledger.Record(records, wrong,
                  t.app.name + (same_cost ? ": offloaded output differs from "
                                            "App::reference"
                                          : ": modeled cost changed between "
                                            "identical offloads"));
    checked_ += records;
    correct_ += records - wrong;
    t.last_output = std::move(out);
    return wall_us;
  }

  // One JVM-baseline call over the app's subset; returns its wall time.
  double RunJvm(Target& t, Ledger& ledger) {
    apps::JvmRunResult result;
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span("jvm:apps::RunOnJvm");
      result = apps::RunOnJvm(t.app, t.jvm_input, t.bc());
    }
    const double wall_us = ElapsedUs(start);
    Calibrate();
    t.jvm_us_per_record.push_back(wall_us / static_cast<double>(kJvmRecords));
    ScopedSpan check("bench:check");
    const std::size_t records = t.jvm_expected.num_records();
    const std::size_t wrong = CountMismatches(t.jvm_expected, result.output);
    ledger.Record(records, wrong,
                  t.app.name + ": JVM-baseline output differs from "
                               "App::reference");
    checked_ += records;
    correct_ += records - wrong;
    return wall_us;
  }

  blaze::BlazeRuntime runtime_;
  std::vector<Target> targets_;
  std::uint64_t ops_ = 0;
  std::map<std::uint64_t, const Target*> ops_app_;  // op id -> its app
  std::size_t checked_ = 0;
  std::size_t correct_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOffloadWorkload() {
  return std::make_unique<OffloadWorkload>();
}

}  // namespace perfbench
