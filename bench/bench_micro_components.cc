// Component microbenchmarks (google-benchmark): throughput of the pieces
// every DSE iteration exercises — bytecode interpretation, kernel-IR
// evaluation, the Merlin transform, the HLS estimator, design-space
// operations, serialization, and one full tuner evaluation round trip.
//
// Every run also writes the micro record ($S2FA_BENCH_OUT/micro.record.json):
// each benchmark's host ns per iteration as a measured entry, which
// `s2fa perf-diff` compares against another record from the same host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "b2c/compiler.h"
#include "bench_util.h"
#include "blaze/runtime.h"
#include "blaze/serialization.h"
#include "dse/partition.h"
#include "dse/stopping.h"
#include "hls/estimator.h"
#include "kir/eval.h"
#include "merlin/transform.h"
#include "s2fa/framework.h"
#include "tuner/space.h"

namespace {

using namespace s2fa;

struct Fixture {
  apps::App app;
  kir::Kernel kernel;
  tuner::DesignSpace space;
  tuner::EvalFn evaluate;
  merlin::DesignConfig mid_config;

  explicit Fixture(const std::string& name) : app(apps::FindApp(name)) {
    kernel = b2c::CompileKernel(*app.pool, app.spec);
    space = tuner::BuildDesignSpace(kernel);
    evaluate = MakeHlsEvaluator(kernel);
    // A representative mid-weight configuration.
    for (const kir::Stmt* loop : kernel.Loops()) {
      mid_config.loops[loop->loop_id()] = {1, 2, merlin::PipelineMode::kOn};
    }
  }
};

Fixture& Svm() {
  static Fixture fixture("SVM");
  return fixture;
}

Fixture& Aes() {
  static Fixture fixture("AES");
  return fixture;
}

void BM_BytecodeCompile(benchmark::State& state) {
  Fixture& f = Svm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b2c::CompileKernel(*f.app.pool, f.app.spec));
  }
}
BENCHMARK(BM_BytecodeCompile);

void BM_InterpreterPerRecord(benchmark::State& state) {
  Fixture& f = Svm();
  Rng rng(1);
  blaze::Dataset input = f.app.make_input(64, rng);
  Rng brng(2);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::RunOnJvm(f.app, input, &broadcast));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_InterpreterPerRecord);

void BM_KirEvalPerRecord(benchmark::State& state) {
  // The accelerator-side half of a Blaze invocation: evaluate the kernel
  // IR over one already-serialized batch (what RunBatch does per attempt,
  // minus the packing measured by BM_SerializationRoundTrip).
  Fixture& f = Svm();
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(f.kernel);
  const std::size_t records = static_cast<std::size_t>(plan.batch);
  Rng rng(9);
  blaze::Dataset input = f.app.make_input(records, rng);
  Rng brng(10);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  kir::BufferMap buffers;
  blaze::SerializeBatch(plan, input, 0, records, buffers, &broadcast);
  kir::Evaluator evaluator(f.kernel);
  const std::map<std::string, jvm::Value> scalars = {
      {"N", jvm::Value::OfInt(static_cast<std::int32_t>(records))}};
  for (auto _ : state) {
    kir::BufferMap batch = buffers;
    evaluator.Run(scalars, batch);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_KirEvalPerRecord);

void BM_SerializationRoundTrip(benchmark::State& state) {
  // Pack one batch into kernel buffers and unpack the results — the JVM
  // boundary cost the paper's method generator (§3.2) automates away.
  Fixture& f = Svm();
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(f.kernel);
  const std::size_t records = static_cast<std::size_t>(plan.batch);
  Rng rng(11);
  blaze::Dataset input = f.app.make_input(records, rng);
  Rng brng(12);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  // Output buffers come from one evaluator run; the loop then measures
  // pure (de)serialization against them.
  kir::BufferMap outputs;
  blaze::SerializeBatch(plan, input, 0, records, outputs, &broadcast);
  kir::Evaluator(f.kernel).Run(
      {{"N", jvm::Value::OfInt(static_cast<std::int32_t>(records))}},
      outputs);
  blaze::Dataset out = blaze::MakeOutputShell(plan, records);
  for (auto _ : state) {
    kir::BufferMap buffers;
    blaze::SerializeBatch(plan, input, 0, records, buffers, &broadcast);
    for (const auto& [name, values] : outputs) {
      buffers.emplace(name, values);
    }
    blaze::DeserializeBatch(plan, buffers, 0, records, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SerializationRoundTrip);

void BM_MerlinTransform(benchmark::State& state) {
  Fixture& f = Svm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(merlin::ApplyDesign(f.kernel, f.mid_config));
  }
}
BENCHMARK(BM_MerlinTransform);

void BM_HlsEstimateSmallKernel(benchmark::State& state) {
  Fixture& f = Svm();
  kir::Kernel transformed =
      merlin::ApplyDesign(f.kernel, f.mid_config).kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::EstimateHls(transformed));
  }
}
BENCHMARK(BM_HlsEstimateSmallKernel);

void BM_HlsEstimateLargeKernel(benchmark::State& state) {
  Fixture& f = Aes();
  kir::Kernel transformed =
      merlin::ApplyDesign(f.kernel, f.app.manual_config).kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::EstimateHls(transformed));
  }
}
BENCHMARK(BM_HlsEstimateLargeKernel);

void BM_FullDesignPointEvaluation(benchmark::State& state) {
  Fixture& f = Svm();
  Rng rng(3);
  for (auto _ : state) {
    tuner::Point p = f.space.RandomPoint(rng);
    benchmark::DoNotOptimize(f.evaluate(f.space.ToConfig(p)));
  }
}
BENCHMARK(BM_FullDesignPointEvaluation);

void BM_DesignSpaceMutation(benchmark::State& state) {
  Fixture& f = Aes();
  Rng rng(4);
  tuner::Point p = f.space.RandomPoint(rng);
  for (auto _ : state) {
    p = f.space.Mutate(p, rng, 2);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DesignSpaceMutation);

void BM_PartitionTraining(benchmark::State& state) {
  Fixture& f = Svm();
  std::function<double(const tuner::Point&)> log_cost =
      [&](const tuner::Point& p) {
        tuner::EvalOutcome out = f.evaluate(f.space.ToConfig(p));
        return out.feasible ? std::log(out.cost) : 30.0;
      };
  for (auto _ : state) {
    Rng rng(5);
    auto samples = dse::DrawTrainingSamples(f.space, 160, log_cost, rng);
    auto candidates = dse::RuleCandidateFactors(f.space, f.kernel);
    benchmark::DoNotOptimize(
        dse::BuildPartitions(f.space, candidates, samples, {}));
  }
}
BENCHMARK(BM_PartitionTraining);

void BM_EntropyComputation(benchmark::State& state) {
  tuner::ResultDatabase db;
  Rng rng(6);
  Fixture& f = Svm();
  for (int i = 0; i < 500; ++i) {
    db.Add(f.space.RandomPoint(rng), rng.NextDouble(1, 100), true,
           static_cast<double>(i), 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dse::UphillEntropy(db, f.space.num_factors()));
  }
}
BENCHMARK(BM_EntropyComputation);

void BM_BlazeMapBatch(benchmark::State& state) {
  Fixture& f = Svm();
  Artifact artifact =
      BuildWithConfig(*f.app.pool, f.app.spec, merlin::DesignConfig{});
  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "svm", artifact);
  Rng rng(7);
  blaze::Dataset input = f.app.make_input(1024, rng);
  Rng brng(8);
  blaze::Dataset broadcast = f.app.make_broadcast(brng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.Map("svm", input, &broadcast));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BlazeMapBatch);

// Console reporting plus record capture: every finished (non-aggregate,
// non-errored) run contributes its real-time ns per iteration.
class RecordReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iterations =
          std::max<double>(1.0, static_cast<double>(run.iterations));
      metrics[run.benchmark_name()] = {
          run.real_accumulated_time * 1e9 / iterations, "ns",
          perfbench::Kind::kMeasured, "1 iteration",
          static_cast<std::size_t>(iterations)};
    }
    ConsoleReporter::ReportRuns(report);
  }

  perfbench::Metrics metrics;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  s2fa::bench::WriteRecord("micro", perfbench::Ledger(), reporter.metrics);
  return 0;
}
