// s2fa_perfbench: the repository benchmark (see README.md).
//
//   s2fa_perfbench --workload explore|run|serve|overload --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR] [--source REV]
//
// Untraced pass: runs rounds of the workload's operations for S seconds,
// setting it up afresh several times before and between them (setup_s is
// the median set-up), and reports the end-to-end metrics, with host times
// at the reference host speed (calibrate.h). With --trace 1 a traced pass
// follows: one more set-up and the same number of rounds with every span
// recorded, then the per-layer metrics and the tracing overhead. Every
// output is checked; the last stdout line is the JSON result, and the exit
// code is 1 when any check failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "calibrate.h"
#include "obs/obs.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up time is sampled through the whole run, so that slow and fast
// spells of a shared host weigh in as they do for the rounds: kFirstSetups
// set-ups before the first round, then after each round as many as fit in
// kSetupShare of that round's time (at least one).
constexpr int kFirstSetups = 5;
constexpr double kSetupShare = 0.05;
constexpr int kMinRounds = 2;
// The Chrome trace keeps the earliest spans; explore records ~800k.
constexpr std::size_t kMaxTraceSpans = 200000;

// Layers named in the per-layer metrics, by module.
const char* const kLayers[] = {"apps",  "b2c",   "blaze", "cluster", "dse",
                               "hls",   "jvm",   "kir",   "merlin",  "s2fa",
                               "stream", "svc",  "tuner", "bench"};

const char* const kApps[] = {"PR", "KMeans", "KNN", "LR",
                             "SVM", "LLS", "AES", "S-W"};

// The result line's metrics; BENCHMARK.json lists the same names.
const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s", "peak_rss_mb", "host_ref_us_per_op", "modeled_us_per_op",
      "goodput"};
  return names;
}

// Per-layer metrics every workload reports: 0 where a workload does not
// exercise the layer. Wall times stay in the full report; here they are
// shares of the traced pass, so every figure is defined on every workload.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"trace.coverage", "frac"}, {"trace.overhead", "frac"}};
    for (const char* layer : kLayers) {
      n.push_back({std::string(layer) + ".self_frac", "frac"});
    }
    for (const char* app : kApps) {
      n.push_back({std::string("kir.steps_per_record.") + app, "count"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"merlin.applies", "count"},
        {"hls.estimates", "count"},
        {"hls.infeasible_frac", "frac"},
        {"dse.evaluations", "count"},
        {"cache.hit_frac", "frac"},
        {"dse.eval_busy_frac", "frac"},
        {"blaze.batch_fill", "frac"},
        {"blaze.invocations", "count"},
        {"stream.requests_per_batch", "count"},
        {"stream.close_count_frac", "frac"},
        {"stream.close_age_frac", "frac"},
        {"stream.close_deadline_frac", "frac"},
        {"stream.shed_frac.unmeetable", "frac"},
        {"stream.shed_frac.brownout", "frac"},
        {"stream.shed_frac.retry_budget", "frac"},
        {"stream.shed_frac.queue_full", "frac"},
        {"stream.host_routed_frac", "frac"},
        {"stream.codel_engagements", "count"},
        {"cluster.failovers", "count"},
        {"cluster.rejected_full", "count"},
        {"cluster.hedges_launched", "count"},
        {"svc.hedges", "count"},
        {"stream.materialized_mb", "MiB"}};
    n.insert(n.end(), rest.begin(), rest.end());
    return n;
  }();
  return names;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string source;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "error: %s\nusage: s2fa_perfbench --workload "
               "explore|run|serve|overload --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--source REV]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source") {
      args.source = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Per-layer figures common to every workload, from the traced pass.
void CommonLayerMetrics(const std::vector<Span>& spans,
                        const s2fa::obs::MetricsSnapshot& counters,
                        double overhead, Metrics& m) {
  const std::map<std::string, double> self = SelfUsByLayer(spans);
  double total_self = 0;
  for (const auto& [layer, us] : self) total_self += us;
  for (const auto& [layer, us] : self) {
    m[layer + ".self_ms"] = {us / 1000.0, "ms", Kind::kMeasured,
                             "traced pass, all threads", 1};
  }
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double us = it == self.end() ? 0 : it->second;
    m[std::string(layer) + ".self_frac"] = {
        total_self > 0 ? us / total_self : 0, "frac", Kind::kMeasured,
        "share of traced self time", 1};
  }
  // Coverage: the share of the main thread's traced wall time that some
  // layer's span accounts for (the rest is the benchmark's own).
  const Span* pass = nullptr;
  for (const Span& s : spans) {
    if (s.name == "bench:pass") pass = &s;
  }
  double harness_us = 0;
  for (const Span& s : spans) {
    if (pass != nullptr && s.thread == pass->thread && s.layer == "bench") {
      harness_us += s.self_us;
    }
  }
  const double pass_us =
      pass == nullptr ? 0 : static_cast<double>(pass->end_us - pass->start_us);
  m["trace.coverage"] = {pass_us > 0 ? 1.0 - harness_us / pass_us : 0, "frac",
                         Kind::kMeasured, "main-thread traced wall", 1};
  m["trace.overhead"] = {overhead, "frac", Kind::kMeasured,
                         "traced / untraced round wall - 1", 1};
  m["trace.spans"] = {static_cast<double>(spans.size()), "count",
                      Kind::kExact, "traced pass", 1};

  const auto counter = [&counters](const char* name) {
    auto it = counters.counters.find(name);
    return it == counters.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  m["merlin.applies"] = {counter("merlin.applies"), "count", Kind::kExact,
                         "traced pass", 1};
  m["hls.estimates"] = {counter("hls.estimates"), "count", Kind::kExact,
                        "traced pass", 1};
  m["hls.infeasible_frac"] = {
      counter("hls.estimates") > 0
          ? counter("hls.infeasible") / counter("hls.estimates")
          : 0,
      "frac", Kind::kExact, "1 HLS estimate", 1};
  const auto mean_us = [&spans](const char* name) {
    std::size_t n = 0;
    const double total = SpanTotalUs(spans, name, &n);
    return Metric{n > 0 ? total / static_cast<double>(n) : 0, "us",
                  Kind::kMeasured, std::string("1 ") + name, n};
  };
  m["merlin.apply_us"] = mean_us("merlin.apply");
  m["hls.estimate_us"] = mean_us("hls.estimate");
  std::size_t compiles = 0;
  m["b2c.compile_ms"] = {SpanTotalUs(spans, "b2c.compile", &compiles) / 1000.0,
                         "ms", Kind::kMeasured, "traced pass", compiles};
  m["apps.input_gen_ms"] = {SpanTotalUs(spans, "apps:App::make_input") / 1000,
                            "ms", Kind::kMeasured, "traced set-up", 1};
  m["apps.reference_ms"] = {SpanTotalUs(spans, "apps:App::reference") / 1000,
                            "ms", Kind::kMeasured, "traced set-up", 1};
  double map_self = 0, reduce_self = 0;
  for (const Span& s : spans) {
    if (s.name == "blaze.map") map_self += s.self_us;
    if (s.name == "blaze.reduce") reduce_self += s.self_us;
  }
  m["blaze.map_ms"] = {map_self / 1000, "ms", Kind::kMeasured,
                       "self time, traced pass", 1};
  m["blaze.reduce_ms"] = {reduce_self / 1000, "ms", Kind::kMeasured,
                          "self time, traced pass", 1};
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<std::string>& known = WorkloadNames();
  if (std::find(known.begin(), known.end(), args.workload) == known.end()) {
    Usage("unknown workload " + args.workload);
  }
  s2fa::obs::SetEnabled(false);
  const Fingerprint fp = HostFingerprint(args.source);
  std::printf("host: %s, nproc %u, %s build, source %s\n", fp.cpu.c_str(),
              fp.nproc, fp.build_type.c_str(), fp.source.c_str());
  std::printf("workload %s, seed %llu, %.0f s%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? ", traced" : "");
  std::fflush(stdout);

  Ledger ledger;
  Metrics metrics;

  // Untraced pass.
  std::vector<double> setup_s;
  const auto timed_setup = [&args, &setup_s] {
    std::unique_ptr<Workload> fresh = MakeWorkload(args.workload);
    const auto start = std::chrono::steady_clock::now();
    fresh->Setup(args.seed);
    setup_s.push_back(SecondsSince(start));
    Calibrate();
    return fresh;
  };
  StartCalibration();
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kFirstSetups; ++i) workload = timed_setup();
  int rounds = 0;
  double untraced_s = 0;  // rounds only
  const auto start = std::chrono::steady_clock::now();
  while (rounds < kMinRounds || SecondsSince(start) < args.seconds) {
    const auto round_start = std::chrono::steady_clock::now();
    const double calibrated_s = CalibrationSeconds();
    workload->Round(ledger);
    ++rounds;
    // Calibration samples in the round are not the workload's time.
    const double round_s = SecondsSince(round_start) -
                           (CalibrationSeconds() - calibrated_s);
    untraced_s += round_s;
    for (double spent = 0; spent == 0 || spent < kSetupShare * round_s;) {
      timed_setup();
      spent += setup_s.back();
    }
  }
  const double to_reference = StopCalibration();
  workload->EndToEnd(metrics);
  const Metric& host = metrics.at("host_us_per_op");
  metrics["host_ref_us_per_op"] = {host.value * to_reference, "ref_us",
                                   Kind::kMeasured,
                                   host.per_op + ", at the reference speed",
                                   host.samples};
  metrics["setup_s"] = {Median(setup_s) * to_reference, "s", Kind::kMeasured,
                        "1 set-up of the workload, at the reference speed",
                        setup_s.size()};
  metrics["setup_measured_s"] = {Median(setup_s), "s", Kind::kMeasured,
                                 "1 set-up of the workload", setup_s.size()};
  metrics["calibration_sample_us"] = {
      kReferenceSampleUs / std::pow(to_reference, 1 / kSlope), "us",
      Kind::kMeasured,
      "geometric mean of the calibration kernels' medians (reference: " +
          std::to_string(static_cast<int>(kReferenceSampleUs)) + " us)",
      CalibrationSamples()};
  metrics["peak_rss_mb"] = {PeakRssMb(), "MiB", Kind::kMeasured,
                            "whole untraced pass", 1};
  metrics["rounds"] = {static_cast<double>(rounds), "count", Kind::kExact,
                       "untraced pass", 1};
  const std::string modeled = workload->ModeledDigest();
  workload.reset();

  // Traced pass.
  if (args.trace) {
    workload = MakeWorkload(args.workload);
    StartTracing();
    double traced_s = 0;
    {
      ScopedSpan pass("bench:pass");
      {
        ScopedSpan setup("bench:setup");
        workload->Setup(args.seed);
      }
      const auto traced_start = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) workload->Round(ledger);
      traced_s = SecondsSince(traced_start);
      workload->TraceExtras(ledger);
    }
    const std::vector<Span> spans = StopTracing();
    const s2fa::obs::MetricsSnapshot counters =
        s2fa::obs::Registry::Global().Snapshot();
    ledger.Check(workload->ModeledDigest() == modeled,
                 args.workload + ": the traced pass changed a modeled result");
    CommonLayerMetrics(spans, counters, traced_s / untraced_s - 1, metrics);
    workload->PerLayer(spans, counters, metrics);
    if (!args.out_dir.empty()) {
      // One file per workload, from the latest traced run.
      const std::size_t written = WriteChromeTrace(
          spans, args.out_dir + "/" + args.workload + ".trace.json",
          kMaxTraceSpans);
      metrics["trace.spans_written"] = {static_cast<double>(written), "count",
                                        Kind::kExact, "Chrome trace file", 1};
    }
    for (const auto& [name, unit] : PerLayerNames()) {
      if (metrics.count(name) == 0) {
        metrics[name] = {0, unit, Kind::kExact, "layer not exercised", 0};
      }
    }
  }
  metrics["error_rate"] = {
      static_cast<double>(ledger.failed()) /
          static_cast<double>(std::max<std::size_t>(ledger.attempted(), 1)),
      "frac", Kind::kExact, "failed / attempted checks", ledger.attempted()};

  std::printf("%s", RenderTable(metrics).c_str());
  std::printf("checks: %zu attempted, %zu failed\n", ledger.attempted(),
              ledger.failed());
  for (const std::string& failure : ledger.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-traced" : "") + ".report.json";
    std::ofstream(path) << RenderJson(args.workload, args.seed, fp, ledger,
                                      metrics);
  }
  std::vector<std::string> names;
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerNames()) names.push_back(name);
  } else {
    names = EndToEndNames();
  }
  std::printf("%s\n", RenderResultLine(ledger, metrics, names).c_str());
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
