// Profiler + performance-record suite: profile-tree reconstruction from
// synthetic and real span events, the self/total invariants, Chrome-trace
// validity, perfbench reports read back and compared by `perf-diff`'s
// rules, reservoir-histogram exactness, and the Drain-vs-Record race.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "perfbench/report.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace s2fa::obs {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    if (!Enabled()) GTEST_SKIP() << "obs compiled out";
    Registry::Global().Reset();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Registry::Global().Reset();
    Tracer::Global().Reset();
    SetEnabled(false);
  }
};

SpanEvent Ev(const char* name, int tid, int depth, std::uint64_t start,
             std::uint64_t dur) {
  SpanEvent e;
  e.name = name;
  e.thread_id = tid;
  e.depth = depth;
  e.start_us = start;
  e.duration_us = dur;
  return e;
}

// ------------------------------------------------------------ tree builds

TEST_F(ProfileTest, SyntheticTreeExactAttribution) {
  // root [0,100) { A [10,40) { G [15,20) }, B [50,90) }
  std::vector<SpanEvent> events = {
      Ev("root", 1, 0, 0, 100),
      Ev("A", 1, 1, 10, 30),
      Ev("G", 1, 2, 15, 5),
      Ev("B", 1, 1, 50, 40),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  const ProfileNode& root = p.roots[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.count, 1u);
  EXPECT_DOUBLE_EQ(root.total_us, 100);
  EXPECT_DOUBLE_EQ(root.self_us, 30);  // 100 - (30 + 40)
  ASSERT_EQ(root.children.size(), 2u);
  // Children sorted by total time, descending.
  EXPECT_EQ(root.children[0].name, "B");
  EXPECT_DOUBLE_EQ(root.children[0].total_us, 40);
  EXPECT_DOUBLE_EQ(root.children[0].self_us, 40);
  EXPECT_EQ(root.children[1].name, "A");
  EXPECT_DOUBLE_EQ(root.children[1].self_us, 25);
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "G");
  EXPECT_DOUBLE_EQ(root.children[1].children[0].total_us, 5);

  EXPECT_DOUBLE_EQ(p.wall_us, 100);
  EXPECT_DOUBLE_EQ(p.busy_us, 100);
  EXPECT_EQ(p.events, 4u);
  EXPECT_EQ(p.threads, 1u);

  // Flat rollup sorted by self time.
  ASSERT_EQ(p.flat.size(), 4u);
  EXPECT_EQ(p.flat[0].name, "B");
  EXPECT_DOUBLE_EQ(p.flat[0].self_us, 40);
  EXPECT_EQ(p.flat[1].name, "root");
  EXPECT_DOUBLE_EQ(p.flat[3].self_us, 5);
}

TEST_F(ProfileTest, RepeatedActivationsMergeByPath) {
  std::vector<SpanEvent> events = {
      Ev("loop", 1, 0, 0, 100),   Ev("body", 1, 1, 0, 40),
      Ev("body", 1, 1, 50, 50),   Ev("loop", 1, 0, 200, 50),
      Ev("body", 1, 1, 210, 20),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].count, 2u);
  EXPECT_DOUBLE_EQ(p.roots[0].total_us, 150);
  ASSERT_EQ(p.roots[0].children.size(), 1u);
  EXPECT_EQ(p.roots[0].children[0].count, 3u);
  EXPECT_DOUBLE_EQ(p.roots[0].children[0].total_us, 110);
  EXPECT_DOUBLE_EQ(p.roots[0].self_us, 40);
  // wall spans the gap; busy does too (one thread, one extent).
  EXPECT_DOUBLE_EQ(p.wall_us, 250);
}

TEST_F(ProfileTest, ThreadsMergePathWiseAndBusySums) {
  std::vector<SpanEvent> events = {
      Ev("work", 1, 0, 0, 100),
      Ev("inner", 1, 1, 10, 50),
      Ev("work", 2, 0, 50, 100),
      Ev("inner", 2, 1, 60, 30),
  };
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].count, 2u);
  EXPECT_DOUBLE_EQ(p.roots[0].total_us, 200);
  EXPECT_DOUBLE_EQ(p.roots[0].children[0].total_us, 80);
  EXPECT_EQ(p.threads, 2u);
  EXPECT_DOUBLE_EQ(p.wall_us, 150);   // [0, 150)
  EXPECT_DOUBLE_EQ(p.busy_us, 200);   // 100 + 100
  // Self times are disjoint per thread: their sum never exceeds busy.
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) self_sum += row.self_us;
  EXPECT_LE(self_sum, p.busy_us + 1e-9);
}

TEST_F(ProfileTest, OrphanDepthBecomesRoot) {
  // Parent span never recorded (obs enabled mid-span): depth 2 with no
  // enclosing spans must still land in the profile, as a root.
  std::vector<SpanEvent> events = {Ev("deep", 7, 2, 10, 5)};
  Profile p = BuildProfile(events);
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].name, "deep");
  EXPECT_DOUBLE_EQ(p.roots[0].self_us, 5);
}

TEST_F(ProfileTest, RealScopedSpansNestAndBound) {
  {
    S2FA_SPAN("outer");
    for (int i = 0; i < 3; ++i) {
      S2FA_SPAN("mid");
      S2FA_SPAN("leaf");
    }
  }
  Profile p = BuildProfile(Tracer::Global().Drain());
  ASSERT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0].name, "outer");
  ASSERT_EQ(p.roots[0].children.size(), 1u);
  EXPECT_EQ(p.roots[0].children[0].name, "mid");
  EXPECT_EQ(p.roots[0].children[0].count, 3u);
  // total >= sum(children) at every node, and self >= 0.
  EXPECT_GE(p.roots[0].total_us,
            p.roots[0].children[0].total_us - 1e-9);
  EXPECT_GE(p.roots[0].self_us, 0);
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) self_sum += row.self_us;
  EXPECT_LE(self_sum, p.wall_us + 1e-9);  // single-threaded trace
}

TEST_F(ProfileTest, PoolSpansKeepInvariantsAcrossThreads) {
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.Submit([] {
        S2FA_SPAN("pool.task");
        S2FA_SPAN("pool.step");
      }));
    }
    for (auto& f : futures) f.get();
  }
  Profile p = BuildProfile(Tracer::Global().Drain());
  EXPECT_EQ(p.events, 32u);
  EXPECT_GE(p.threads, 1u);
  std::size_t tasks = 0;
  double self_sum = 0;
  for (const HotPathRow& row : p.flat) {
    self_sum += row.self_us;
    if (row.name == "pool.task") tasks = row.count;
  }
  EXPECT_EQ(tasks, 16u);
  EXPECT_LE(self_sum, p.busy_us + 1e-9);
}

TEST_F(ProfileTest, RenderedTableListsHotSpansAndRates) {
  std::vector<SpanEvent> events = {Ev("hot", 1, 0, 0, 900),
                                   Ev("cold", 1, 0, 900, 100)};
  Profile p = BuildProfile(events);
  std::string table = RenderHotPathTable(p, 0, /*records=*/100);
  EXPECT_NE(table.find("hot"), std::string::npos);
  EXPECT_NE(table.find("ns/rec"), std::string::npos);
  std::string top1 = RenderHotPathTable(p, 1);
  EXPECT_NE(top1.find("hot"), std::string::npos);
  EXPECT_NE(top1.find("not shown"), std::string::npos);
  std::string tree = RenderProfileTree(p);
  EXPECT_NE(tree.find("cold"), std::string::npos);
}

// --------------------------------------------------------- chrome export

TEST_F(ProfileTest, ChromeTraceIsValidJson) {
  std::vector<SpanEvent> events = {
      Ev("alpha \"quoted\"", 1, 0, 0, 100),
      Ev("beta", 2, 1, 10, 5),
  };
  json::JsonValue root = json::Parse(RenderChromeTrace(events));
  const json::JsonObject& top = root.object();
  EXPECT_EQ(top.at("displayTimeUnit").string(), "ms");
  const json::JsonArray& trace = top.at("traceEvents").array();
  ASSERT_EQ(trace.size(), 2u);
  const json::JsonObject& first = trace[0].object();
  EXPECT_EQ(first.at("name").string(), "alpha \"quoted\"");
  EXPECT_EQ(first.at("ph").string(), "X");
  EXPECT_DOUBLE_EQ(first.at("ts").number(), 0);
  EXPECT_DOUBLE_EQ(first.at("dur").number(), 100);
  EXPECT_DOUBLE_EQ(first.at("tid").number(), 1);
  EXPECT_DOUBLE_EQ(trace[1].object().at("tid").number(), 2);
}

// -------------------------------------------------- performance records

// A report in perfbench's own format, written by its own writer.
std::string Report(const perfbench::Metrics& metrics,
                   const std::string& cpu = "cpu-a",
                   const std::string& workload = "serve") {
  perfbench::Ledger checks;
  checks.Check(true, "first");
  checks.Record(4, 1, "outputs match");
  return perfbench::RenderJson(workload, 20261017, {cpu, 4, "Release", "rev-1"},
                               checks, metrics);
}

perfbench::Metrics SampleMetrics() {
  using perfbench::Kind;
  perfbench::Metrics m;
  m["host_ref_us_per_op"] = {31.625, "ref_us", Kind::kMeasured, "1 request",
                             12};
  m["peak_rss_mb"] = {18.5, "MiB", Kind::kMeasured, "whole pass", 1};
  m["trace.overhead"] = {0.25, "frac", Kind::kMeasured, "traced pass", 1};
  m["p50_us"] = {202.89312345678901, "sim_us", Kind::kModeled,
                 "1 committed request", 480};
  m["rounds"] = {7, "count", Kind::kExact, "untraced pass", 1};
  return m;
}

const RecordDiffEntry& Entry(const RecordDiff& diff, const std::string& name) {
  for (const RecordDiffEntry& e : diff.entries) {
    if (e.name == name) return e;
  }
  throw std::out_of_range(name);
}

TEST(RecordTest, PerfbenchReportReadsBackIntact) {
  const perfbench::Metrics in = SampleMetrics();
  const PerfRecord out = ParsePerfRecord(Report(in));
  EXPECT_EQ(out.workload, "serve");
  EXPECT_EQ(out.seed, 20261017u);
  EXPECT_EQ(out.cpu, "cpu-a");
  EXPECT_EQ(out.nproc, 4u);
  EXPECT_EQ(out.build_type, "Release");
  EXPECT_EQ(out.source, "rev-1");
  EXPECT_EQ(out.attempted, 5u);
  EXPECT_EQ(out.failed, 1u);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0], "outputs match (1 of 4)");
  ASSERT_EQ(out.metrics.size(), in.size());
  for (const auto& [name, m] : in) {
    const RecordMetric& r = out.metrics.at(name);
    EXPECT_EQ(r.value, m.value) << name;  // bit-exact
    EXPECT_EQ(r.unit, m.unit) << name;
    EXPECT_STREQ(MetricKindName(r.kind), perfbench::KindName(m.kind)) << name;
    EXPECT_EQ(r.per_op, m.per_op) << name;
    EXPECT_EQ(r.samples, m.samples) << name;
  }
  EXPECT_THROW(LoadPerfRecord(::testing::TempDir() + "/no-such.record.json"),
               Error);
}

TEST(RecordTest, MovedModeledOrExactValueRegressesAtAnyThreshold) {
  const PerfRecord prev = ParsePerfRecord(Report(SampleMetrics()));
  EXPECT_FALSE(ComparePerfRecords(prev, prev, 0).HasRegression());
  for (const char* name : {"p50_us", "rounds"}) {
    perfbench::Metrics moved = SampleMetrics();
    moved[name].value *= 1 - 1e-12;  // "improved", but a behaviour change
    const RecordDiff diff =
        ComparePerfRecords(prev, ParsePerfRecord(Report(moved)), 1e6);
    EXPECT_EQ(Entry(diff, name).kind, RecordDiffKind::kRegressed) << name;
    EXPECT_EQ(diff.Count(RecordDiffKind::kRegressed), 1u) << name;
    EXPECT_TRUE(diff.HasRegression());
  }
}

TEST(RecordTest, MeasuredEntriesGateOnlyOnTheSameHost) {
  const PerfRecord prev = ParsePerfRecord(Report(SampleMetrics()));
  perfbench::Metrics slower = SampleMetrics();
  slower["host_ref_us_per_op"].value *= 3;
  slower["peak_rss_mb"].value *= 0.5;
  slower["trace.overhead"].value *= 4;

  const RecordDiff other =
      ComparePerfRecords(prev, ParsePerfRecord(Report(slower, "cpu-b")), 0.1);
  EXPECT_FALSE(other.same_host);
  EXPECT_FALSE(other.HasRegression());  // perf-diff exits 0
  EXPECT_EQ(other.Count(RecordDiffKind::kIncomparable), 3u);
  EXPECT_EQ(Entry(other, "p50_us").kind, RecordDiffKind::kFlat);

  const RecordDiff same =
      ComparePerfRecords(prev, ParsePerfRecord(Report(slower)), 0.1);
  EXPECT_TRUE(same.same_host);
  EXPECT_EQ(Entry(same, "host_ref_us_per_op").kind,
            RecordDiffKind::kRegressed);
  EXPECT_NEAR(Entry(same, "host_ref_us_per_op").delta, 2.0, 1e-12);
  EXPECT_EQ(Entry(same, "peak_rss_mb").kind, RecordDiffKind::kImproved);
  EXPECT_EQ(Entry(same, "trace.overhead").kind, RecordDiffKind::kListed);
  EXPECT_EQ(same.Count(RecordDiffKind::kRegressed), 1u);
  // At a threshold past the rise, the same pair is flat.
  EXPECT_FALSE(
      ComparePerfRecords(prev, ParsePerfRecord(Report(slower)), 2.0)
          .HasRegression());

  const std::string table = RenderRecordDiffTable(same);
  EXPECT_NE(table.find("1 regressed"), std::string::npos);
  EXPECT_NE(table.find("1 listed"), std::string::npos);
}

TEST(RecordTest, AddedAndRemovedEntriesNeverGate) {
  perfbench::Metrics fewer = SampleMetrics();
  fewer.erase("p50_us");
  fewer.erase("host_ref_us_per_op");
  perfbench::Metrics more = SampleMetrics();
  more["p99_us"] = {900, "sim_us", perfbench::Kind::kModeled, "1 request", 1};
  const PerfRecord all = ParsePerfRecord(Report(SampleMetrics()));
  const RecordDiff removed =
      ComparePerfRecords(all, ParsePerfRecord(Report(fewer)), 0);
  EXPECT_EQ(removed.Count(RecordDiffKind::kRemoved), 2u);
  EXPECT_FALSE(removed.HasRegression());
  const RecordDiff added =
      ComparePerfRecords(all, ParsePerfRecord(Report(more)), 0);
  EXPECT_EQ(Entry(added, "p99_us").kind, RecordDiffKind::kAdded);
  EXPECT_FALSE(added.HasRegression());
}

TEST(RecordTest, RejectsMalformedRecordsAndMismatchedWorkloads) {
  EXPECT_THROW(ParsePerfRecord("not json"), MalformedInput);
  EXPECT_THROW(ParsePerfRecord("{}"), MalformedInput);
  const std::string good = Report(SampleMetrics());
  const std::string kind = "\"kind\": \"modeled\", ";
  ASSERT_NE(good.find(kind), std::string::npos);
  std::string no_kind = good;
  no_kind.erase(no_kind.find(kind), kind.size());
  EXPECT_THROW(ParsePerfRecord(no_kind), MalformedInput);
  std::string bad_kind = good;
  bad_kind.replace(bad_kind.find(kind), kind.size(),
                   "\"kind\": \"guessed\", ");
  EXPECT_THROW(ParsePerfRecord(bad_kind), MalformedInput);
  perfbench::Metrics nan = SampleMetrics();
  nan["p50_us"].value = std::nan("");  // the writer renders it as null
  EXPECT_THROW(ParsePerfRecord(Report(nan)), MalformedInput);

  const PerfRecord serve = ParsePerfRecord(good);
  const PerfRecord overload =
      ParsePerfRecord(Report(SampleMetrics(), "cpu-a", "overload"));
  EXPECT_THROW(ComparePerfRecords(serve, overload), InvalidArgument);
}

// ---------------------------------------------------- reservoir histogram

TEST_F(ProfileTest, ReservoirKeepsExactScalarsPastTheCap) {
  const std::size_t n = 3 * kHistogramSampleCap;
  for (std::size_t i = 0; i < n; ++i) {
    Registry::Global().Observe("res.h", static_cast<double>(i));
  }
  HistogramStats h = Registry::Global().Snapshot().histograms.at("res.h");
  EXPECT_EQ(h.count, n);  // exact, not capped
  EXPECT_DOUBLE_EQ(h.min, 0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(n - 1));
  EXPECT_DOUBLE_EQ(h.mean, static_cast<double>(n - 1) / 2.0);
  // Percentiles come from a uniform reservoir over [0, n): they stay in
  // range and ordered even though the raw samples were dropped.
  EXPECT_GE(h.p50, h.min);
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
  EXPECT_LE(h.p99, h.max);
}

TEST_F(ProfileTest, ReservoirIsDeterministicPerSequence) {
  auto run = [] {
    Registry::Global().Reset();
    for (std::size_t i = 0; i < 2 * kHistogramSampleCap; ++i) {
      Registry::Global().Observe(
          "det.h", static_cast<double>((i * 2654435761ULL) % 100000));
    }
    return Registry::Global().Snapshot().histograms.at("det.h");
  };
  HistogramStats a = run();
  HistogramStats b = run();
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_EQ(a.count, b.count);
}

// ------------------------------------------------------------ drain race

TEST_F(ProfileTest, DrainRacingRecordLosesNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::atomic<int> done{0};
  std::vector<SpanEvent> drained;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.Submit([&done] {
        for (int i = 0; i < kPerThread; ++i) {
          SpanEvent e;
          e.name = "race.span";
          e.depth = 0;
          e.start_us = static_cast<std::uint64_t>(i);
          e.duration_us = 1;
          Tracer::Global().Record(std::move(e));
        }
        done.fetch_add(1);
      }));
    }
    // Drain concurrently with the writers.
    while (done.load() < kThreads) {
      std::vector<SpanEvent> batch = Tracer::Global().Drain();
      drained.insert(drained.end(), batch.begin(), batch.end());
      std::this_thread::yield();
    }
    for (auto& f : futures) f.get();
  }
  std::vector<SpanEvent> rest = Tracer::Global().Drain();
  drained.insert(drained.end(), rest.begin(), rest.end());
  EXPECT_EQ(drained.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

}  // namespace
}  // namespace s2fa::obs
