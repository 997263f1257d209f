// Reader and comparator for performance records: the JSON report that
// perfbench's writer (perfbench/report.h) emits, for the repository
// benchmark and for every bench harness's `<bench>.record.json` alike.
// A record names its workload and seed, fingerprints the host (cpu, nproc,
// build type, source revision), counts its correctness checks, and holds
// named metrics, each with a value, unit, kind, per-op definition and
// sample count. Kinds keep host time apart from model output:
//
//   measured — host wall-clock or memory; only comparable on the same host;
//   modeled  — simulated clock or model output (sim_us, sim_min, ...);
//   exact    — counts and fractions the program determines.
//
// The comparator (`s2fa perf-diff`) gates modeled and exact entries on
// exact equality, at any threshold: a modeled value that moves is a
// behaviour change. Measured entries are compared only when cpu, nproc and
// build type match on both sides (otherwise they are `incomparable`), and
// among those only time and memory units gate, on a rise past the
// threshold; entries in other units are `listed`. Entries only one side
// has never gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s2fa::obs {

// Relative rise of a comparable measured entry that counts as a regression.
inline constexpr double kDefaultPerfThreshold = 0.10;

enum class MetricKind { kMeasured, kModeled, kExact };
const char* MetricKindName(MetricKind kind);

struct RecordMetric {
  double value = 0;
  std::string unit;
  MetricKind kind = MetricKind::kMeasured;
  std::string per_op;
  std::size_t samples = 0;
};

struct PerfRecord {
  std::string workload;
  std::uint64_t seed = 0;
  std::string cpu;
  unsigned nproc = 0;
  std::string build_type;
  std::string source;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, RecordMetric> metrics;
};

// Throws MalformedInput on anything it can't read: a missing field, a
// missing or unknown kind, or a non-finite value (written as null).
PerfRecord ParsePerfRecord(const std::string& text);
// Throws Error when the file can't be read.
PerfRecord LoadPerfRecord(const std::string& path);

enum class RecordDiffKind {
  kImproved,
  kFlat,
  kRegressed,
  kListed,
  kIncomparable,
  kAdded,
  kRemoved,
};
const char* RecordDiffKindName(RecordDiffKind kind);

struct RecordDiffEntry {
  std::string name;
  RecordDiffKind kind = RecordDiffKind::kFlat;
  RecordMetric old_metric;  // default-constructed when added
  RecordMetric new_metric;  // default-constructed when removed
  double delta = 0;         // (new - old) / old; 0 when not computed
};

struct RecordDiff {
  double threshold = kDefaultPerfThreshold;
  bool same_host = false;
  std::vector<RecordDiffEntry> entries;  // ordered by name

  std::size_t Count(RecordDiffKind kind) const;
  bool HasRegression() const { return Count(RecordDiffKind::kRegressed) > 0; }
};

// Classifies every metric of `next` against `prev` by the rules above.
// Throws InvalidArgument when the two records are of different workloads.
RecordDiff ComparePerfRecords(const PerfRecord& prev, const PerfRecord& next,
                              double threshold = kDefaultPerfThreshold);

std::string RenderRecordDiffTable(const RecordDiff& diff);

}  // namespace s2fa::obs
