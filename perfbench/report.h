// What one benchmark invocation reports: named metrics, each with its
// unit, kind, items per operation and sample count; the correctness
// ledger; and the host fingerprint. Measured (host wall-clock or RSS) and
// modeled (simulated clock) numbers stay apart by kind and by unit: a
// modeled time is in sim_us or sim_min, never in us or ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { kMeasured, kModeled, kExact };
const char* KindName(Kind kind);

struct Metric {
  double value = 0;
  std::string unit;
  Kind kind = Kind::kMeasured;
  std::string per_op;       // what one operation is, e.g. "1 record"
  std::size_t samples = 1;  // values the figure was reduced from
};

// Every output check of a run: attempted operations and the ones whose
// output or invariant was wrong. One violation fails the whole run.
class Ledger {
 public:
  // Counts one checked operation; records `what` when `ok` is false.
  void Check(bool ok, const std::string& what) { Record(1, ok ? 0 : 1, what); }
  // Counts `attempted` checked operations of which `failed` were wrong.
  void Record(std::size_t attempted, std::size_t failed,
              const std::string& what);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;  // the first few messages
};

using Metrics = std::map<std::string, Metric>;

struct Fingerprint {
  std::string cpu;
  unsigned nproc = 0;
  std::string build_type;
  std::string source;  // git rev or source-tree hash, from the caller
};
Fingerprint HostFingerprint(const std::string& source);

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);
// Peak resident set size of this process so far.
double PeakRssMb();

// Human-readable table of every metric, one per line.
std::string RenderTable(const Metrics& metrics);
// The full report as JSON: fingerprint, ledger, and every metric.
std::string RenderJson(const std::string& workload, std::uint64_t seed,
                       const Fingerprint& fingerprint, const Ledger& ledger,
                       const Metrics& metrics);
// The one-line result: {"correct", "attempted", "failed", "metrics"} with
// just the named metrics, each as {"value", "unit"}. Throws if one is
// missing.
std::string RenderResultLine(const Ledger& ledger, const Metrics& metrics,
                             const std::vector<std::string>& names);

}  // namespace perfbench
