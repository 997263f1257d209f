// The benchmark workloads: explore, run, serve and overload.
//
// Each drives the program from outside through its public functions and
// checks every output against App::reference (or, for the DSE, against
// feasibility and determinism), counting each check in the Ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blaze/dataset.h"
#include "obs/obs.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input, reference and accelerator the rounds need, all
  // derived from `seed`. Called once per instance; timed as set-up.
  virtual void Setup(std::uint64_t seed) = 0;
  // One round of the measured operations; checks every output.
  virtual void Round(Ledger& ledger) = 0;
  // Reduces the rounds so far into the workload's end-to-end metrics.
  virtual void EndToEnd(Metrics& metrics) const = 0;
  // Traced pass only, after the rounds: replays and probes that split a
  // public call into its stages. Excluded from the tracing overhead.
  virtual void TraceExtras(Ledger& ledger) = 0;
  // Workload-specific per-layer metrics from the traced pass: its spans
  // and the program's obs counters.
  virtual void PerLayer(const std::vector<Span>& spans,
                        const s2fa::obs::MetricsSnapshot& counters,
                        Metrics& metrics) const = 0;
  // Canonical text of every modeled result (determinism tests).
  virtual std::string ModeledDigest() const = 0;
  // Canonical text of the generated inputs (seed tests).
  virtual std::string InputDigest() const = 0;
};

const std::vector<std::string>& WorkloadNames();
// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
// The explore workload with an explicit DSE worker-thread count.
std::unique_ptr<Workload> MakeExploreWorkload(int exec_threads);

// Shared by the workloads.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);
// Wall-clock microseconds since `start`.
double ElapsedUs(std::chrono::steady_clock::time_point start);
// FNV-1a hash of `bytes`, as 16 hex digits.
std::string Fnv1a(const std::string& bytes);
// Elements of `want` that `got` does not reproduce within a relative
// 1e-4 (`exact`: bit-for-bit value), plus any shape difference.
std::size_t CountMismatches(const s2fa::blaze::Dataset& want,
                            const s2fa::blaze::Dataset& got,
                            bool exact = false);
std::string Digest(const s2fa::blaze::Dataset& data);
// Bytes the dataset's values occupy in memory.
double HeldBytes(const s2fa::blaze::Dataset& data);
// Sum of the durations of spans named `name`, and how many there were.
double SpanTotalUs(const std::vector<Span>& spans, const std::string& name,
                   std::size_t* count = nullptr);

}  // namespace perfbench
