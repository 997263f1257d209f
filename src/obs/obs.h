// Observability layer: a thread-safe metrics registry (counters, gauges,
// histograms with percentiles) and an RAII scoped-span tracer with nesting
// and per-thread buffers, wired through every pipeline stage (b2c, merlin,
// hls, tuner, dse, blaze).
//
// Zero-overhead when off, mirroring the S2FA_LOG pattern:
//   * compile time — defining S2FA_OBS_DISABLED (CMake -DS2FA_ENABLE_OBS=OFF)
//     turns every macro into `((void)0)` and folds Enabled() to a constexpr
//     false, so instrumented call sites vanish entirely;
//   * run time — when compiled in, every macro is guarded by one relaxed
//     atomic load + branch. Off by default; enable with SetEnabled(true) or
//     the S2FA_OBS environment variable (same values as S2FA_LOG_LEVEL:
//     "off"/"0" disables, any other valid level enables).
//
// Export (JSONL trace, aggregated JSON summary, ASCII table) lives in
// obs/export.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#if defined(S2FA_OBS_DISABLED)
#define S2FA_OBS_ENABLED 0
#else
#define S2FA_OBS_ENABLED 1
#endif

namespace s2fa::obs {

#if S2FA_OBS_ENABLED
// Whether instrumentation records anything right now (relaxed load).
bool Enabled();
void SetEnabled(bool on);
#else
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#endif

// ------------------------------------------------------------- metrics

// Histograms keep at most this many raw samples per metric (deterministic
// reservoir, Algorithm R with the slot drawn from a hash of the sample
// index): million-request serving runs stay bounded while count, min, max,
// and mean remain exact and percentile snapshots stay reproducible for a
// given observation sequence.
inline constexpr std::size_t kHistogramSampleCap = 4096;

struct HistogramStats {
  std::size_t count = 0;
  double min = 0, max = 0, mean = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

// Nearest-rank quantile of `samples` (sorted here; any order in): the
// sample at rank ceil(q * n), clamped to [1, n]; 0 when empty. q in
// [0, 1]. Histogram percentiles and every serving-layer latency quantile
// use this one rule, so their p50/p95/p99 agree.
double NearestRankQuantile(std::vector<double> samples, double q);

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

// Process-global registry. Registration locks a mutex briefly; the hot
// update itself is an atomic add (counters/gauges) or a short per-histogram
// critical section. Node-based storage keeps metric cells stable, so
// concurrent updaters never race with the map structure.
class Registry {
 public:
  static Registry& Global();

  void AddCounter(const std::string& name, std::int64_t delta = 1);
  void SetGauge(const std::string& name, double value);
  // Sets the gauge to max(current, value) — for high-water marks.
  void MaxGauge(const std::string& name, double value);
  void Observe(const std::string& name, double sample);

  // Percentiles are computed here (nearest-rank over the raw samples).
  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  struct Counter {
    std::atomic<std::int64_t> value{0};
  };
  struct Gauge {
    std::atomic<double> value{0};
  };
  struct Histogram {
    mutable std::mutex mutex;
    std::vector<double> samples;  // reservoir, <= kHistogramSampleCap
    std::uint64_t observed = 0;   // exact totals survive the sampling
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  Counter& CounterCell(const std::string& name);
  Gauge& GaugeCell(const std::string& name);
  Histogram& HistogramCell(const std::string& name);

  mutable std::mutex mutex_;  // guards map structure only
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// -------------------------------------------------------------- tracing

struct SpanEvent {
  std::string name;
  int thread_id = 0;       // support::CurrentThreadId
  int depth = 0;           // nesting depth on its thread (0 = outermost)
  std::uint64_t start_us = 0;  // MonotonicMicros at entry
  std::uint64_t duration_us = 0;
};

// Collects finished spans into per-thread buffers (one short lock per span,
// never contended across threads); Drain() merges and clears them.
class Tracer {
 public:
  static Tracer& Global();

  void Record(SpanEvent event);

  // Merged events ordered by start time. Drain clears the buffers.
  std::vector<SpanEvent> Drain();
  std::vector<SpanEvent> Events() const;
  void Reset();

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<SpanEvent> events;
  };

  ThreadBuffer& LocalBuffer();
  std::vector<SpanEvent> Collect(bool clear) const;

  mutable std::mutex mutex_;  // guards the buffer list
  std::vector<ThreadBuffer*> buffers_;  // leaked with the global tracer
};

// RAII span. Construction/destruction are no-ops when obs is disabled; the
// enabled/disabled decision is latched at entry so a span that started
// while enabled always records.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  int depth_ = 0;
  std::uint64_t start_us_ = 0;
};

}  // namespace s2fa::obs

#if S2FA_OBS_ENABLED

#define S2FA_OBS_CONCAT_IMPL(a, b) a##b
#define S2FA_OBS_CONCAT(a, b) S2FA_OBS_CONCAT_IMPL(a, b)

// Scoped span covering the rest of the enclosing block.
#define S2FA_SPAN(name) \
  ::s2fa::obs::ScopedSpan S2FA_OBS_CONCAT(s2fa_span_, __LINE__){name}

#define S2FA_COUNT(name, delta)                                \
  do {                                                         \
    if (::s2fa::obs::Enabled())                                \
      ::s2fa::obs::Registry::Global().AddCounter(name, delta); \
  } while (0)

#define S2FA_GAUGE(name, value)                              \
  do {                                                       \
    if (::s2fa::obs::Enabled())                              \
      ::s2fa::obs::Registry::Global().SetGauge(name, value); \
  } while (0)

#define S2FA_GAUGE_MAX(name, value)                          \
  do {                                                       \
    if (::s2fa::obs::Enabled())                              \
      ::s2fa::obs::Registry::Global().MaxGauge(name, value); \
  } while (0)

#define S2FA_OBSERVE(name, sample)                           \
  do {                                                       \
    if (::s2fa::obs::Enabled())                              \
      ::s2fa::obs::Registry::Global().Observe(name, sample); \
  } while (0)

#else  // S2FA_OBS_ENABLED

#define S2FA_SPAN(name) ((void)0)
#define S2FA_COUNT(name, delta) ((void)0)
#define S2FA_GAUGE(name, value) ((void)0)
#define S2FA_GAUGE_MAX(name, value) ((void)0)
#define S2FA_OBSERVE(name, sample) ((void)0)

#endif  // S2FA_OBS_ENABLED
