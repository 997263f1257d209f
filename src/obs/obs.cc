#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.h"

namespace s2fa::obs {

#if S2FA_OBS_ENABLED

namespace {

// S2FA_OBS shares the validated S2FA_LOG_LEVEL vocabulary: "off"/"0"
// disables, any other valid level enables; garbage is rejected loudly.
bool InitialEnabled() {
  const char* env = std::getenv("S2FA_OBS");
  if (env == nullptr) return false;
  if (std::optional<LogLevel> level = ParseLogLevel(env)) {
    return *level != LogLevel::kOff;
  }
  std::fprintf(stderr,
               "[s2fa WARN] invalid S2FA_OBS '%s' "
               "(expected 0-4 or off/error/warn/info/debug); obs off\n",
               env);
  return false;
}

std::atomic<bool> g_enabled{InitialEnabled()};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

#endif  // S2FA_OBS_ENABLED

// ------------------------------------------------------------- registry

Registry& Registry::Global() {
  // Leaked: threads may record until the very end of the process.
  static Registry* instance = new Registry;
  return *instance;
}

Registry::Counter& Registry::CounterCell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Registry::Gauge& Registry::GaugeCell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Registry::Histogram& Registry::HistogramCell(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

void Registry::AddCounter(const std::string& name, std::int64_t delta) {
  CounterCell(name).value.fetch_add(delta, std::memory_order_relaxed);
}

void Registry::SetGauge(const std::string& name, double value) {
  GaugeCell(name).value.store(value, std::memory_order_relaxed);
}

void Registry::MaxGauge(const std::string& name, double value) {
  auto& cell = GaugeCell(name).value;
  double current = cell.load(std::memory_order_relaxed);
  while (value > current &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

namespace {

// splitmix64: the reservoir's per-index hash. Seeding by the sample index
// alone keeps snapshots reproducible — the same observation sequence always
// keeps the same subset, independent of metric name or process state.
std::uint64_t HashIndex(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void Registry::Observe(const std::string& name, double sample) {
  Histogram& hist = HistogramCell(name);
  std::lock_guard<std::mutex> lock(hist.mutex);
  if (hist.observed == 0) {
    hist.min = sample;
    hist.max = sample;
  } else {
    hist.min = std::min(hist.min, sample);
    hist.max = std::max(hist.max, sample);
  }
  hist.sum += sample;
  const std::uint64_t index = hist.observed++;
  if (hist.samples.size() < kHistogramSampleCap) {
    hist.samples.push_back(sample);
    return;
  }
  // Algorithm R: the index-th sample replaces a reservoir slot with
  // probability cap / (index + 1), slot drawn from the index hash.
  const std::uint64_t slot = HashIndex(index) % (index + 1);
  if (slot < kHistogramSampleCap) {
    hist.samples[slot] = sample;
  }
}

double NearestRankQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank - 1, 0.0, static_cast<double>(samples.size() - 1)));
  return samples[index];
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter.value.load(std::memory_order_relaxed);
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge.value.load(std::memory_order_relaxed);
  }
  for (const auto& [name, hist] : histograms_) {
    std::vector<double> samples;
    HistogramStats stats;
    {
      std::lock_guard<std::mutex> hist_lock(hist.mutex);
      samples = hist.samples;
      stats.count = static_cast<std::size_t>(hist.observed);
      if (hist.observed > 0) {
        stats.min = hist.min;
        stats.max = hist.max;
        stats.mean = hist.sum / static_cast<double>(hist.observed);
      }
    }
    // Percentiles come from the (possibly sampled) reservoir; count, min,
    // max, and mean above are exact regardless of the cap.
    stats.p50 = NearestRankQuantile(samples, 0.50);
    stats.p95 = NearestRankQuantile(samples, 0.95);
    stats.p99 = NearestRankQuantile(samples, 0.99);
    snapshot.histograms[name] = stats;
  }
  return snapshot;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// -------------------------------------------------------------- tracer

Tracer& Tracer::Global() {
  static Tracer* instance = new Tracer;
  return *instance;
}

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  // One buffer per thread, registered once; buffers outlive their threads
  // (the pool may retire workers before the harness drains the trace).
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    buffer = new ThreadBuffer;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::Record(SpanEvent event) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

std::vector<SpanEvent> Tracer::Collect(bool clear) const {
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<SpanEvent> merged;
  for (ThreadBuffer* buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(),
                  buffer->events.end());
    if (clear) buffer->events.clear();
  }
  // Buffers hold spans in finish order (innermost first); sort by start
  // time with a depth tie-break so nested spans that began within the
  // same microsecond still list outermost-first.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_us != b.start_us ? a.start_us < b.start_us
                                                     : a.depth < b.depth;
                   });
  return merged;
}

std::vector<SpanEvent> Tracer::Drain() { return Collect(/*clear=*/true); }

std::vector<SpanEvent> Tracer::Events() const {
  return Collect(/*clear=*/false);
}

void Tracer::Reset() { (void)Collect(/*clear=*/true); }

// ---------------------------------------------------------- ScopedSpan

namespace {

int& SpanDepth() {
  thread_local int depth = 0;
  return depth;
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!Enabled()) return;
  active_ = true;
  depth_ = SpanDepth()++;
  start_us_ = MonotonicMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --SpanDepth();
  SpanEvent event;
  event.name = name_;
  event.thread_id = CurrentThreadId();
  event.depth = depth_;
  event.start_us = start_us_;
  event.duration_us = MonotonicMicros() - start_us_;
  Tracer::Global().Record(std::move(event));
}

}  // namespace s2fa::obs
