#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "obs/obs.h"
#include "support/logging.h"

namespace perfbench {
namespace {

struct OpInterval {
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t id = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_mutex;  // guards g_spans and g_ops
std::vector<Span> g_spans;
std::vector<OpInterval> g_ops;
thread_local std::uint64_t t_op = 0;

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

}  // namespace

std::string LayerOf(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon != std::string::npos) return name.substr(0, colon);
  if (StartsWith(name, "blaze.stream.")) return "stream";
  if (StartsWith(name, "blaze.cluster.")) return "cluster";
  if (StartsWith(name, "blaze.svc.")) return "svc";
  return name.substr(0, name.find('.'));
}

void StartTracing() {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.clear();
    g_ops.clear();
  }
  s2fa::obs::Tracer::Global().Reset();
  s2fa::obs::Registry::Global().Reset();
  s2fa::obs::SetEnabled(true);
  g_tracing.store(true);
}

std::vector<Span> StopTracing() {
  g_tracing.store(false);
  s2fa::obs::SetEnabled(false);
  std::vector<Span> spans;
  std::vector<OpInterval> ops;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    spans.swap(g_spans);
    ops.swap(g_ops);
  }
  for (const s2fa::obs::SpanEvent& event : s2fa::obs::Tracer::Global().Drain()) {
    Span span;
    span.name = event.name;
    span.layer = LayerOf(event.name);
    span.thread = event.thread_id;
    span.start_us = event.start_us;
    span.end_us = event.start_us + event.duration_us;
    span.program = true;
    spans.push_back(std::move(span));
  }
  // Parents before children: by thread, start, longest first, and the
  // benchmark's span before a program span it wraps at equal bounds.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::make_tuple(a.thread, a.start_us, b.end_us, a.program) <
           std::make_tuple(b.thread, b.start_us, a.end_us, b.program);
  });
  std::sort(ops.begin(), ops.end(), [](const OpInterval& a,
                                       const OpInterval& b) {
    return a.start_us < b.start_us;
  });
  const auto op_at = [&ops](std::uint64_t t) -> std::uint64_t {
    auto it = std::upper_bound(
        ops.begin(), ops.end(), t,
        [](std::uint64_t v, const OpInterval& op) { return v < op.start_us; });
    if (it == ops.begin()) return 0;
    --it;
    return t <= it->end_us ? it->id : 0;
  };

  std::vector<double> covered(spans.size(), 0.0);
  std::vector<std::int64_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& span = spans[i];
    if (i > 0 && spans[i - 1].thread != span.thread) stack.clear();
    while (!stack.empty()) {
      const Span& top = spans[static_cast<std::size_t>(stack.back())];
      if (span.start_us >= top.start_us && span.end_us <= top.end_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      span.parent = stack.back();
      const std::size_t p = static_cast<std::size_t>(span.parent);
      covered[p] += static_cast<double>(span.end_us - span.start_us);
      if (span.op == 0) span.op = spans[p].op;
    }
    if (span.op == 0) span.op = op_at(span.start_us);
    stack.push_back(static_cast<std::int64_t>(i));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].self_us = std::max(
        0.0,
        static_cast<double>(spans[i].end_us - spans[i].start_us) - covered[i]);
  }
  return spans;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  active_ = true;
  start_us_ = s2fa::MonotonicMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Span span;
  span.name = name_;
  span.layer = LayerOf(span.name);
  span.thread = s2fa::CurrentThreadId();
  span.start_us = start_us_;
  span.end_us = s2fa::MonotonicMicros();
  span.op = t_op;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(span));
}

ScopedOp::ScopedOp(std::uint64_t id) : previous_(t_op) {
  t_op = id;
  start_us_ = s2fa::MonotonicMicros();
}

ScopedOp::~ScopedOp() {
  if (g_tracing.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_ops.push_back({start_us_, s2fa::MonotonicMicros(), t_op});
  }
  t_op = previous_;
}

std::map<std::string, double> SelfUsByLayer(const std::vector<Span>& spans) {
  std::map<std::string, double> self;
  for (const Span& span : spans) self[span.layer] += span.self_us;
  return self;
}

std::size_t WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path, std::size_t max_spans) {
  // Spans starting before the cutoff; a parent never starts after its
  // children, so every written span's parent is written too.
  std::uint64_t cutoff = std::numeric_limits<std::uint64_t>::max();
  if (spans.size() > max_spans) {
    std::vector<std::uint64_t> starts;
    starts.reserve(spans.size());
    for (const Span& s : spans) starts.push_back(s.start_us);
    std::nth_element(starts.begin(), starts.begin() + max_spans, starts.end());
    cutoff = starts[max_spans];
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", out);
  std::size_t written = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_us >= cutoff) continue;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%llu,\"dur\":%llu,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu,\"self_us\":%.0f,"
                 "\"source\":\"%s\"}}",
                 written == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                 s.thread, static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us - s.start_us), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.self_us,
                 s.program ? "program" : "bench");
    ++written;
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  return written;
}

}  // namespace perfbench
