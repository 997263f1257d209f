#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeOffloadWorkload();
std::unique_ptr<Workload> MakeServeWorkload();
std::unique_ptr<Workload> MakeOverloadWorkload();

namespace {

// DSE worker threads in explore: fixed so the figure does not depend on
// the host, and one so that hand-offs between threads on a shared host's
// vCPUs do not swing the wall time (on a 4-vCPU VM, interleaved runs at 2
// threads were slower and spread wider than at 1). Modeled results are the
// same at any count (tested).
constexpr int kExploreThreads = 1;

double AsNumber(const s2fa::jvm::Value& v) {
  if (v.is_double()) return v.AsDouble();
  if (v.is_float()) return v.AsFloat();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  return v.AsInt();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"explore", "run", "serve",
                                                 "overload"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "explore") return MakeExploreWorkload(kExploreThreads);
  if (name == "run") return MakeOffloadWorkload();
  if (name == "serve") return MakeServeWorkload();
  if (name == "overload") return MakeOverloadWorkload();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (explore, run, serve, overload)");
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the combined value.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t CountMismatches(const s2fa::blaze::Dataset& want,
                            const s2fa::blaze::Dataset& got, bool exact) {
  const std::size_t records = want.num_records();
  if (got.num_records() != records) return std::max<std::size_t>(records, 1);
  std::vector<bool> wrong(records, false);
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const s2fa::blaze::Column& w = want.column(c);
    if (!got.HasField(w.field)) return std::max<std::size_t>(records, 1);
    const s2fa::blaze::Column& g = got.ColumnByField(w.field);
    if (g.data.size() != w.data.size()) {
      return std::max<std::size_t>(records, 1);
    }
    const auto per_record = static_cast<std::size_t>(w.per_record);
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      const double wv = AsNumber(w.data[n]);
      const double gv = AsNumber(g.data[n]);
      const bool same =
          exact ? (wv == gv || (std::isnan(wv) && std::isnan(gv)))
                : std::fabs(gv - wv) <= 1e-4 * std::max(1.0, std::fabs(wv));
      if (!same) wrong[n / per_record] = true;
    }
  }
  std::size_t count = 0;
  for (bool w : wrong) count += w ? 1 : 0;
  return count;
}

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string Digest(const s2fa::blaze::Dataset& data) {
  std::string bytes;
  for (std::size_t c = 0; c < data.num_columns(); ++c) {
    for (const s2fa::jvm::Value& v : data.column(c).data) {
      const double d = AsNumber(v);
      bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
    }
  }
  return Fnv1a(bytes);
}

double HeldBytes(const s2fa::blaze::Dataset& data) {
  double bytes = 0;
  for (std::size_t c = 0; c < data.num_columns(); ++c) {
    bytes += static_cast<double>(data.column(c).data.size() *
                                 sizeof(s2fa::jvm::Value));
  }
  return bytes;
}

double SpanTotalUs(const std::vector<Span>& spans, const std::string& name,
                   std::size_t* count) {
  double total = 0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    total += static_cast<double>(s.end_us - s.start_us);
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

}  // namespace perfbench
