#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::size_t kFailureMessages = 20;

// Shortest text that reads back as exactly `value`.
std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMeasured:
      return "measured";
    case Kind::kModeled:
      return "modeled";
    case Kind::kExact:
      return "exact";
  }
  return "?";
}

void Ledger::Record(std::size_t attempted, std::size_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  if (failed == 0) return;
  failed_ += failed;
  if (failures_.size() < kFailureMessages) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
  }
}

Fingerprint HostFingerprint(const std::string& source) {
  Fingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) fp.cpu = line.substr(colon + 2);
    break;
  }
  if (fp.cpu.empty()) fp.cpu = "unknown";
  fp.nproc = std::thread::hardware_concurrency();
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.source = source.empty() ? "unknown" : source;
  return fp;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string RenderTable(const Metrics& metrics) {
  std::size_t width = 6;
  for (const auto& [name, m] : metrics) width = std::max(width, name.size());
  std::ostringstream out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-*s %16s %-8s %-9s %8s  %s\n",
                static_cast<int>(width), "metric", "value", "unit", "kind",
                "samples", "per op");
  out << line;
  for (const auto& [name, m] : metrics) {
    std::snprintf(line, sizeof(line), "%-*s %16.6g %-8s %-9s %8zu  %s\n",
                  static_cast<int>(width), name.c_str(), m.value,
                  m.unit.c_str(), KindName(m.kind), m.samples,
                  m.per_op.c_str());
    out << line;
  }
  return out.str();
}

std::string RenderJson(const std::string& workload, std::uint64_t seed,
                       const Fingerprint& fp, const Ledger& ledger,
                       const Metrics& metrics) {
  std::ostringstream out;
  out << "{\n  \"workload\": " << Quote(workload) << ",\n  \"seed\": " << seed
      << ",\n  \"host\": {\"cpu\": " << Quote(fp.cpu)
      << ", \"nproc\": " << fp.nproc
      << ", \"build_type\": " << Quote(fp.build_type)
      << ", \"source\": " << Quote(fp.source) << "},\n"
      << "  \"attempted\": " << ledger.attempted()
      << ",\n  \"failed\": " << ledger.failed() << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < ledger.failures().size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(ledger.failures()[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "\n" : ",\n") << "    " << Quote(name)
        << ": {\"value\": " << Num(m.value) << ", \"unit\": " << Quote(m.unit)
        << ", \"kind\": " << Quote(KindName(m.kind))
        << ", \"per_op\": " << Quote(m.per_op)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string RenderResultLine(const Ledger& ledger, const Metrics& metrics,
                             const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto it = metrics.find(names[i]);
    if (it == metrics.end()) {
      throw std::logic_error("metric " + names[i] + " was not computed");
    }
    out << (i == 0 ? "" : ", ") << Quote(names[i])
        << ": {\"value\": " << Num(it->second.value)
        << ", \"unit\": " << Quote(it->second.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
