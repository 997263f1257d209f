#include "obs/ledger.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"
#include "support/error.h"
#include "support/strings.h"
#include "support/table.h"

namespace s2fa::obs {

using json::JsonObject;
using json::JsonValue;

namespace {

const JsonValue& Field(const JsonObject& object, const std::string& name,
                       const std::string& where) {
  auto it = object.find(name);
  if (it == object.end()) {
    throw MalformedInput("perf record: " + where + "missing field '" + name +
                         "'");
  }
  return it->second;
}

double Finite(const JsonValue& value, const std::string& what) {
  const double number = value.number();
  if (!std::isfinite(number)) {
    throw MalformedInput("perf record: " + what + " is not a finite number");
  }
  return number;
}

MetricKind ParseKind(const std::string& text, const std::string& metric) {
  for (MetricKind kind :
       {MetricKind::kMeasured, MetricKind::kModeled, MetricKind::kExact}) {
    if (text == MetricKindName(kind)) return kind;
  }
  throw MalformedInput("perf record: metric '" + metric +
                       "' has unknown kind '" + text + "'");
}

// Units a measured entry gates on: host time and memory.
bool GatedUnit(const std::string& unit) {
  for (const char* gated : {"s", "ms", "us", "ref_us", "ns", "MiB"}) {
    if (unit == gated) return true;
  }
  return false;
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kMeasured: return "measured";
    case MetricKind::kModeled: return "modeled";
    case MetricKind::kExact: return "exact";
  }
  return "?";
}

PerfRecord ParsePerfRecord(const std::string& text) {
  const JsonValue root = json::Parse(text);
  const JsonObject& object = root.object();
  PerfRecord record;
  record.workload = Field(object, "workload", "").string();
  record.seed = static_cast<std::uint64_t>(
      Finite(Field(object, "seed", ""), "seed"));
  const JsonObject& host = Field(object, "host", "").object();
  record.cpu = Field(host, "cpu", "host: ").string();
  record.nproc =
      static_cast<unsigned>(Finite(Field(host, "nproc", "host: "), "nproc"));
  record.build_type = Field(host, "build_type", "host: ").string();
  record.source = Field(host, "source", "host: ").string();
  record.attempted = static_cast<std::size_t>(
      Finite(Field(object, "attempted", ""), "attempted"));
  record.failed = static_cast<std::size_t>(
      Finite(Field(object, "failed", ""), "failed"));
  for (const JsonValue& failure : Field(object, "failures", "").array()) {
    record.failures.push_back(failure.string());
  }
  for (const auto& [name, value] : Field(object, "metrics", "").object()) {
    const JsonObject& m = value.object();
    const std::string where = "metric '" + name + "': ";
    RecordMetric metric;
    metric.value = Finite(Field(m, "value", where), "metric '" + name + "'");
    metric.unit = Field(m, "unit", where).string();
    metric.kind = ParseKind(Field(m, "kind", where).string(), name);
    metric.per_op = Field(m, "per_op", where).string();
    metric.samples = static_cast<std::size_t>(
        Finite(Field(m, "samples", where), "samples of '" + name + "'"));
    record.metrics[name] = std::move(metric);
  }
  return record;
}

PerfRecord LoadPerfRecord(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("perf record: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParsePerfRecord(text.str());
  } catch (const MalformedInput& e) {
    throw MalformedInput(path + ": " + e.what());
  }
}

const char* RecordDiffKindName(RecordDiffKind kind) {
  switch (kind) {
    case RecordDiffKind::kImproved: return "improved";
    case RecordDiffKind::kFlat: return "flat";
    case RecordDiffKind::kRegressed: return "regressed";
    case RecordDiffKind::kListed: return "listed";
    case RecordDiffKind::kIncomparable: return "incomparable";
    case RecordDiffKind::kAdded: return "added";
    case RecordDiffKind::kRemoved: return "removed";
  }
  return "?";
}

std::size_t RecordDiff::Count(RecordDiffKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [kind](const RecordDiffEntry& e) { return e.kind == kind; }));
}

RecordDiff ComparePerfRecords(const PerfRecord& prev, const PerfRecord& next,
                              double threshold) {
  if (prev.workload != next.workload) {
    throw InvalidArgument("perf-diff: records of different workloads ('" +
                          prev.workload + "' vs '" + next.workload + "')");
  }
  RecordDiff diff;
  diff.threshold = threshold;
  diff.same_host = prev.cpu == next.cpu && prev.nproc == next.nproc &&
                   prev.build_type == next.build_type;
  for (const auto& [name, old_metric] : prev.metrics) {
    RecordDiffEntry entry;
    entry.name = name;
    entry.old_metric = old_metric;
    auto it = next.metrics.find(name);
    if (it == next.metrics.end()) {
      entry.kind = RecordDiffKind::kRemoved;
      diff.entries.push_back(std::move(entry));
      continue;
    }
    const RecordMetric& m = it->second;
    entry.new_metric = m;
    if (old_metric.value != 0) {
      entry.delta = (m.value - old_metric.value) / old_metric.value;
    } else if (m.value != 0) {
      entry.delta = std::numeric_limits<double>::infinity();
    }
    if (m.kind != old_metric.kind || m.unit != old_metric.unit) {
      // A redefined metric cannot be compared; treat it as moved.
      entry.kind = RecordDiffKind::kRegressed;
    } else if (m.kind != MetricKind::kMeasured) {
      entry.kind = m.value == old_metric.value ? RecordDiffKind::kFlat
                                               : RecordDiffKind::kRegressed;
    } else if (!diff.same_host) {
      entry.kind = RecordDiffKind::kIncomparable;
    } else if (!GatedUnit(m.unit)) {
      entry.kind = RecordDiffKind::kListed;
    } else if (std::fabs(entry.delta) <= threshold) {
      entry.kind = RecordDiffKind::kFlat;
    } else {
      entry.kind = entry.delta < 0 ? RecordDiffKind::kImproved
                                   : RecordDiffKind::kRegressed;
    }
    diff.entries.push_back(std::move(entry));
  }
  for (const auto& [name, new_metric] : next.metrics) {
    if (prev.metrics.count(name) != 0) continue;
    RecordDiffEntry entry;
    entry.name = name;
    entry.kind = RecordDiffKind::kAdded;
    entry.new_metric = new_metric;
    diff.entries.push_back(std::move(entry));
  }
  // Both loops walk std::maps, so the merged list only needs one sort to
  // be name-ordered.
  std::stable_sort(diff.entries.begin(), diff.entries.end(),
                   [](const RecordDiffEntry& a, const RecordDiffEntry& b) {
                     return a.name < b.name;
                   });
  return diff;
}

std::string RenderRecordDiffTable(const RecordDiff& diff) {
  TextTable table({"Metric", "Kind", "Unit", "Old", "New", "Delta", "Class"});
  for (const RecordDiffEntry& entry : diff.entries) {
    const bool added = entry.kind == RecordDiffKind::kAdded;
    const bool removed = entry.kind == RecordDiffKind::kRemoved;
    const RecordMetric& shown = added ? entry.new_metric : entry.old_metric;
    table.AddRow(
        {entry.name, MetricKindName(shown.kind), shown.unit,
         added ? "--" : json::JsonNumber(entry.old_metric.value),
         removed ? "--" : json::JsonNumber(entry.new_metric.value),
         !added && !removed && std::isfinite(entry.delta)
             ? (entry.delta >= 0 ? "+" : "") + FormatPercent(entry.delta)
             : "--",
         RecordDiffKindName(entry.kind)});
  }
  std::string out = table.Render();
  out += "threshold " + FormatPercent(diff.threshold) +
         (diff.same_host ? " (same host)" : " (different hosts)") + ":";
  for (RecordDiffKind kind :
       {RecordDiffKind::kImproved, RecordDiffKind::kFlat,
        RecordDiffKind::kRegressed, RecordDiffKind::kListed,
        RecordDiffKind::kIncomparable, RecordDiffKind::kAdded,
        RecordDiffKind::kRemoved}) {
    out += (kind == RecordDiffKind::kImproved ? " " : ", ") +
           std::to_string(diff.Count(kind)) + " " + RecordDiffKindName(kind);
  }
  return out + "\n";
}

}  // namespace s2fa::obs
