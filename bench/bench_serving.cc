// Serving-layer workload replay (paper §2: the accelerator as a shared
// datacenter service behind Blaze): drives a bursty request stream through
// `BlazeService` with an injected accelerator fault burst and gates the
// robustness contract via the exit code:
//
//   1. zero requests lost — every submitted request completes, on an
//      accelerator replica or on the host path, and every completed output
//      matches the native reference;
//   2. the health state machine engages — the fault burst quarantines
//      replicas and probe dispatches re-enlist them once the burst clears;
//   3. hedged dispatch pays off — p99 latency on the burst workload is
//      strictly lower with hedging than without it;
//   4. determinism — per-request outcomes (timing, billing, and payloads)
//      are bit-identical across exec-thread counts (plan-order commit).
//
// Prints the replay summary per configuration plus one GATE line each; the
// per-phase mean latencies on the simulated clock land as modeled entries
// in the serving record ($S2FA_BENCH_OUT/serving.record.json).
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "blaze/chaos.h"
#include "blaze/service.h"
#include "merlin/transform.h"
#include "obs/obs.h"

using namespace s2fa;
using namespace s2fa::bench;

namespace {

constexpr int kReplicas = 2;
constexpr int kWarm = 10;      // clean phase: arms the hedge window
constexpr int kBurstReqs = 16; // arrivals during the fault burst
constexpr int kRecovery = 8;   // spaced arrivals: probes re-enlist here
constexpr std::size_t kRecordsPerRequest = 64;

// Bit-exact canonical rendering of a replay (the determinism gate).
std::string Canon(const std::vector<blaze::RequestOutcome>& outcomes) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outcomes) {
    os << o.id << '|' << blaze::ServeOutcomeName(o.outcome) << '|'
       << o.replica << '|' << o.attempts << '|' << o.probe << o.hedged
       << '|' << o.dispatch_us << '|' << o.complete_us << '|' << o.latency_us
       << '|' << o.charged_us << '|';
    for (std::size_t c = 0; c < o.output.num_columns(); ++c) {
      for (const auto& v : o.output.column(c).data) {
        os << (v.is_double() ? v.AsDouble()
               : v.is_float() ? v.AsFloat()
                              : static_cast<double>(v.AsInt()))
           << ',';
      }
    }
    os << '\n';
  }
  return os.str();
}

bool Matches(const blaze::Dataset& got, const blaze::Dataset& want) {
  if (got.num_records() != want.num_records()) return false;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const blaze::Column& w = want.column(c);
    if (!got.HasField(w.field)) return false;
    const blaze::Column& g = got.ColumnByField(w.field);
    if (g.data.size() != w.data.size()) return false;
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      if (g.data[n].AsInt() != w.data[n].AsInt()) return false;
    }
  }
  return true;
}

struct Replay {
  blaze::ServiceStats stats;
  std::vector<blaze::RequestOutcome> outcomes;
  std::string canon;
  std::size_t lost = 0;        // submitted but never completed
  std::size_t mismatches = 0;  // completed outputs vs native reference
  bool all_recovered = false;  // no replica still quarantined at the end
};

Replay Run(const apps::App& app, const Artifact& artifact,
           double hedge_quantile, int exec_threads) {
  blaze::BlazeRuntime runtime;
  std::vector<std::string> ids;
  for (int i = 0; i < kReplicas; ++i) {
    ids.push_back(app.name + "#" + std::to_string(i));
    RegisterWithBlaze(runtime, ids.back(), artifact);
  }
  const blaze::ExecutionStats per = runtime.PerInvocationCost(ids.front());
  const double req_us = per.total_us;  // one batch per request

  blaze::ServiceOptions options;
  options.hedge_quantile = hedge_quantile;
  options.exec_threads = exec_threads;
  options.probe_backoff_us = req_us;
  options.probe_backoff_max_us = 8 * req_us;
  // Classification seed picked so the burst manifests both failure modes
  // (crashes detected at the driver round trip, timeouts only after 4x
  // the expected latency) — the tail the hedge is there to cut.
  options.seed = 3;
  blaze::BlazeService service(runtime, options);
  for (const std::string& id : ids) service.AddReplica(app.name, id);
  // Per-replica invocations 4-6 fail every attempt: with the warm phase
  // ending near invocation 5 on each replica, the burst-phase dispatches
  // fail until the quarantine trips, and the first probe past the window
  // re-enlists.
  service.SetFaultInjector(
      blaze::MakeShardBurstInjector(blaze::ParseChaosPlan("burst 4:3"), 0));

  Rng rng(2018);
  blaze::Dataset broadcast;
  const blaze::Dataset* bc = nullptr;
  if (app.make_broadcast) {
    Rng brng(2018 ^ 0xBCA57ULL);
    broadcast = app.make_broadcast(brng);
    bc = &broadcast;
  }

  // Arrival trace: warm + burst phases near the group's service rate (so
  // the tail reflects failure burn, not a saturated queue), then recovery
  // arrivals in simultaneous pairs — the first of a pair lands on a
  // re-enlisted lane, which forces the second to probe the replica still
  // in quarantine, so both replicas get their re-enlistment traffic.
  std::vector<double> arrivals;
  const double spacing = 1.1 * req_us / kReplicas;
  for (int i = 0; i < kWarm + kBurstReqs; ++i) arrivals.push_back(i * spacing);
  const double recovery_start = arrivals.back() + 8 * req_us;
  for (int i = 0; i < kRecovery; ++i) {
    arrivals.push_back(recovery_start + (i / 2) * 2.5 * req_us);
  }

  std::vector<blaze::ServiceRequest> requests;
  std::vector<blaze::Dataset> expected;
  for (double arrival : arrivals) {
    blaze::ServiceRequest rq;
    rq.kernel = app.name;
    rq.input = app.make_input(kRecordsPerRequest, rng);
    rq.broadcast = bc;
    rq.arrival_us = arrival;
    expected.push_back(app.reference(rq.input, bc));
    requests.push_back(std::move(rq));
  }

  Replay replay;
  replay.outcomes = service.Run(std::move(requests));
  replay.stats = service.stats();
  replay.canon = Canon(replay.outcomes);
  replay.lost = replay.stats.submitted - replay.stats.completed;
  for (std::size_t i = 0; i < replay.outcomes.size(); ++i) {
    if (!Matches(replay.outcomes[i].output, expected[i])) ++replay.mismatches;
  }
  replay.all_recovered = true;
  for (const std::string& id : ids) {
    if (service.health(id) == blaze::AcceleratorHealth::kQuarantined) {
      replay.all_recovered = false;
    }
  }
  return replay;
}

void Print(const char* label, const Replay& r) {
  const blaze::ServiceStats& s = r.stats;
  std::printf(
      "%-10s completed %zu/%zu (accel %zu, host %zu, hedged %zu), lost %zu, "
      "mismatches %zu\n",
      label, s.completed, s.submitted, s.completed_accel,
      s.completed_host, s.completed_hedge, r.lost, r.mismatches);
  std::printf(
      "           p50/p95/p99 %.0f/%.0f/%.0f us; failures %zu (%zu crash, "
      "%zu timeout); quarantines %zu, probes %zu, re-enlistments %zu; "
      "hedges %zu launched, %zu won, %.0f us saved\n",
      s.LatencyQuantile(0.5), s.LatencyQuantile(0.95), s.LatencyQuantile(0.99),
      s.accel_failures, s.crashes, s.timeouts, s.quarantines, s.probes,
      s.reenlistments, s.hedges_launched, s.hedges_won, s.hedge_saved_us);
}

}  // namespace

int main() {
  MetricsScope snapshot("serving");
  std::printf("=== serving-layer workload replay (fault burst) ===\n");

  apps::App app = apps::FindApp("AES");
  Artifact artifact =
      BuildWithConfig(*app.pool, app.spec, merlin::DesignConfig{});

  Replay unhedged = Run(app, artifact, /*hedge_quantile=*/0.0, 1);
  Replay hedged = Run(app, artifact, /*hedge_quantile=*/0.95, 1);
  Replay hedged2 = Run(app, artifact, /*hedge_quantile=*/0.95, 2);
  Replay hedged8 = Run(app, artifact, /*hedge_quantile=*/0.95, 8);
  Print("no-hedge", unhedged);
  Print("hedge", hedged);

  const bool none_lost = unhedged.lost == 0 && hedged.lost == 0 &&
                         unhedged.mismatches == 0 && hedged.mismatches == 0;
  const bool quarantine_cycled =
      hedged.stats.quarantines >= kReplicas &&
      hedged.stats.reenlistments >= kReplicas && hedged.all_recovered &&
      unhedged.stats.quarantines >= kReplicas &&
      unhedged.stats.reenlistments >= kReplicas && unhedged.all_recovered;
  const double p99_unhedged = unhedged.stats.LatencyQuantile(0.99);
  const double p99_hedged = hedged.stats.LatencyQuantile(0.99);
  const bool hedging_pays = hedged.stats.hedges_launched > 0 &&
                            hedged.stats.hedges_won > 0 &&
                            p99_hedged < p99_unhedged;
  const bool deterministic =
      hedged.canon == hedged2.canon && hedged.canon == hedged8.canon;

  perfbench::Ledger gates;
  std::printf("\n");
  Gate(gates, "no-request-lost", none_lost);
  Gate(gates, "quarantine-fires-and-recovers", quarantine_cycled,
       " (%zu quarantines, %zu re-enlistments)", hedged.stats.quarantines,
       hedged.stats.reenlistments);
  Gate(gates, "hedging-reduces-p99", hedging_pays, " (%.0f us -> %.0f us)",
       p99_unhedged, p99_hedged);
  Gate(gates, "exec-thread-determinism", deterministic,
       " (1 vs 2 vs 8 threads)");

  // Phase-attributed latencies from the hedged (production-config) replay:
  // warm/burst/recovery histograms give the metrics snapshot p50/p95/p99
  // per phase, and the phase means land as modeled entries in the record.
  perfbench::Metrics metrics;
  const struct {
    const char* name;
    std::size_t first, count;
  } phases[] = {
      {"warm", 0, kWarm},
      {"burst", kWarm, kBurstReqs},
      {"recovery", kWarm + kBurstReqs, kRecovery},
  };
  for (const auto& phase : phases) {
    double sum_us = 0;
    for (std::size_t i = phase.first; i < phase.first + phase.count; ++i) {
      const blaze::RequestOutcome& o = hedged.outcomes[i];
      S2FA_OBSERVE("serving." + std::string(phase.name) + ".latency_us",
                   o.latency_us);
      sum_us += o.latency_us;
    }
    metrics["serving." + std::string(phase.name) + ".request"] =
        Modeled(sum_us / static_cast<double>(phase.count),
                "1 request, mean over the " + std::string(phase.name) +
                    " phase",
                phase.count);
  }
  WriteRecord("serving", gates, metrics);
  return gates.failed() == 0 ? 0 : 1;
}
