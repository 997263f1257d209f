// serve and overload: open-loop streaming through StreamSession over a
// BlazeCluster of 2 shards x 2 replicas on the simulated clock, with two
// tenants (3:1 and 2:1 arrival shares) and a kill/restart of shard 1
// mid-stream. Load is pinned as an absolute arrival schedule in simulated
// time, never derived from a capacity formula, so a change to the cost
// model or to capacity accounting cannot move the offered load. The seed
// sets the inputs, the second tenant's phase offset and the kill time.
//
//   serve    — SVM (map), 16-record requests well below capacity: the same
//              kir/serialization work as `run`, but in small, partly filled
//              micro-batched invocations, plus close triggers, watermark
//              commit and cluster failover/hedging. Must shed nothing.
//   overload — LLS (reduce) at about twice capacity, with per-tenant retry
//              budgets and a latency spike: many cheap requests, so stream,
//              cluster and svc bookkeeping and the CoDel -> retry budget ->
//              brownout -> shed ladder do real work. Reduce requests never
//              batch together. Must shed and fire at least one rung.
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "apps/app.h"
#include "blaze/cluster.h"
#include "blaze/serialization.h"
#include "blaze/stream.h"
#include "calibrate.h"
#include "kir/eval.h"
#include "obs/obs.h"
#include "s2fa/framework.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace s2fa;

constexpr std::size_t kShards = 2;
constexpr std::size_t kReplicasPerShard = 2;
constexpr std::size_t kRecordsPerRequest = 16;
constexpr int kEvaluatorProbes = 20;

struct TenantLoad {
  const char* name;
  std::size_t requests;
};

struct StreamSpec {
  const char* app;
  // Both tenants stream evenly over [0, duration_us); the second starts at
  // a seeded offset inside its first inter-arrival gap.
  TenantLoad tenants[2];
  double duration_us;
  // Shard 1 dies at kill_us plus a seeded jitter below kill_jitter_us and
  // restarts downtime_us later.
  double kill_us;
  double kill_jitter_us;
  double downtime_us;
  blaze::ChaosSpike spike;  // factor 1: none
  double queue_hedge_us;
  blaze::StreamOptions options;
  bool expect_shed;
};

// When this benchmark was defined an SVM invocation was modeled at 99.4 us
// and carried up to 8 requests (128 records), so 4 lanes serve ~320k
// requests/s batched and 40k/s even unbatched. 480 requests over 24 ms is
// 20k/s: sub-capacity even with one shard down.
StreamSpec ServeSpec() {
  return {.app = "SVM",
          .tenants = {{"gold", 360}, {"silver", 120}},
          .duration_us = 24000,
          .kill_us = 8000,
          .kill_jitter_us = 200,
          .downtime_us = 6000,
          .spike = {1.0, 0, 0},
          .queue_hedge_us = 1500,
          .options = {.batch_age_us = 200,
                      .slo_us = 3000,
                      .deadline_headroom_us = 300,
                      .codel_target_us = 400,
                      .codel_interval_us = 800,
                      .brownout_onset_us = 600,
                      .shed_onset_us = 1600,
                      .retry_budget = {}},
          .expect_shed = false};
}

// LLS reduce requests never batch together, so each takes a whole
// invocation. When this benchmark was defined, this topology kept up with
// 2400 requests spread evenly over 116 ms (20.6k/s: p99 333 us, nothing
// shed) and fell behind at 105 ms (22.9k/s: p50 5.9 ms against a 3 ms
// SLO), with no chaos. 2400 requests over 57 ms is 42k/s, about twice that
// measured capacity, before the kill and the latency spike take more away.
// (The cost model's 4 lanes / 97.1 us per invocation would claim 41.2k/s.)
StreamSpec OverloadSpec() {
  return {.app = "LLS",
          .tenants = {{"gold", 1600}, {"silver", 800}},
          .duration_us = 57000,
          .kill_us = 15000,
          .kill_jitter_us = 200,
          .downtime_us = 10000,
          .spike = {3.0, 35000, 5000},
          .queue_hedge_us = 0,
          .options = {.batch_age_us = 100,
                      .slo_us = 3000,
                      .deadline_headroom_us = 200,
                      .codel_target_us = 200,
                      .codel_interval_us = 400,
                      .brownout_onset_us = 300,
                      .shed_onset_us = 800,
                      .retry_budget = {.refill_per_sec = 100, .burst = 4}},
          .expect_shed = true};
}

// Hash of the canonical rendering of every modeled outcome field.
std::string OutcomeDigest(const std::vector<blaze::StreamRecordOutcome>& outs,
                          const blaze::StreamStats& stats) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& o : outs) {
    os << o.seq << '|' << o.tenant << '|' << blaze::StreamOutcomeName(o.outcome)
       << '|' << o.retries << '|' << o.arrival_us << '|' << o.terminal_us
       << '|' << o.external_commit_us << '|' << o.latency_us << '\n';
  }
  os << stats.batches_closed << ' ' << stats.batches_dispatched << ' '
     << stats.batches_host << ' ' << stats.codel_engagements << ' '
     << stats.max_queue_delay_us << ' ' << stats.watermark_us;
  return Fnv1a(os.str());
}

// What the first session's modeled run produced; later sessions must match.
struct Modeled {
  std::string digest;
  blaze::StreamStats stream;
  blaze::ClusterStats cluster;
  std::size_t svc_hedges = 0;
  std::size_t within_slo = 0;
};

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(StreamSpec spec) : spec_(std::move(spec)) {}

  void Setup(std::uint64_t seed) override {
    {
      ScopedSpan span("apps:FindApp");
      app_ = apps::FindApp(spec_.app);
    }
    Artifact artifact;
    {
      ScopedSpan span("s2fa:BuildWithConfig");
      artifact = BuildWithConfig(*app_->pool, app_->spec, app_->manual_config);
    }
    {
      ScopedSpan span("blaze:RegisterWithBlaze");
      for (std::size_t r = 0; r < kShards * kReplicasPerShard; ++r) {
        RegisterWithBlaze(runtime_, ReplicaId(r), artifact);
      }
    }
    plan_batch_ = static_cast<std::size_t>(artifact.plan.batch);

    Rng rng(DeriveSeed(seed, 0x5E7E));
    const double silver_offset = rng.NextDouble();
    const double kill_at = spec_.kill_us + rng.NextDouble() * spec_.kill_jitter_us;
    schedule_ = {};
    std::size_t total = 0;
    for (int t = 0; t < 2; ++t) {
      const TenantLoad& load = spec_.tenants[t];
      const double gap = spec_.duration_us / static_cast<double>(load.requests);
      const double start = t == 0 ? 0 : silver_offset * gap;
      schedule_.phases.push_back(
          {load.name, start, spec_.duration_us - start, load.requests});
      total += load.requests;
    }
    chaos_ = {};
    chaos_.kills.push_back({1, kill_at});
    chaos_.restarts.push_back({1, kill_at + spec_.downtime_us});
    if (spec_.spike.factor > 1) chaos_.spikes.push_back(spec_.spike);

    inputs_.clear();
    expected_.clear();
    {
      ScopedSpan span("apps:App::make_input");
      if (app_->make_broadcast) {
        broadcast_ = app_->make_broadcast(rng);
        bc_ = &broadcast_;
      }
      for (std::size_t i = 0; i < total; ++i) {
        inputs_.push_back(app_->make_input(kRecordsPerRequest, rng));
      }
    }
    {
      ScopedSpan span("apps:App::reference");
      for (const blaze::Dataset& input : inputs_) {
        expected_.push_back(app_->reference(input, bc_));
      }
    }
  }

  void Round(Ledger& ledger) override {
    ScopedOp op(++ops_);
    std::optional<blaze::BlazeCluster> cluster;
    {
      ScopedSpan span("cluster:BlazeCluster");
      cluster.emplace(MakeCluster());
    }
    blaze::StreamSession session(*cluster, spec_.options);
    std::vector<blaze::StreamRecordOutcome> outcomes;
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span("stream:StreamSession::Run");
      outcomes = session.Run(schedule_, [this](std::size_t ordinal) {
        blaze::StreamRecord record;
        record.kernel = app_->name;
        record.input = inputs_[ordinal];
        record.broadcast = bc_;
        return record;
      });
    }
    const double wall_us = ElapsedUs(start);
    Calibrate();
    ScopedSpan check("bench:check");
    const blaze::StreamStats& s = session.stats();
    host_us_per_request_.push_back(wall_us /
                                   static_cast<double>(inputs_.size()));
    Check(outcomes, s, *cluster, ledger);
  }

  void EndToEnd(Metrics& m) const override {
    const blaze::StreamStats& s = first_->stream;
    const std::string op = "1 request of 16 records";
    m["host_us_per_op"] = {Median(host_us_per_request_), "us", Kind::kMeasured,
                           op + " (StreamSession::Run wall / arrivals)",
                           host_us_per_request_.size()};
    m["host_us_per_request"] = m["host_us_per_op"];
    const std::size_t committed = s.latencies_us.size();
    m["p50_us"] = {s.LatencyQuantile(0.5), "sim_us", Kind::kModeled,
                   "external latency of 1 committed request", committed};
    m["p99_us"] = {s.LatencyQuantile(0.99), "sim_us", Kind::kModeled,
                   "external latency of 1 committed request", committed};
    m["modeled_us_per_op"] = m["p50_us"];
    m["goodput"] = {static_cast<double>(first_->within_slo) /
                        static_cast<double>(s.arrivals),
                    "frac", Kind::kModeled,
                    "arrivals committed within the SLO; shed is a miss",
                    s.arrivals};
  }

  void TraceExtras(Ledger& ledger) override {
    ScopedOp op(++ops_);
    const blaze::RegisteredAccelerator& accel =
        runtime_.manager().Get(ReplicaId(0));
    std::optional<kir::Evaluator> evaluator;
    for (int i = 0; i < kEvaluatorProbes; ++i) {
      ScopedSpan span("kir:Evaluator");
      evaluator.emplace(accel.design);
    }
    kir::BufferMap buffers;
    {
      ScopedSpan span("blaze:SerializeBatch");
      blaze::SerializeBatch(accel.plan, inputs_[0], 0, kRecordsPerRequest,
                            buffers, bc_);
    }
    {
      ScopedSpan span("kir:Evaluator::Run");
      evaluator->Run({{"N", jvm::Value::OfInt(kRecordsPerRequest)}}, buffers);
    }
    steps_per_record_ = static_cast<double>(evaluator->last_steps()) /
                        static_cast<double>(kRecordsPerRequest);
    ledger.Check(steps_per_record_ > 0,
                 app_->name + ": the evaluator probe ran no steps");
  }

  void PerLayer(const std::vector<Span>& spans,
                const obs::MetricsSnapshot& counters,
                Metrics& m) const override {
    const blaze::StreamStats& s = first_->stream;
    const blaze::ClusterStats& c = first_->cluster;
    const auto arrivals = static_cast<double>(s.arrivals);
    const auto frac = [](std::size_t part, double whole) {
      return whole > 0 ? static_cast<double>(part) / whole : 0.0;
    };
    const std::string session = "1 session";
    m["kir.steps_per_record." + app_->name] = {steps_per_record_, "count",
                                               Kind::kExact, "1 record", 1};
    std::size_t evaluators = 0;
    const double compile_us = SpanTotalUs(spans, "kir:Evaluator", &evaluators);
    m["kir.compile_us"] = {compile_us / static_cast<double>(evaluators), "us",
                           Kind::kMeasured, "1 Evaluator", evaluators};
    // Records carried over record slots offered, counting every
    // Map/Reduce invocation of a session: failover re-runs, hedges and the
    // host path included.
    const auto sessions = static_cast<double>(host_us_per_request_.size());
    const auto it = counters.counters.find("blaze.invocations");
    const double invocations =
        it == counters.counters.end() ? 0 : it->second / sessions;
    m["blaze.invocations"] = {invocations, "count", Kind::kModeled, session,
                              host_us_per_request_.size()};
    m["blaze.batch_fill"] = {
        frac((s.committed + s.committed_host) * kRecordsPerRequest,
             invocations * static_cast<double>(plan_batch_)),
        "frac", Kind::kModeled, "records / (invocations x plan batch)", 1};
    const double batches =
        static_cast<double>(s.batches_dispatched + s.batches_host);
    m["stream.requests_per_batch"] = {
        frac(s.committed + s.committed_host, batches), "count",
        Kind::kModeled, "1 dispatched micro-batch", 1};
    const auto closed = static_cast<double>(s.batches_closed);
    m["stream.close_count_frac"] = {frac(s.close_count, closed), "frac",
                                    Kind::kModeled, "1 closed batch", 1};
    m["stream.close_age_frac"] = {frac(s.close_age, closed), "frac",
                                  Kind::kModeled, "1 closed batch", 1};
    m["stream.close_deadline_frac"] = {frac(s.close_deadline, closed), "frac",
                                       Kind::kModeled, "1 closed batch", 1};
    m["stream.shed_frac.unmeetable"] = {frac(s.shed_unmeetable, arrivals),
                                        "frac", Kind::kModeled, "1 arrival",
                                        1};
    m["stream.shed_frac.brownout"] = {frac(s.shed_brownout, arrivals), "frac",
                                      Kind::kModeled, "1 arrival", 1};
    m["stream.shed_frac.retry_budget"] = {frac(s.shed_retry_budget, arrivals),
                                          "frac", Kind::kModeled, "1 arrival",
                                          1};
    m["stream.shed_frac.queue_full"] = {frac(s.shed_queue_full, arrivals),
                                        "frac", Kind::kModeled, "1 arrival",
                                        1};
    m["stream.host_routed_frac"] = {frac(s.committed_host, arrivals), "frac",
                                    Kind::kModeled, "1 arrival", 1};
    m["stream.codel_engagements"] = {
        static_cast<double>(s.codel_engagements), "count", Kind::kModeled,
        session, 1};
    m["stream.max_queue_delay_us"] = {s.max_queue_delay_us, "sim_us",
                                      Kind::kModeled, session, 1};
    m["cluster.failovers"] = {static_cast<double>(c.failovers), "count",
                              Kind::kModeled, session, 1};
    m["cluster.rejected_full"] = {static_cast<double>(c.rejected_full),
                                  "count", Kind::kModeled, session, 1};
    m["cluster.hedges_launched"] = {static_cast<double>(c.hedges_launched),
                                    "count", Kind::kModeled, session, 1};
    m["svc.hedges"] = {static_cast<double>(first_->svc_hedges), "count",
                       Kind::kModeled, session, 1};
    double held = HeldBytes(broadcast_);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      held += HeldBytes(inputs_[i]) + HeldBytes(expected_[i]);
    }
    m["stream.materialized_mb"] = {held / (1024.0 * 1024.0), "MiB",
                                   Kind::kExact,
                                   "inputs and references held", 1};
  }

  std::string ModeledDigest() const override {
    return first_ ? first_->digest : "";
  }

  std::string InputDigest() const override {
    std::ostringstream out;
    for (const blaze::Dataset& input : inputs_) out << Digest(input) << '\n';
    out << Digest(broadcast_) << '\n' << chaos_.kills.front().at_us << ' '
        << schedule_.phases.back().start_us << '\n';
    return out.str();
  }

 private:
  static std::string ReplicaId(std::size_t r) {
    return "r" + std::to_string(r);
  }

  blaze::BlazeCluster MakeCluster() {
    blaze::ClusterOptions options;
    options.queue_hedge_us = spec_.queue_hedge_us;
    blaze::BlazeCluster cluster(runtime_, options);
    for (std::size_t s = 0; s < kShards; ++s) cluster.AddShard();
    for (std::size_t r = 0; r < kShards * kReplicasPerShard; ++r) {
      cluster.AddReplica(r % kShards, app_->name, ReplicaId(r));
    }
    cluster.SetChaosPlan(chaos_);
    return cluster;
  }

  void Check(const std::vector<blaze::StreamRecordOutcome>& outcomes,
             const blaze::StreamStats& s, const blaze::BlazeCluster& cluster,
             Ledger& ledger) {
    const std::size_t total = inputs_.size();
    const std::string& name = app_->name;
    // One terminal state per request, and committed outputs equal to
    // App::reference.
    std::size_t wrong = 0, within_slo = 0;
    for (std::size_t i = 0; i < total; ++i) {
      if (i >= outcomes.size() || outcomes[i].seq != i) {
        ++wrong;
        continue;
      }
      const blaze::StreamRecordOutcome& o = outcomes[i];
      if (blaze::IsStreamShed(o.outcome)) continue;
      if (CountMismatches(expected_[i], o.output) != 0) {
        ++wrong;
      } else if (o.latency_us <= spec_.options.slo_us) {
        ++within_slo;
      }
    }
    ledger.Record(total, wrong + (outcomes.size() > total ? 1 : 0),
                  name + ": request without exactly one terminal state, or "
                         "committed output differs from App::reference");
    ledger.Check(s.arrivals == total &&
                     s.committed + s.committed_host + s.shed_total() == total,
                 name + ": records lost (arrivals != committed + shed)");
    bool monotone = s.watermark_trace.size() == total;
    for (std::size_t i = 1; i < s.watermark_trace.size(); ++i) {
      monotone = monotone &&
                 s.watermark_trace[i].second >= s.watermark_trace[i - 1].second;
    }
    monotone = monotone && !s.watermark_trace.empty() &&
               s.watermark_trace.back().second == s.watermark_us;
    ledger.Check(monotone, name + ": watermark regressed");
    const bool rung = s.codel_engagements > 0 || s.retries_denied > 0 ||
                      s.batches_host > 0;
    ledger.Check(spec_.expect_shed ? s.shed_total() > 0 && rung
                                   : s.shed_total() == 0,
                 name + (spec_.expect_shed
                             ? ": the pinned overload shed nothing or fired "
                               "no ladder rung"
                             : ": the pinned sub-capacity load shed requests"));

    Modeled modeled;
    modeled.digest = OutcomeDigest(outcomes, s);
    modeled.within_slo = within_slo;
    if (!first_) {
      modeled.stream = s;
      modeled.cluster = cluster.stats();
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        modeled.svc_hedges +=
            cluster.shard_service(shard).stats().hedges_launched;
      }
      first_ = std::move(modeled);
      return;
    }
    ledger.Check(modeled.digest == first_->digest &&
                     modeled.within_slo == first_->within_slo,
                 name + ": modeled outcomes changed between identical "
                        "sessions");
  }

  StreamSpec spec_;
  std::optional<apps::App> app_;
  blaze::BlazeRuntime runtime_;
  std::size_t plan_batch_ = 0;
  blaze::ArrivalSchedule schedule_;
  blaze::ChaosPlan chaos_;
  blaze::Dataset broadcast_;
  const blaze::Dataset* bc_ = nullptr;
  std::vector<blaze::Dataset> inputs_;
  std::vector<blaze::Dataset> expected_;
  std::vector<double> host_us_per_request_;
  std::optional<Modeled> first_;
  double steps_per_record_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<StreamWorkload>(ServeSpec());
}

std::unique_ptr<Workload> MakeOverloadWorkload() {
  return std::make_unique<StreamWorkload>(OverloadSpec());
}

}  // namespace perfbench
