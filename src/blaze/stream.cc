#include "blaze/stream.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "blaze/event_queue.h"
#include "blaze/statement.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/logging.h"

namespace s2fa::blaze {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ParseArrivalDirective(const std::string& stmt, ArrivalSchedule& out) {
  StmtParser p(stmt, "arrival schedule");
  if (!p.ConsumePrefix("arrive")) p.Fail("unknown directive");
  ArrivalPhase phase;
  phase.tenant = p.ParseName();
  p.Expect('@');
  phase.start_us = p.ParseTimeUs();
  p.Expect('+');
  phase.duration_us = p.ParseTimeUs();
  if (phase.duration_us <= 0) p.Fail("phase duration must be > 0");
  p.Expect('x');
  phase.count = p.ParseIndex();
  if (phase.count == 0) p.Fail("record count must be >= 1");
  p.ExpectEnd();
  out.phases.push_back(std::move(phase));
}

}  // namespace

const char* StreamOutcomeName(StreamOutcome outcome) {
  switch (outcome) {
    case StreamOutcome::kCommitted: return "committed";
    case StreamOutcome::kCommittedHost: return "committed-host";
    case StreamOutcome::kShedUnmeetable: return "shed-unmeetable";
    case StreamOutcome::kShedBrownout: return "shed-brownout";
    case StreamOutcome::kShedRetryBudget: return "shed-retry-budget";
    case StreamOutcome::kShedQueueFull: return "shed-queue-full";
  }
  S2FA_UNREACHABLE("bad stream outcome");
}

ArrivalSchedule ParseArrivalSchedule(const std::string& text) {
  ArrivalSchedule schedule;
  for (const std::string& stmt : SplitStatements(text)) {
    ParseArrivalDirective(stmt, schedule);
  }
  ValidateArrivalSchedule(schedule);
  return schedule;
}

void ValidateArrivalSchedule(const ArrivalSchedule& schedule) {
  if (schedule.phases.empty()) {
    throw MalformedInput("arrival schedule: no phases");
  }
  for (const ArrivalPhase& phase : schedule.phases) {
    if (phase.tenant.empty()) {
      throw MalformedInput("arrival schedule: phase needs a tenant");
    }
    if (phase.start_us < 0 || !std::isfinite(phase.start_us)) {
      throw MalformedInput("arrival schedule: phase start must be >= 0");
    }
    if (phase.duration_us <= 0 || !std::isfinite(phase.duration_us)) {
      throw MalformedInput("arrival schedule: phase duration must be > 0");
    }
    if (phase.count == 0) {
      throw MalformedInput("arrival schedule: record count must be >= 1");
    }
  }
}

double StreamStats::LatencyQuantile(double q) const {
  S2FA_REQUIRE(q >= 0 && q <= 1.0, "quantile must be in [0, 1]");
  return obs::NearestRankQuantile(latencies_us, q);
}

StreamSession::StreamSession(BlazeCluster& cluster, StreamOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      budget_(options_.retry_budget) {
  S2FA_REQUIRE(options_.batch_max_records >= 1,
               "batch_max_records must be >= 1");
  S2FA_REQUIRE(options_.batch_age_us > 0, "batch_age_us must be > 0");
  S2FA_REQUIRE(options_.slo_us > 0, "slo_us must be > 0");
  S2FA_REQUIRE(options_.deadline_headroom_us >= 0,
               "deadline_headroom_us must be >= 0");
  S2FA_REQUIRE(options_.codel_target_us > 0, "codel_target_us must be > 0");
  S2FA_REQUIRE(options_.codel_interval_us > 0,
               "codel_interval_us must be > 0");
  S2FA_REQUIRE(options_.brownout_onset_us > 0 &&
                   options_.brownout_onset_us <= options_.shed_onset_us,
               "brownout_onset_us must be in (0, shed_onset_us]");
  S2FA_REQUIRE(options_.brownout_max_fraction > 0 &&
                   options_.brownout_max_fraction <= 1.0,
               "brownout_max_fraction must be in (0, 1]");
  S2FA_REQUIRE(options_.retry_backoff_us > 0,
               "retry_backoff_us must be > 0");
  S2FA_REQUIRE(!options_.cluster_tenant.empty(),
               "cluster_tenant must be non-empty");
  S2FA_REQUIRE(options_.fifo_bound_us >= 0, "fifo_bound_us must be >= 0");
}

std::vector<StreamRecordOutcome> StreamSession::Run(
    const ArrivalSchedule& schedule, const StreamGenerator& generator) {
  S2FA_REQUIRE(!ran_, "StreamSession is single-shot: build a new one");
  ran_ = true;
  S2FA_REQUIRE(generator, "stream generator required");
  ValidateArrivalSchedule(schedule);
  S2FA_SPAN("blaze.stream.run");

  // ---- materialize the schedule: seq = global arrival order
  struct Rec {
    std::string tenant;
    double arrival_us = 0;
    StreamRecord content;      // filled at first arrival
    std::size_t retries = 0;
    bool arrived = false;
    bool terminal = false;
    StreamOutcome outcome = StreamOutcome::kShedQueueFull;
    double terminal_us = 0;
    Dataset output;
  };
  std::vector<Rec> recs;
  {
    struct Slot {
      double at_us;
      std::size_t phase;
      std::size_t index;
    };
    std::vector<Slot> slots;
    for (std::size_t p = 0; p < schedule.phases.size(); ++p) {
      const ArrivalPhase& phase = schedule.phases[p];
      for (std::size_t i = 0; i < phase.count; ++i) {
        const double at =
            phase.start_us + phase.duration_us * static_cast<double>(i) /
                                 static_cast<double>(phase.count);
        slots.push_back({at, p, i});
      }
    }
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot& a, const Slot& b) {
                       return a.at_us < b.at_us;
                     });
    recs.resize(slots.size());
    for (std::size_t seq = 0; seq < slots.size(); ++seq) {
      recs[seq].tenant = schedule.phases[slots[seq].phase].tenant;
      recs[seq].arrival_us = slots[seq].at_us;
    }
  }

  // ---- session event loop
  // Arrivals rank before timers at the same instant.
  enum EventKind { kArrival = 0, kTimer = 1 };
  EventQueue<std::size_t> events;  // payload: record seq or timer index
  auto push_event = [&](double at, EventKind kind, std::size_t payload) {
    events.Push(at, payload, kind);
  };
  for (std::size_t seq = 0; seq < recs.size(); ++seq) {
    push_event(recs[seq].arrival_us, kArrival, seq);
  }

  enum class CloseTrigger { kCount, kAge, kDeadline };
  using Key = std::pair<std::string, const Dataset*>;
  struct Batch {
    std::vector<std::size_t> members;  // rec indices, arrival order
    std::size_t records = 0;
    std::size_t generation = 0;
    double earliest_close_us = kInf;  // earliest timer pushed so far
  };
  std::map<Key, Batch> open;
  struct Timer {
    Key key;
    std::size_t generation;
    CloseTrigger trigger;
  };
  std::vector<Timer> timers;
  std::size_t generation_counter = 0;

  // ---- capacity model: modeled accelerator backlog over live lanes.
  // Measured queue delay at t is how far the modeled accelerator horizon
  // is ahead of now; chaos kills shrink live lanes and so grow the cost
  // of each dispatched batch.
  double accel_finish_us = 0;
  auto lanes_at = [&](double t) {
    return std::max<std::size_t>(1, cluster_.LiveLanesAt(t));
  };
  auto delay_at = [&](double t) {
    return std::max(0.0, accel_finish_us - t);
  };

  // CoDel state: delay above target continuously since `above_since`.
  double codel_above_since = -1;
  bool codel_engaged = false;
  auto observe_delay = [&](double t) {
    const double delay = delay_at(t);
    stats_.max_queue_delay_us = std::max(stats_.max_queue_delay_us, delay);
    S2FA_OBSERVE("blaze.stream.queue_delay_us", delay);
    if (delay > options_.codel_target_us) {
      if (codel_above_since < 0) codel_above_since = t;
      const bool now_engaged =
          t - codel_above_since >= options_.codel_interval_us;
      if (now_engaged && !codel_engaged) {
        ++stats_.codel_engagements;
        S2FA_COUNT("blaze.stream.codel_engagements", 1);
      }
      codel_engaged = now_engaged;
    } else {
      codel_above_since = -1;
      codel_engaged = false;
    }
    return delay;
  };

  // Brownout host capacity is modeled as one host lane with its own
  // backlog horizon: the host is a pressure-relief valve, not a second
  // cluster, and it saturates (host_slowdown is ~25x) — once a
  // host-routed batch could no longer meet the SLO, brownout stops
  // absorbing and the ladder escalates to full shed.
  double host_finish_us = 0;
  double brownout_credit = 0;
  const double fifo_bound_us = options_.fifo_bound_us > 0
                                   ? options_.fifo_bound_us
                                   : options_.shed_onset_us;

  // Batches submitted to the cluster, in submission order.
  struct PendingBatch {
    std::vector<std::size_t> members;
    double close_us = 0;
  };
  std::vector<PendingBatch> pending;
  std::vector<ClusterRequest> requests;

  auto terminal = [&](std::size_t seq, StreamOutcome outcome, double t) {
    Rec& rec = recs[seq];
    S2FA_CHECK(!rec.terminal, "record " << seq << " terminated twice");
    rec.terminal = true;
    rec.outcome = outcome;
    rec.terminal_us = t;
  };

  auto member_inputs = [&](const std::vector<std::size_t>& members) {
    std::vector<const Dataset*> inputs;
    inputs.reserve(members.size());
    for (std::size_t seq : members) inputs.push_back(&recs[seq].content.input);
    return inputs;
  };

  auto split_outputs = [&](const std::vector<std::size_t>& members,
                           Dataset output, const std::string& kernel) {
    std::vector<Dataset> parts =
        SplitBatchOutput(std::move(output), member_inputs(members),
                         cluster_.IsReduceKernel(kernel));
    for (std::size_t m = 0; m < members.size(); ++m) {
      recs[members[m]].output = std::move(parts[m]);
    }
  };

  // Executes a batch on the host path (brownout level 3): functionally
  // real through the runtime, completing after the host-path charge. Host
  // work does not occupy modeled accelerator lanes.
  auto host_route = [&](const Key& key, Batch& batch, double t) {
    Dataset out = cluster_.runtime().Execute(
        cluster_.ExecAccelFor(key.first),
        ConcatDatasets(member_inputs(batch.members)), key.second);
    const double done = std::max(host_finish_us, t) +
                        cluster_.HostUsFor(key.first, batch.records);
    host_finish_us = done;
    split_outputs(batch.members, std::move(out), key.first);
    for (std::size_t seq : batch.members) {
      terminal(seq, StreamOutcome::kCommittedHost, done);
    }
    ++stats_.batches_host;
    S2FA_COUNT("blaze.stream.batches_host", 1);
  };

  auto dispatch_to_cluster = [&](const Key& key, Batch& batch, double t) {
    const double cost =
        cluster_.AccelUsFor(key.first, batch.records) /
        static_cast<double>(lanes_at(t));
    accel_finish_us = std::max(accel_finish_us, t) + cost;
    ClusterRequest request;
    request.kernel = key.first;
    request.input = ConcatDatasets(member_inputs(batch.members));
    request.broadcast = key.second;
    request.arrival_us = t;
    request.tenant = options_.cluster_tenant;
    requests.push_back(std::move(request));
    pending.push_back({batch.members, t});
    ++stats_.batches_dispatched;
    S2FA_COUNT("blaze.stream.batches_dispatched", 1);
  };

  // Full-shed (ladder level 4): each member either retries on a granted
  // token or lands in a terminal shed state.
  auto full_shed = [&](Batch& batch, double t) {
    for (std::size_t seq : batch.members) {
      Rec& rec = recs[seq];
      if (rec.retries >= options_.max_retries) {
        terminal(seq, StreamOutcome::kShedBrownout, t);
      } else if (budget_.TryAcquire(rec.tenant, t)) {
        ++rec.retries;
        ++stats_.retries_granted;
        S2FA_COUNT("blaze.stream.retries_granted", 1);
        push_event(t + options_.retry_backoff_us, kArrival, seq);
      } else {
        ++stats_.retries_denied;
        S2FA_COUNT("blaze.stream.retries_denied", 1);
        terminal(seq, StreamOutcome::kShedRetryBudget, t);
      }
    }
    ++stats_.batches_shed;
    S2FA_COUNT("blaze.stream.batches_shed", 1);
  };

  auto close_batch = [&](const Key& key, Batch batch, double t,
                         CloseTrigger trigger) {
    ++stats_.batches_closed;
    S2FA_COUNT("blaze.stream.batches_closed", 1);
    switch (trigger) {
      case CloseTrigger::kCount: ++stats_.close_count; break;
      case CloseTrigger::kAge: ++stats_.close_age; break;
      case CloseTrigger::kDeadline: ++stats_.close_deadline; break;
    }
    const double delay = observe_delay(t);

    if (options_.policy == OverloadPolicy::kFifoShed) {
      // The strawman never sheds at close (it tail-dropped at arrival).
      dispatch_to_cluster(key, batch, t);
      return;
    }

    if (delay >= options_.shed_onset_us) {
      full_shed(batch, t);
      return;
    }

    // CoDel (level 1): under sustained standing delay, shed exactly the
    // members whose SLO deadline can no longer be met — the modeled
    // completion t + delay + cost is already past arrival + slo.
    if (codel_engaged) {
      const double cost = cluster_.AccelUsFor(key.first, batch.records) /
                          static_cast<double>(lanes_at(t));
      std::vector<std::size_t> kept;
      for (std::size_t seq : batch.members) {
        Rec& rec = recs[seq];
        if (rec.arrival_us + options_.slo_us < t + delay + cost) {
          terminal(seq, StreamOutcome::kShedUnmeetable, t);
        } else {
          kept.push_back(seq);
        }
      }
      if (kept.size() != batch.members.size()) {
        batch.records = 0;
        for (std::size_t seq : kept) {
          batch.records += recs[seq].content.input.num_records();
        }
        batch.members = std::move(kept);
        if (batch.members.empty()) return;
      }
    }

    // Brownout (level 3): between onset and full shed, a linearly ramping
    // fraction of batches — never more than brownout_max_fraction, so the
    // degradation stays controlled — routes to the host path via a
    // deterministic credit accumulator, and only while the host lane
    // could still meet the oldest member's SLO. A saturated host (or an
    // exhausted cap) stops absorbing, so the ladder escalates to full
    // shed instead of hiding overload in an ever-growing host queue.
    if (delay >= options_.brownout_onset_us) {
      const double span =
          std::max(1e-9, options_.shed_onset_us - options_.brownout_onset_us);
      const double fraction = std::min(
          options_.brownout_max_fraction,
          (delay - options_.brownout_onset_us) / span);
      brownout_credit = std::min(4.0, brownout_credit + fraction);
      if (brownout_credit >= 1.0) {
        const double host_done =
            std::max(host_finish_us, t) +
            cluster_.HostUsFor(key.first, batch.records);
        double oldest_deadline = kInf;
        for (std::size_t seq : batch.members) {
          oldest_deadline = std::min(
              oldest_deadline, recs[seq].arrival_us + options_.slo_us);
        }
        if (host_done <= oldest_deadline) {
          brownout_credit -= 1.0;
          host_route(key, batch, t);
          return;
        }
      }
    }

    dispatch_to_cluster(key, batch, t);
  };

  // Closes via timer index; stale generations are no-ops.
  auto fire_timer = [&](std::size_t index, double t) {
    const Timer timer = timers[index];
    auto it = open.find(timer.key);
    if (it == open.end() || it->second.generation != timer.generation) {
      return;
    }
    Batch batch = std::move(it->second);
    open.erase(it);
    close_batch(timer.key, std::move(batch), t, timer.trigger);
  };

  auto arm_timer = [&](const Key& key, Batch& batch, double at,
                       CloseTrigger trigger, double now) {
    const double effective = std::max(now, at);
    if (effective >= batch.earliest_close_us) return;
    batch.earliest_close_us = effective;
    timers.push_back({key, batch.generation, trigger});
    push_event(effective, kTimer, timers.size() - 1);
  };

  auto on_arrival = [&](std::size_t seq, double t) {
    Rec& rec = recs[seq];
    if (!rec.arrived) {
      rec.arrived = true;
      rec.content = generator(seq);
      S2FA_REQUIRE(rec.content.input.num_records() > 0,
                   "stream record " << seq << " has no records");
      ++stats_.arrivals;
      S2FA_COUNT("blaze.stream.arrivals", 1);
    }
    const double delay = observe_delay(t);
    if (options_.policy == OverloadPolicy::kFifoShed &&
        delay > fifo_bound_us) {
      // Naive overload control: the queue is long, drop the newest.
      terminal(seq, StreamOutcome::kShedQueueFull, t);
      return;
    }
    const Key key{rec.content.kernel, rec.content.broadcast};
    const std::size_t cap = cluster_.IsReduceKernel(rec.content.kernel)
                                ? 1
                                : options_.batch_max_records;
    Batch& batch = open[key];
    if (batch.members.empty()) {
      batch.generation = ++generation_counter;
      batch.earliest_close_us = kInf;
      arm_timer(key, batch, t + options_.batch_age_us, CloseTrigger::kAge,
                t);
    }
    batch.members.push_back(seq);
    batch.records += rec.content.input.num_records();
    arm_timer(key, batch,
              rec.arrival_us + options_.slo_us - options_.deadline_headroom_us,
              CloseTrigger::kDeadline, t);
    if (batch.members.size() >= cap) {
      Batch closing = std::move(batch);
      open.erase(key);
      close_batch(key, std::move(closing), t, CloseTrigger::kCount);
    }
  };

  while (!events.empty()) {
    const auto event = events.Pop();
    if (event.rank == kArrival) {
      on_arrival(event.payload, event.time_us);
    } else {
      fire_timer(event.payload, event.time_us);
    }
  }
  S2FA_CHECK(open.empty(), "open batches survived the event loop");

  // ---- one drain: the cluster serves every surviving batch to
  // completion on the shared simulated clock (chaos and all).
  for (ClusterRequest& request : requests) {
    cluster_.Submit(std::move(request));
  }
  requests.clear();
  std::vector<ClusterRequestOutcome> outs = cluster_.Drain();
  S2FA_CHECK(outs.size() == pending.size(),
             "cluster drain returned " << outs.size() << " outcomes for "
                                       << pending.size() << " batches");
  for (std::size_t b = 0; b < pending.size(); ++b) {
    ClusterRequestOutcome& out = outs[b];
    const std::vector<std::size_t>& members = pending[b].members;
    if (out.outcome == ClusterServe::kRejectedFull ||
        out.outcome == ClusterServe::kTenantThrottled) {
      // The session is supposed to own admission; a cluster-side shed
      // means its queue/quota knobs are too tight for this schedule.
      S2FA_LOG_WARN("stream batch shed at cluster admission ("
                    << ClusterServeName(out.outcome)
                    << "): raise queue capacity");
      for (std::size_t seq : members) {
        terminal(seq, StreamOutcome::kShedQueueFull, pending[b].close_us);
      }
      continue;
    }
    split_outputs(members, std::move(out.output),
                  recs[members.front()].content.kernel);
    for (std::size_t seq : members) {
      terminal(seq, StreamOutcome::kCommitted, out.complete_us);
    }
  }

  // ---- watermark accounting: external commit order is arrival order.
  // A record's visible commit waits for every earlier record to reach a
  // terminal state (commit or accounted shed), so the watermark never
  // regresses and nothing is lost or double-counted.
  std::vector<StreamRecordOutcome> outcomes;
  outcomes.reserve(recs.size());
  stats_.watermark_trace.reserve(recs.size());
  double watermark = 0;
  for (std::size_t seq = 0; seq < recs.size(); ++seq) {
    Rec& rec = recs[seq];
    S2FA_CHECK(rec.terminal, "record " << seq << " never terminated");
    watermark = std::max(watermark, rec.terminal_us);
    stats_.watermark_trace.emplace_back(seq, watermark);

    StreamRecordOutcome out;
    out.seq = seq;
    out.tenant = rec.tenant;
    out.outcome = rec.outcome;
    out.retries = rec.retries;
    out.arrival_us = rec.arrival_us;
    out.terminal_us = rec.terminal_us;
    out.external_commit_us = watermark;

    StreamTenantStats& ts = stats_.tenants[rec.tenant];
    ++ts.arrivals;
    ts.retries += rec.retries;
    switch (rec.outcome) {
      case StreamOutcome::kCommitted:
        ++stats_.committed;
        ++ts.committed;
        break;
      case StreamOutcome::kCommittedHost:
        ++stats_.committed_host;
        ++ts.committed_host;
        break;
      case StreamOutcome::kShedUnmeetable:
        ++stats_.shed_unmeetable;
        ++ts.shed_unmeetable;
        break;
      case StreamOutcome::kShedBrownout:
        ++stats_.shed_brownout;
        ++ts.shed_brownout;
        break;
      case StreamOutcome::kShedRetryBudget:
        ++stats_.shed_retry_budget;
        ++ts.shed_retry_budget;
        break;
      case StreamOutcome::kShedQueueFull:
        ++stats_.shed_queue_full;
        ++ts.shed_queue_full;
        break;
    }
    if (!IsStreamShed(rec.outcome)) {
      out.latency_us = watermark - rec.arrival_us;
      stats_.latencies_us.push_back(out.latency_us);
      S2FA_OBSERVE("blaze.stream.latency_us", out.latency_us);
      out.output = std::move(rec.output);
    } else {
      S2FA_COUNT("blaze.stream.shed", 1);
    }
    outcomes.push_back(std::move(out));
  }
  stats_.watermark_us = watermark;
  S2FA_GAUGE_MAX("blaze.stream.watermark_us", watermark);
  S2FA_CHECK(stats_.committed + stats_.committed_host +
                     stats_.shed_total() ==
                 recs.size(),
             "stream accounting mismatch");
  return outcomes;
}

}  // namespace s2fa::blaze
