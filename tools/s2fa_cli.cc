// s2fa — command-line driver for the framework.
//
//   s2fa list
//       The bundled evaluation kernels.
//   s2fa compile <app>
//       Bytecode-to-C only: print the generated HLS C, the interface, the
//       generated Scala glue, and the design-space inventory.
//   s2fa explore <app> [--minutes N] [--cores N] [--seed N]
//                      [--vanilla] [--no-seeds] [--no-partition]
//                      [--techniques LIST]
//                      [--eval-timeout M] [--eval-retries N]
//                      [--resume-journal FILE] [--fault-rate P]
//                      [--eval-cache on|off|N]
//       Run the DSE and report partitions, the trace, and the best design.
//       --techniques picks the search-arm roster by name (comma-separated:
//       "bandit" is the default four, plus greedy/de/pso/sa/bottleneck —
//       e.g. --techniques bandit,bottleneck adds the bottleneck-guided
//       arm). --eval-timeout/--eval-retries tune the fault-tolerant
//       evaluation layer, --resume-journal checkpoints every evaluation
//       (and resumes a killed run without re-paying them), --fault-rate
//       injects deterministic evaluator failures to exercise that
//       machinery, and --eval-cache controls the shared memoizing
//       evaluation cache (on by default; N bounds it to an N-entry LRU).
//       All of these apply to --vanilla runs too.
//   s2fa run <app> [--records N] [--seed N] [--accel-fault-rate P]
//       Build the accelerator (short DSE), execute a workload through the
//       Blaze runtime, cross-check against the JVM baseline, and report
//       the speedup. --accel-fault-rate injects accelerator faults; failed
//       batches retry once and then degrade to the host path.
//   s2fa serve <app> [--replicas N] [--requests N] [--records N] [--seed N]
//                    [--serve-queue N] [--hedge-quantile Q]
//                    [--quarantine-window N] [--exec-threads N] [--shards N]
//                    [--tenants NAME:WEIGHT[:QUOTA],..] [--chaos-plan PLAN]
//                    [--routing health|depth]
//       Build the accelerator and serve it through BlazeCluster, the one
//       serving front door: N replicas spread round-robin over --shards
//       fault domains (default 1), each shard a BlazeService with
//       per-replica health tracking, quarantine + probe re-enlistment, and
//       hedged dispatch. A request stream is replayed against the
//       simulated clock through the cluster's bounded admission queue,
//       micro-batching, failover, and weighted-fair tenancy. --tenants
//       declares tenants (relative weight, optional queued quota) and
//       assigns requests round-robin; --chaos-plan runs a scripted fault
//       schedule — kills, restarts, `burst START:LEN[@SHARD]` windows that
//       fail every accelerator attempt whose per-replica invocation counter
//       falls in [START, START+LEN), spikes, floods, poison (see
//       blaze/chaos.h for the grammar); --routing health|depth picks the
//       shard-selection policy (depth scores true outstanding backlog, so
//       it routes around shards that owe invisible host work). Replay runs
//       print the cluster ledger, each shard's replica health and hedging,
//       and a per-tenant fairness table — sheds split by reason,
//       completions by serving path — and cross-check every served output
//       against the native reference.
//       --stream replays the workload through the streaming serving mode
//       (StreamSession): rate-programmed continuous arrivals
//       (--arrival-rate, a multiple of the modeled capacity of every
//       replica lane), SLO-bound micro-batching (--slo, microseconds),
//       per-tenant retry budgets (--retry-budget REFILL_PER_SEC:BURST), and
//       the brownout segment of the overload ladder
//       (--brownout ONSET_US:SHED_US[:MAX_FRACTION]).
//       Streaming runs print the overload-ladder ledger (shed reasons,
//       close triggers, CoDel engagements, watermark) and exit non-zero on
//       lost records, watermark regression, or reference mismatches.
//   s2fa report <metrics.json>
//       Render a metrics summary (written by --metrics-out) as tables.
//   s2fa profile <app> [--minutes N] [--seed N] [--records N] [--top N]
//                      [--profile-out FILE]
//       Run the pipeline (compile, a short single-core DSE slice, a Blaze
//       workload) with the tracer on and print the hot-path table: per-span
//       call counts, total/self time, and ns/op + ns/record rates. The self
//       times are disjoint, so their sum is bounded by the wall time.
//       --profile-out dumps the raw spans as a Chrome trace-event file
//       (load in chrome://tracing or Perfetto).
//   s2fa perf-diff <old.json> <new.json> [--threshold P]
//       Compare two performance records of one workload (a bench
//       harness's <bench>.record.json or a perfbench report; obs/ledger.h).
//       Modeled and exact entries must be equal at any threshold; measured
//       time and memory entries regress on a rise past the threshold
//       (fraction, default 0.10), and only between records of the same
//       host. Exits 1 on a regression, 2 on records of different
//       workloads — the CI perf gate.
//
// Global flags: --trace-out FILE --metrics-out FILE (enable the obs layer
// and dump the span trace / aggregated summary), --log-level LEVEL.
// Unknown flags and non-numeric values for numeric flags print an error
// and exit 2.
// Environment: S2FA_EVAL_TIMEOUT, S2FA_EVAL_RETRIES, S2FA_RESUME_JOURNAL,
// S2FA_FAULT_RATE, S2FA_EVAL_CACHE and S2FA_TECHNIQUES mirror the
// evaluation-stack flags;
// S2FA_SERVE_QUEUE, S2FA_HEDGE_QUANTILE, S2FA_QUARANTINE_WINDOW,
// S2FA_SHARDS, S2FA_TENANTS, S2FA_CHAOS_PLAN, S2FA_ROUTING, S2FA_STREAM,
// S2FA_ARRIVAL_RATE, S2FA_SLO, S2FA_RETRY_BUDGET and S2FA_BROWNOUT mirror
// the serving knobs;
// S2FA_PROFILE_OUT and S2FA_PERF_THRESHOLD mirror the profiler knobs
// (flags win).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "cache/eval_cache.h"
#include "blaze/cluster.h"
#include "blaze/runtime.h"
#include "blaze/service.h"
#include "blaze/stream.h"
#include "kir/printer.h"
#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "resilience/evaluator.h"
#include "tuner/technique.h"
#include "s2fa/framework.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/table.h"

using namespace s2fa;

namespace {

// A malformed command line: main prints the message and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Strict numeric parsers: the whole string must be the number (no trailing
// junk), so a typo'd value fails fast instead of silently truncating. A
// non-finite double (nan, inf) is rejected too: it slips past every range
// check.
std::optional<std::size_t> ParseSizeStrict(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

std::optional<double> ParseDoubleStrict(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

// Every flag some command reads. Anything else is a typo or a removed flag,
// and silently ignoring it would run a different experiment.
constexpr std::string_view kKnownFlags[] = {
    // global
    "trace-out", "metrics-out", "log-level",
    // explore
    "minutes", "cores", "seed", "vanilla", "no-seeds", "no-partition",
    "techniques", "eval-timeout", "eval-retries", "resume-journal",
    "fault-rate", "eval-cache", "scheduler",
    // run, profile
    "records", "accel-fault-rate", "top", "profile-out",
    // serve
    "replicas", "requests", "serve-queue", "hedge-quantile",
    "quarantine-window", "exec-threads", "shards", "tenants", "chaos-plan",
    "routing", "stream", "arrival-rate", "slo", "retry-budget", "brownout",
    // perf-diff
    "threshold",
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& flag) const { return flags.count(flag) != 0; }
  double Num(const std::string& flag, double fallback) const {
    auto it = flags.find(flag);
    if (it == flags.end()) return fallback;
    auto value = ParseDoubleStrict(it->second);
    if (!value) {
      throw UsageError("--" + flag + " expects a number, got '" +
                       it->second + "'");
    }
    return *value;
  }
  std::string Str(const std::string& flag) const {
    auto it = flags.find(flag);
    return it == flags.end() ? std::string() : it->second;
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      // Either --name=value, a bare boolean flag, or --name value (a
      // trailing --name keeps an empty value, so it is still checked).
      std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        args.flags[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (name == "vanilla" || name == "no-seeds" ||
                 name == "no-partition" || name == "stream") {
        args.flags[name] = "1";
      } else {
        args.flags[name] = i + 1 < argc ? argv[++i] : "";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage: s2fa <list|compile|explore|run|serve|report|profile|"
               "perf-diff> [arg] [flags]\n"
               "  explore flags: --minutes N --cores N --seed N --vanilla "
               "--no-seeds --no-partition\n"
               "                 --eval-timeout MIN --eval-retries N "
               "--resume-journal FILE --fault-rate P\n"
               "                 --eval-cache on|off|N "
               "--scheduler adaptive|fcfs\n"
               "  run flags:     --records N --seed N --minutes N "
               "--accel-fault-rate P\n"
               "  serve flags:   --replicas N --requests N --records N "
               "--seed N --minutes N\n"
               "                 --serve-queue N --hedge-quantile Q "
               "--quarantine-window N\n"
               "                 --exec-threads N --shards N (default 1)\n"
               "                 --tenants NAME:WEIGHT[:QUOTA],.. "
               "--chaos-plan PLAN\n"
               "                 --routing health|depth --stream "
               "--arrival-rate R --slo US\n"
               "                 --retry-budget REFILL:BURST "
               "--brownout ONSET:SHED[:FRAC]\n"
               "  report:        s2fa report <metrics.json>\n"
               "  profile flags: --minutes N --seed N --records N --top N "
               "--profile-out FILE\n"
               "  perf-diff:     s2fa perf-diff <old.json> <new.json> "
               "--threshold P\n"
               "  global flags:  --trace-out FILE --metrics-out FILE "
               "--log-level off|error|warn|info|debug\n"
               "  env:           S2FA_EVAL_TIMEOUT S2FA_EVAL_RETRIES "
               "S2FA_RESUME_JOURNAL S2FA_FAULT_RATE S2FA_EVAL_CACHE\n"
               "                 S2FA_SCHEDULER S2FA_SERVE_QUEUE "
               "S2FA_HEDGE_QUANTILE S2FA_QUARANTINE_WINDOW\n"
               "                 S2FA_SHARDS S2FA_TENANTS S2FA_CHAOS_PLAN\n"
               "                 S2FA_ROUTING S2FA_STREAM S2FA_ARRIVAL_RATE "
               "S2FA_SLO S2FA_RETRY_BUDGET S2FA_BROWNOUT\n"
               "                 S2FA_PROFILE_OUT S2FA_PERF_THRESHOLD\n");
  return 2;
}

// Fails fast when an export path can't be written, instead of silently
// losing the trace/metrics at exit after a long run. The append-mode probe
// leaves an existing file untouched.
bool CheckWritable(const char* what, const std::string& path) {
  if (path.empty()) return true;
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    std::fprintf(stderr, "error: %s path '%s' is not writable\n", what,
                 path.c_str());
    return false;
  }
  return true;
}

int CmdReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  obs::Summary summary = obs::ParseSummaryJson(text.str());
  std::printf("%s", obs::RenderSummaryTable(summary).c_str());
  return 0;
}

int CmdList() {
  TextTable table({"App", "Type", "Pattern", "Batch", "Loops", "Space"});
  for (apps::App& app : apps::AllApps()) {
    kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
    tuner::DesignSpace space = tuner::BuildDesignSpace(k);
    table.AddRow({app.name, app.type_label,
                  kir::PatternName(app.spec.pattern),
                  std::to_string(app.spec.batch),
                  std::to_string(k.Loops().size()),
                  "10^" + FormatDouble(space.Log10Cardinality(), 1)});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int CmdCompile(const apps::App& app) {
  const jvm::Method& method =
      app.pool->Get(app.spec.klass).GetMethod(app.spec.method);
  std::printf("=== kernel bytecode (%s.%s) ===\n%s\n",
              app.spec.klass.c_str(), app.spec.method.c_str(),
              jvm::Disassemble(method.code).c_str());
  kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
  std::printf("=== generated HLS C ===\n%s\n", kir::EmitC(k).c_str());
  blaze::SerializationPlan plan = blaze::MakeSerializationPlan(k);
  std::printf("=== accelerator interface ===\n");
  for (const auto& e : plan.entries) {
    std::printf("  %-6s %-7s %s x %lld/task%s\n", e.buffer.c_str(),
                e.is_input ? "input" : "output",
                e.element.ToString().c_str(),
                static_cast<long long>(e.per_task),
                e.broadcast ? "  (broadcast)" : "");
  }
  std::printf("\n=== generated Scala glue ===\n%s\n",
              blaze::RenderScalaHelper(plan).c_str());
  tuner::DesignSpace space = tuner::BuildDesignSpace(k);
  std::printf("=== design space: %zu factors, 10^%.1f points ===\n",
              space.num_factors(), space.Log10Cardinality());
  return 0;
}

int CmdExplore(const apps::App& app, const Args& args) {
  kir::Kernel k = b2c::CompileKernel(*app.pool, app.spec);
  tuner::DesignSpace space = tuner::BuildDesignSpace(k);
  tuner::EvalFn eval = MakeHlsEvaluator(k);
  const double minutes = args.Num("minutes", 240);
  const int cores = static_cast<int>(args.Num("cores", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.Num("seed", 2018));

  // Evaluation-stack knobs (resilience, journal, faults, cache) apply to
  // the vanilla baseline and the S2FA pipeline alike: environment first,
  // explicit flags win.
  dse::ExplorerOptions options;
  options.time_limit_minutes = minutes;
  options.num_cores = cores;
  options.seed = seed;
  options.enable_seeds = !args.Has("no-seeds");
  options.enable_partitioning = !args.Has("no-partition");

  const resilience::EnvKnobs env = resilience::ReadEnvKnobs();
  if (env.eval_timeout_minutes) {
    options.resilience.deadline_minutes = *env.eval_timeout_minutes;
  }
  if (env.eval_retries) options.resilience.max_retries = *env.eval_retries;
  if (env.resume_journal) options.journal_path = *env.resume_journal;
  double fault_rate = env.fault_rate.value_or(0.0);
  if (args.Has("eval-timeout")) {
    options.resilience.deadline_minutes = args.Num("eval-timeout", 60);
  }
  if (args.Has("eval-retries")) {
    options.resilience.max_retries =
        static_cast<int>(args.Num("eval-retries", 2));
  }
  if (args.Has("resume-journal")) {
    options.journal_path = args.Str("resume-journal");
  }
  if (args.Has("fault-rate")) fault_rate = args.Num("fault-rate", 0);
  if (fault_rate < 0 || fault_rate > 1) {
    std::fprintf(stderr, "error: --fault-rate must be in [0, 1]\n");
    return 2;
  }
  if (fault_rate > 0) {
    // Split the requested failure probability evenly across the taxonomy
    // so every failure mode gets exercised.
    options.faults.crash_rate = fault_rate / 3;
    options.faults.timeout_rate = fault_rate / 3;
    options.faults.garbage_rate = fault_rate / 3;
    options.faults.seed = seed ^ 0xFA17ULL;
  }
  // Partition scheduler: S2FA_SCHEDULER env, --scheduler flag wins.
  if (const char* env_sched = std::getenv("S2FA_SCHEDULER")) {
    auto parsed = dse::ParseSchedulerKind(env_sched);
    if (!parsed) {
      std::fprintf(stderr,
                   "error: S2FA_SCHEDULER expects adaptive|fcfs, got '%s'\n",
                   env_sched);
      return 2;
    }
    options.scheduler = *parsed;
  }
  if (args.Has("scheduler")) {
    auto parsed = dse::ParseSchedulerKind(args.Str("scheduler"));
    if (!parsed) {
      std::fprintf(stderr,
                   "error: --scheduler expects adaptive|fcfs, got '%s'\n",
                   args.Str("scheduler").c_str());
      return 2;
    }
    options.scheduler = *parsed;
  }
  // Technique roster: S2FA_TECHNIQUES env, --techniques flag wins. The
  // roster is validated up front (against this app's design space) so a
  // typo dies with the list of valid names instead of deep in the DSE.
  std::string technique_spec;
  if (const char* env_techniques = std::getenv("S2FA_TECHNIQUES")) {
    technique_spec = env_techniques;
  }
  if (args.Has("techniques")) technique_spec = args.Str("techniques");
  if (!technique_spec.empty()) {
    options.techniques = tuner::ParseTechniqueList(technique_spec);
    try {
      tuner::MakeTechniques(&space, seed, options.techniques);
    } catch (const InvalidArgument& e) {
      std::fprintf(stderr, "error: --techniques: %s\n", e.what());
      return 2;
    }
  }
  if (auto env_cache = cache::ReadEnvCacheOptions()) options.cache = *env_cache;
  if (args.Has("eval-cache")) {
    auto parsed = cache::ParseCacheSpec(args.Str("eval-cache"));
    if (!parsed) {
      std::fprintf(stderr,
                   "error: --eval-cache expects on|off|N, got '%s'\n",
                   args.Str("eval-cache").c_str());
      return 2;
    }
    options.cache = *parsed;
  }
  // Fail fast before the (simulated) hours of exploration, exactly like
  // the --trace-out/--metrics-out probes.
  if (!CheckWritable("--resume-journal", options.journal_path)) return 2;

  dse::DseResult result;
  if (args.Has("vanilla")) {
    result = dse::RunVanillaOpenTuner(space, eval, options);
  } else {
    result = dse::RunS2faDse(space, k, eval, options);
  }

  const resilience::ResilienceStats& rs = result.resilience;
  if (rs.retries > 0 || rs.exhausted > 0 || rs.short_circuits > 0) {
    std::printf("resilience: %zu retries (%zu crash, %zu timeout, "
                "%zu garbage), %zu points degraded, %zu breaker trips, "
                "%zu short-circuited\n",
                rs.retries, rs.crashes, rs.timeouts, rs.garbage,
                rs.exhausted, rs.breaker_trips, rs.short_circuits);
  }
  if (!options.journal_path.empty()) {
    std::printf("journal: %zu entries (%zu resumed, %zu re-used this "
                "run)\n",
                result.journal_entries, result.journal_resumed,
                result.journal_hits);
  }
  const cache::EvalCacheStats& cs = result.cache_stats;
  if (cs.lookups > 0) {
    std::printf("cache: %zu/%zu duplicate lookups answered (%.0f%% of the "
                "proposal stream), %zu joined in flight, %.0f simulated "
                "minutes not re-paid\n",
                cs.hits + cs.inflight_joins, cs.lookups,
                100.0 * cs.DuplicateRate(), cs.inflight_joins,
                cs.minutes_saved);
  }

  if (!args.Has("vanilla")) {
    std::printf("scheduler: %s\n",
                dse::SchedulerKindName(result.scheduler));
    if (result.scheduler == dse::SchedulerKind::kAdaptive &&
        result.schedule.reclaimed_minutes > 0) {
      std::printf("  budget ledger: %.0f min reclaimed, %.0f re-granted in "
                  "%zu slices (%zu preemptions), %zu extra evaluations, "
                  "%.0f min idle\n",
                  result.schedule.reclaimed_minutes,
                  result.schedule.regranted_minutes,
                  result.schedule.grants, result.schedule.preemptions,
                  result.schedule.reclaim_evaluations,
                  result.schedule.idle_minutes);
    }
  }
  std::printf("partitions:\n");
  for (const auto& p : result.partitions) {
    std::printf("  [%s] %s: %.0f-%.0f min, %zu evals, best %.2f us (%s)\n",
                p.description.c_str(), p.scheduled ? "ran" : "skipped",
                p.start_minutes, p.end_minutes, p.result.evaluations,
                p.clipped_best_cost, p.result.stop_reason.c_str());
    if (p.reclaim_grants > 0) {
      std::printf("      + %.0f reclaimed min in %zu grants, %zu evals, "
                  "best %.2f us\n",
                  p.reclaim_minutes, p.reclaim_grants,
                  p.reclaim_evaluations, p.reclaim_best_cost);
    }
  }
  std::printf("\ntrace (best-so-far):\n");
  for (const auto& tp : result.trace) {
    std::printf("  %7.1f min  %12.2f us\n", tp.time_minutes, tp.best_cost);
  }
  if (!result.found_feasible) {
    std::printf("\nno feasible design found\n");
    return 1;
  }
  std::printf("\nbest: %.2f us with %s\nfinished at %.0f simulated minutes, "
              "%zu evaluations\n",
              result.best_cost, result.best_config.ToString().c_str(),
              result.elapsed_minutes, result.evaluations);
  return 0;
}

int CmdRun(apps::App& app, const Args& args) {
  const std::size_t records =
      static_cast<std::size_t>(args.Num("records", 2048));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.Num("seed", 1));

  FrameworkOptions options;
  options.dse.time_limit_minutes = args.Num("minutes", 120);
  options.dse.seed = seed;
  Artifact artifact = BuildAccelerator(*app.pool, app.spec, options);
  std::printf("built %s: %.0f cycles @ %.0f MHz (%zu points explored)\n",
              app.name.c_str(), artifact.best_hls.cycles,
              artifact.best_hls.freq_mhz, artifact.exploration.evaluations);

  blaze::BlazeRuntime runtime;
  RegisterWithBlaze(runtime, app.name, artifact);
  const double accel_fault_rate = args.Num("accel-fault-rate", 0);
  if (accel_fault_rate < 0 || accel_fault_rate > 1) {
    std::fprintf(stderr, "error: --accel-fault-rate must be in [0, 1]\n");
    return 2;
  }
  if (accel_fault_rate > 0) {
    runtime.SetFaultInjector(
        blaze::MakeRandomFaultInjector(accel_fault_rate, seed ^ 0xB1A2ULL));
  }

  Rng rng(seed);
  blaze::Dataset input = app.make_input(records, rng);
  blaze::Dataset broadcast;
  const blaze::Dataset* bc = nullptr;
  if (app.make_broadcast) {
    Rng brng(seed ^ 0xBCA57ULL);
    broadcast = app.make_broadcast(brng);
    bc = &broadcast;
  }

  blaze::ExecutionStats stats;
  blaze::Dataset out =
      app.spec.pattern == kir::ParallelPattern::kReduce
          ? runtime.Reduce(app.name, input, bc, &stats)
          : runtime.Map(app.name, input, bc, &stats);
  apps::JvmRunResult jvm = apps::RunOnJvm(app, input, bc);

  // Functional cross-check against the JVM path.
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < out.num_columns(); ++c) {
    const blaze::Column& got = out.column(c);
    const blaze::Column& want = jvm.output.ColumnByField(got.field);
    for (std::size_t n = 0; n < got.data.size(); ++n) {
      double g = got.data[n].is_float() ? got.data[n].AsFloat()
                 : got.data[n].is_double()
                     ? got.data[n].AsDouble()
                     : static_cast<double>(got.data[n].AsInt());
      double w = want.data[n].is_float() ? want.data[n].AsFloat()
                 : want.data[n].is_double()
                     ? want.data[n].AsDouble()
                     : static_cast<double>(want.data[n].AsInt());
      double tol = 1e-4 * std::max(1.0, std::fabs(w));
      if (std::fabs(g - w) > tol) ++mismatches;
    }
  }

  std::printf("records: %zu  invocations: %zu  mismatches vs JVM: %zu\n",
              records, stats.invocations, mismatches);
  if (stats.accel_failures > 0) {
    std::printf("degradation: %zu failed attempts, %zu retries, %zu host "
                "fallbacks (%.3f ms on the host path)\n",
                stats.accel_failures, stats.accel_retries,
                stats.host_fallbacks, stats.host_us / 1e3);
  }
  std::printf("JVM:  %10.2f ms (modeled single thread)\n",
              jvm.total_ns / 1e6);
  std::printf("FPGA: %10.3f ms  -> speedup %.1fx\n", stats.total_us / 1e3,
              jvm.total_ns / 1000.0 / stats.total_us);
  return mismatches == 0 ? 0 : 1;
}

// Serving knobs resolved environment-first (flags win), each validated
// fail-fast in the same style as the evaluation-stack knobs. Returns
// false after printing the offending knob.
struct TenantSpec {
  std::string name;
  double weight = 1.0;
  std::size_t quota = 0;
};

struct ServeKnobs {
  blaze::ServiceOptions options;
  std::size_t queue_capacity = 64;  // the cluster's admission queue
  std::size_t shards = 1;
  std::vector<TenantSpec> tenants;
  blaze::ChaosPlan chaos;
  bool has_chaos = false;
  blaze::Routing routing = blaze::Routing::kHealth;

  // Streaming mode (--stream): open-ended arrivals through StreamSession
  // instead of the pre-staged replay.
  bool stream = false;
  double arrival_rate = 1.0;  // multiple of modeled cluster capacity
  double slo_us = 0;          // 0 = derived (30x the per-request cost)
  bool has_retry_budget = false;
  resilience::RetryBudgetOptions retry_budget;
  bool has_brownout = false;
  double brownout_onset_us = 0;
  double brownout_shed_us = 0;
  double brownout_fraction = 0.5;
};

// NAME:WEIGHT[:QUOTA], comma-separated; rejects duplicates and weight <= 0.
bool ParseTenantSpecs(const std::string& text,
                      std::vector<TenantSpec>& tenants) {
  std::stringstream stream(text);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    const std::string entry(Trim(piece));
    if (entry.empty()) return false;
    const std::size_t first = entry.find(':');
    if (first == std::string::npos) return false;
    TenantSpec spec;
    spec.name = entry.substr(0, first);
    if (spec.name.empty()) return false;
    const std::size_t second = entry.find(':', first + 1);
    const std::string weight_text =
        entry.substr(first + 1, second == std::string::npos
                                    ? std::string::npos
                                    : second - first - 1);
    auto weight = ParseDoubleStrict(weight_text);
    if (!weight || *weight <= 0) return false;
    spec.weight = *weight;
    if (second != std::string::npos) {
      auto quota = ParseSizeStrict(entry.substr(second + 1));
      if (!quota) return false;
      spec.quota = *quota;
    }
    for (const TenantSpec& existing : tenants) {
      if (existing.name == spec.name) return false;
    }
    tenants.push_back(std::move(spec));
  }
  return !tenants.empty();
}

bool ResolveServeKnobs(const Args& args, ServeKnobs& knobs) {
  auto resolve = [&](const char* env_name, const char* flag,
                     std::string& out) {
    if (const char* env = std::getenv(env_name)) out = env;
    if (args.Has(flag)) out = args.Str(flag);
    return !out.empty();
  };
  std::string text;
  if (resolve("S2FA_SERVE_QUEUE", "serve-queue", text)) {
    auto queue = ParseSizeStrict(text);
    if (!queue || *queue == 0) {
      std::fprintf(stderr,
                   "error: --serve-queue/S2FA_SERVE_QUEUE expects an "
                   "integer >= 1, got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.queue_capacity = *queue;
  }
  text.clear();
  if (resolve("S2FA_HEDGE_QUANTILE", "hedge-quantile", text)) {
    auto quantile = ParseDoubleStrict(text);
    if (!quantile || *quantile < 0 || *quantile > 1) {
      std::fprintf(stderr,
                   "error: --hedge-quantile/S2FA_HEDGE_QUANTILE expects a "
                   "value in [0, 1] (0 disables hedging), got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.options.hedge_quantile = *quantile;
  }
  text.clear();
  if (resolve("S2FA_QUARANTINE_WINDOW", "quarantine-window", text)) {
    auto window = ParseSizeStrict(text);
    if (!window || *window < 2) {
      std::fprintf(stderr,
                   "error: --quarantine-window/S2FA_QUARANTINE_WINDOW "
                   "expects an integer >= 2, got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.options.health_window = *window;
  }
  text.clear();
  if (resolve("S2FA_SHARDS", "shards", text)) {
    auto shards = ParseSizeStrict(text);
    if (!shards || *shards == 0) {
      std::fprintf(stderr,
                   "error: --shards/S2FA_SHARDS expects an integer >= 1, "
                   "got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.shards = *shards;
  }
  text.clear();
  if (resolve("S2FA_TENANTS", "tenants", text)) {
    if (!ParseTenantSpecs(text, knobs.tenants)) {
      std::fprintf(stderr,
                   "error: --tenants/S2FA_TENANTS expects unique "
                   "NAME:WEIGHT[:QUOTA] entries with weight > 0, got '%s'\n",
                   text.c_str());
      return false;
    }
  }
  text.clear();
  if (resolve("S2FA_CHAOS_PLAN", "chaos-plan", text)) {
    try {
      knobs.chaos = blaze::ParseChaosPlan(text);
      knobs.has_chaos = true;
    } catch (const MalformedInput& e) {
      std::fprintf(stderr, "error: --chaos-plan/S2FA_CHAOS_PLAN: %s\n",
                   e.what());
      return false;
    }
  }
  text.clear();
  if (resolve("S2FA_ROUTING", "routing", text)) {
    try {
      knobs.routing = blaze::ParseRouting(text);
    } catch (const MalformedInput& e) {
      std::fprintf(stderr, "error: --routing/S2FA_ROUTING: %s\n", e.what());
      return false;
    }
  }
  {
    std::string stream_text;
    if (const char* env = std::getenv("S2FA_STREAM")) stream_text = env;
    if (args.Has("stream")) stream_text = "1";
    knobs.stream = !stream_text.empty() && stream_text != "0";
  }
  text.clear();
  if (resolve("S2FA_ARRIVAL_RATE", "arrival-rate", text)) {
    auto rate = ParseDoubleStrict(text);
    if (!rate || !(*rate > 0) || !std::isfinite(*rate)) {
      std::fprintf(stderr,
                   "error: --arrival-rate/S2FA_ARRIVAL_RATE expects a "
                   "finite multiple of capacity > 0, got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.arrival_rate = *rate;
  }
  text.clear();
  if (resolve("S2FA_SLO", "slo", text)) {
    auto slo = ParseDoubleStrict(text);
    if (!slo || !(*slo > 0) || !std::isfinite(*slo)) {
      std::fprintf(stderr,
                   "error: --slo/S2FA_SLO expects a deadline in "
                   "microseconds > 0, got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.slo_us = *slo;
  }
  text.clear();
  if (resolve("S2FA_RETRY_BUDGET", "retry-budget", text)) {
    const std::size_t colon = text.find(':');
    auto refill = ParseDoubleStrict(text.substr(0, colon));
    std::optional<double> burst;
    if (colon != std::string::npos) {
      burst = ParseDoubleStrict(text.substr(colon + 1));
    }
    if (!refill || *refill < 0 || !burst || *burst < 1) {
      std::fprintf(stderr,
                   "error: --retry-budget/S2FA_RETRY_BUDGET expects "
                   "REFILL_PER_SEC:BURST with refill >= 0 and burst >= 1, "
                   "got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.retry_budget.refill_per_sec = *refill;
    knobs.retry_budget.burst = *burst;
    knobs.has_retry_budget = true;
  }
  text.clear();
  if (resolve("S2FA_BROWNOUT", "brownout", text)) {
    const std::size_t first = text.find(':');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : text.find(':', first + 1);
    auto onset = ParseDoubleStrict(text.substr(0, first));
    std::optional<double> shed;
    if (first != std::string::npos) {
      shed = ParseDoubleStrict(text.substr(
          first + 1, second == std::string::npos ? std::string::npos
                                                 : second - first - 1));
    }
    std::optional<double> fraction = 0.5;
    if (second != std::string::npos) {
      fraction = ParseDoubleStrict(text.substr(second + 1));
    }
    if (!onset || !(*onset > 0) || !shed || !(*shed > *onset) || !fraction ||
        !(*fraction > 0) || *fraction > 1.0) {
      std::fprintf(stderr,
                   "error: --brownout/S2FA_BROWNOUT expects "
                   "ONSET_US:SHED_US[:MAX_FRACTION] with 0 < onset < shed "
                   "and fraction in (0, 1], got '%s'\n",
                   text.c_str());
      return false;
    }
    knobs.brownout_onset_us = *onset;
    knobs.brownout_shed_us = *shed;
    knobs.brownout_fraction = *fraction;
    knobs.has_brownout = true;
  }
  const int exec_threads = static_cast<int>(args.Num("exec-threads", 1));
  if (exec_threads < 1) {
    std::fprintf(stderr, "error: --exec-threads must be >= 1\n");
    return false;
  }
  knobs.options.exec_threads = exec_threads;
  return true;
}

// Fuzzy reference comparison shared by the replay and streaming paths.
std::size_t CountMismatches(const blaze::Dataset& want,
                            const blaze::Dataset& got) {
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const blaze::Column& w = want.column(c);
    const blaze::Column& g = got.ColumnByField(w.field);
    for (std::size_t n = 0; n < w.data.size(); ++n) {
      double wv = w.data[n].is_float() ? w.data[n].AsFloat()
                  : w.data[n].is_double()
                      ? w.data[n].AsDouble()
                      : static_cast<double>(w.data[n].AsInt());
      double gv = g.data[n].is_float() ? g.data[n].AsFloat()
                  : g.data[n].is_double()
                      ? g.data[n].AsDouble()
                      : static_cast<double>(g.data[n].AsInt());
      if (std::fabs(gv - wv) > 1e-4 * std::max(1.0, std::fabs(wv))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// Streaming serve (--stream): records arrive continuously per a
// rate-programmed schedule and flow through StreamSession's SLO-bound
// micro-batching and overload ladder on top of the cluster. The ladder
// thresholds scale off the modeled per-request cost unless overridden, so
// the same flags behave sensibly across kernels. Exit 0 only when every
// record reached exactly one terminal state, the external watermark never
// regressed, and every committed output matches the native reference.
int RunStreamServe(apps::App& app, const ServeKnobs& knobs,
                   blaze::BlazeCluster& cluster, int requests,
                   std::size_t records, std::uint64_t seed,
                   const blaze::Dataset* bc) {
  const double record_us = cluster.AccelUsFor(app.name, records);

  blaze::StreamOptions sopts;
  sopts.slo_us = knobs.slo_us > 0 ? knobs.slo_us : 30.0 * record_us;
  sopts.batch_age_us = record_us;
  sopts.deadline_headroom_us = std::min(2.0 * record_us, sopts.slo_us / 4);
  sopts.codel_target_us = 2.0 * record_us;
  sopts.codel_interval_us = 4.0 * record_us;
  if (knobs.has_brownout) {
    sopts.brownout_onset_us = knobs.brownout_onset_us;
    sopts.shed_onset_us = knobs.brownout_shed_us;
    sopts.brownout_max_fraction = knobs.brownout_fraction;
  } else {
    sopts.brownout_onset_us = 3.0 * record_us;
    sopts.shed_onset_us = 8.0 * record_us;
  }
  if (knobs.has_retry_budget) sopts.retry_budget = knobs.retry_budget;

  // One arrival phase per declared tenant, all spanning the same window;
  // the aggregate rate is `arrival_rate` times the modeled capacity of
  // every replica lane (one per replica, across all shards).
  std::vector<std::string> tenant_names;
  for (const TenantSpec& spec : knobs.tenants) {
    tenant_names.push_back(spec.name);
  }
  if (tenant_names.empty()) tenant_names.push_back("default");
  const double duration_us =
      static_cast<double>(requests) * record_us /
      (static_cast<double>(cluster.LiveLanesAt(0)) * knobs.arrival_rate);
  blaze::ArrivalSchedule schedule;
  for (std::size_t t = 0; t < tenant_names.size(); ++t) {
    blaze::ArrivalPhase phase;
    phase.tenant = tenant_names[t];
    phase.start_us = 0;
    phase.duration_us = duration_us;
    phase.count = static_cast<std::size_t>(requests) / tenant_names.size() +
                  (t < static_cast<std::size_t>(requests) %
                           tenant_names.size()
                       ? 1
                       : 0);
    if (phase.count > 0) schedule.phases.push_back(std::move(phase));
  }

  // Inputs pre-generated by ordinal so the reference cross-check sees the
  // same data the generator hands the session.
  Rng rng(seed);
  std::vector<blaze::Dataset> inputs;
  std::vector<blaze::Dataset> expected;
  inputs.reserve(static_cast<std::size_t>(requests));
  expected.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    inputs.push_back(app.make_input(records, rng));
    expected.push_back(app.reference(inputs.back(), bc));
  }

  blaze::StreamSession session(cluster, sopts);
  std::vector<blaze::StreamRecordOutcome> outcomes = session.Run(
      schedule, [&app, &inputs, bc](std::size_t ordinal) {
        blaze::StreamRecord record;
        record.kernel = app.name;
        record.input = inputs[ordinal];
        record.broadcast = bc;
        return record;
      });

  std::size_t mismatches = 0;
  for (const blaze::StreamRecordOutcome& o : outcomes) {
    if (blaze::IsStreamShed(o.outcome)) continue;
    mismatches += CountMismatches(expected[o.seq], o.output);
  }
  const blaze::StreamStats& s = session.stats();
  const std::size_t lost = s.arrivals - s.committed - s.committed_host -
                           s.shed_total();
  bool watermark_monotone = true;
  for (std::size_t i = 1; i < s.watermark_trace.size(); ++i) {
    if (s.watermark_trace[i].second < s.watermark_trace[i - 1].second) {
      watermark_monotone = false;
    }
  }

  std::printf("stream serving %d records x %zu input records on %zu "
              "shard%s (%.2fx capacity, slo %.0f us, %s routing)\n",
              requests, records, knobs.shards, knobs.shards == 1 ? "" : "s",
              knobs.arrival_rate, sopts.slo_us,
              blaze::RoutingName(knobs.routing));
  std::printf("arrivals:  %zu; committed %zu cluster + %zu host; shed %zu "
              "(%zu unmeetable, %zu brownout, %zu retry-budget, %zu "
              "queue-full); %zu lost\n",
              s.arrivals, s.committed, s.committed_host, s.shed_total(),
              s.shed_unmeetable, s.shed_brownout, s.shed_retry_budget,
              s.shed_queue_full, lost);
  std::printf("batching:  %zu closed (%zu count / %zu age / %zu deadline), "
              "%zu dispatched, %zu host-routed, %zu shed\n",
              s.batches_closed, s.close_count, s.close_age, s.close_deadline,
              s.batches_dispatched, s.batches_host, s.batches_shed);
  std::printf("overload:  %zu codel engagements, retries %zu granted / %zu "
              "denied, max queue delay %.0f us\n",
              s.codel_engagements, s.retries_granted, s.retries_denied,
              s.max_queue_delay_us);
  std::printf("watermark: %.0f us (%s)\n", s.watermark_us,
              watermark_monotone ? "monotone" : "REGRESSED");
  std::printf("latency:   p50 %.0f / p95 %.0f / p99 %.0f us\n",
              s.LatencyQuantile(0.5), s.LatencyQuantile(0.95),
              s.LatencyQuantile(0.99));
  TextTable table({"Tenant", "Arrivals", "Committed", "Host", "Unmeetable",
                   "Brownout", "RetryBudget", "QueueFull", "Retries"});
  for (const auto& [name, ts] : s.tenants) {
    table.AddRow({name, std::to_string(ts.arrivals),
                  std::to_string(ts.committed),
                  std::to_string(ts.committed_host),
                  std::to_string(ts.shed_unmeetable),
                  std::to_string(ts.shed_brownout),
                  std::to_string(ts.shed_retry_budget),
                  std::to_string(ts.shed_queue_full),
                  std::to_string(ts.retries)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("mismatches vs reference: %zu\n", mismatches);
  return (lost == 0 && mismatches == 0 && watermark_monotone) ? 0 : 1;
}

// Serves the request stream through BlazeCluster, the only serving path:
// replicas spread round-robin over `knobs.shards` fault domains, requests
// assigned to the declared tenants round-robin, optional scripted chaos.
// Prints the cluster ledger, each shard's replica health and hedging, and
// a per-tenant fairness table; exit 0 only when nothing was lost and every
// served output matches the native reference.
int CmdServe(apps::App& app, const Args& args) {
  ServeKnobs knobs;
  if (!ResolveServeKnobs(args, knobs)) return 2;
  const int replicas = static_cast<int>(args.Num("replicas", 2));
  const int requests = static_cast<int>(args.Num("requests", 32));
  const std::size_t records =
      static_cast<std::size_t>(args.Num("records", 256));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  if (replicas < 1 || requests < 1 || records < 1) {
    std::fprintf(stderr,
                 "error: --replicas, --requests and --records must be >= 1\n");
    return 2;
  }
  knobs.options.seed = seed;

  FrameworkOptions options;
  options.dse.time_limit_minutes = args.Num("minutes", 120);
  options.dse.seed = seed;
  Artifact artifact = BuildAccelerator(*app.pool, app.spec, options);
  std::printf("built %s: %.0f cycles @ %.0f MHz (%zu points explored)\n",
              app.name.c_str(), artifact.best_hls.cycles,
              artifact.best_hls.freq_mhz, artifact.exploration.evaluations);

  blaze::BlazeRuntime runtime;
  std::vector<std::string> ids;
  for (int i = 0; i < replicas; ++i) {
    ids.push_back(app.name + "#" + std::to_string(i));
    RegisterWithBlaze(runtime, ids.back(), artifact);
  }

  blaze::ClusterOptions coptions;
  coptions.shard_options = knobs.options;
  coptions.exec_threads = knobs.options.exec_threads;
  coptions.seed = knobs.options.seed;
  coptions.queue_capacity = knobs.queue_capacity;
  coptions.routing = knobs.routing;
  blaze::BlazeCluster cluster(runtime, coptions);
  for (std::size_t s = 0; s < knobs.shards; ++s) cluster.AddShard();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    cluster.AddReplica(i % knobs.shards, app.name, ids[i]);
  }
  std::vector<std::string> tenant_names;
  for (const TenantSpec& spec : knobs.tenants) {
    cluster.AddTenant(spec.name, spec.weight, spec.quota);
    tenant_names.push_back(spec.name);
  }
  if (tenant_names.empty()) tenant_names.push_back("default");

  blaze::Dataset broadcast;
  const blaze::Dataset* bc = nullptr;
  if (app.make_broadcast) {
    Rng brng(seed ^ 0xBCA57ULL);
    broadcast = app.make_broadcast(brng);
    bc = &broadcast;
  }
  if (knobs.has_chaos) {
    try {
      cluster.SetChaosPlan(knobs.chaos);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: --chaos-plan/S2FA_CHAOS_PLAN: %s\n",
                   e.what());
      return 2;
    }
    // Floods draw from the same workload generator on a disjoint stream.
    auto flood_rng = std::make_shared<Rng>(seed ^ 0xF100DULL);
    cluster.SetFloodGenerator(
        [&app, bc, records, flood_rng](std::size_t) {
          blaze::ClusterRequest rq;
          rq.kernel = app.name;
          rq.input = app.make_input(records, *flood_rng);
          rq.broadcast = bc;
          return rq;
        });
  }

  if (knobs.stream) {
    return RunStreamServe(app, knobs, cluster, requests, records, seed, bc);
  }

  // Open-loop arrivals near the full cluster's service rate, with
  // deterministic jitter: enough pressure to queue without drowning the
  // admission gate.
  const double request_us = cluster.AccelUsFor(app.name, records);
  const double spacing_us =
      0.8 * request_us / static_cast<double>(ids.size());
  Rng rng(seed);
  std::vector<blaze::ClusterRequest> stream;
  std::vector<blaze::Dataset> expected;
  double arrival = 0;
  for (int i = 0; i < requests; ++i) {
    blaze::ClusterRequest rq;
    rq.kernel = app.name;
    rq.input = app.make_input(records, rng);
    rq.broadcast = bc;
    rq.arrival_us = arrival;
    rq.tenant = tenant_names[static_cast<std::size_t>(i) %
                             tenant_names.size()];
    arrival += spacing_us * rng.NextDouble(0.5, 1.5);
    expected.push_back(app.reference(rq.input, bc));
    stream.push_back(std::move(rq));
  }
  std::vector<blaze::ClusterRequestOutcome> outcomes =
      cluster.Run(std::move(stream));

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const blaze::ClusterRequestOutcome& o = outcomes[i];
    if (o.outcome == blaze::ClusterServe::kRejectedFull ||
        o.outcome == blaze::ClusterServe::kTenantThrottled) {
      continue;
    }
    mismatches += CountMismatches(expected[i], o.output);
  }

  const blaze::ClusterStats& s = cluster.stats();
  const std::size_t lost =
      s.submitted - s.completed - s.rejected_full - s.tenant_throttled;
  std::printf("cluster serving %d requests x %zu records on %zu shard%s "
              "(%zu replicas, queue %zu, batch <= %zu, %d exec threads, "
              "%s routing)\n",
              requests, records, knobs.shards, knobs.shards == 1 ? "" : "s",
              ids.size(), coptions.queue_capacity,
              coptions.batch_max_requests, coptions.exec_threads,
              blaze::RoutingName(coptions.routing));
  std::printf("admitted:  %zu/%zu (%zu rejected at the gate, %zu tenant "
              "throttled), max queue depth %zu\n",
              s.admitted, s.submitted, s.rejected_full, s.tenant_throttled,
              s.max_queue_depth);
  std::printf("completed: %zu (%zu accelerator, %zu host, %zu hedged "
              "host), %zu lost\n",
              s.completed, s.completed_accel, s.completed_host,
              s.completed_hedge, lost);
  std::printf("batching:  %zu batches, %zu members, max batch %zu\n",
              s.batches, s.batched_requests, s.max_batch);
  std::printf("latency:   p50 %.0f / p95 %.0f / p99 %.0f us\n",
              s.LatencyQuantile(0.5), s.LatencyQuantile(0.95),
              s.LatencyQuantile(0.99));
  if (s.failovers > 0 || s.bisect_attempts > 0 || s.flood_injected > 0) {
    std::printf("chaos:     %zu failovers, %zu redirects (%zu exhausted), "
                "%zu bisect attempts, %zu poison isolated, %zu flood "
                "requests, %zu commit conflicts\n",
                s.failovers, s.redirects, s.redirect_exhausted,
                s.bisect_attempts, s.poison_isolated, s.flood_injected,
                s.commit_conflicts);
  }
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const blaze::ShardStats& shard = s.shards[i];
    std::printf("shard %zu:   %zu batches, %zu requests, %zu kills, %zu "
                "restarts, %.1f ms busy (%.1f ms wasted)\n",
                i, shard.batches, shard.requests, shard.kills,
                shard.restarts, shard.busy_us / 1e3, shard.wasted_us / 1e3);
    // The shard's BlazeService since its last (re)start: the replica
    // health state machine and service-level hedging.
    const blaze::BlazeService& service = cluster.shard_service(i);
    const blaze::ServiceStats& ss = service.stats();
    if (ss.accel_failures > 0 || ss.probes > 0) {
      std::printf("  health:  %zu failed attempts (%zu crash, %zu timeout), "
                  "%zu degradations, %zu quarantines, %zu probes "
                  "(%zu ok / %zu failed), %zu re-enlistments\n",
                  ss.accel_failures, ss.crashes, ss.timeouts,
                  ss.degradations, ss.quarantines, ss.probes,
                  ss.probe_successes, ss.probe_failures, ss.reenlistments);
    }
    if (ss.hedges_launched > 0) {
      std::printf("  hedging: %zu launched, %zu won (%.3f ms saved), %zu "
                  "cancelled, %.3f ms of losers' charges not billed\n",
                  ss.hedges_launched, ss.hedges_won, ss.hedge_saved_us / 1e3,
                  ss.hedges_cancelled, ss.cancelled_charge_us / 1e3);
    }
    std::string health;
    for (std::size_t r = i; r < ids.size(); r += knobs.shards) {
      health += (r == i ? "" : ", ") + ids[r] + "=" +
                blaze::HealthName(service.health(ids[r]));
    }
    if (!health.empty()) std::printf("  replicas: %s\n", health.c_str());
  }
  // Shed columns split by reason (queue-full vs quota throttle) and
  // completions by serving path, so fairness regressions show *why* a
  // tenant lost traffic and *how* the surviving traffic was served.
  TextTable table({"Tenant", "Weight", "Quota", "Submitted", "Admitted",
                   "ShedFull", "Throttled", "Completed", "Accel", "Host",
                   "Hedge", "Records", "p50 us", "p99 us"});
  for (const auto& [name, ts] : s.tenants) {
    table.AddRow({name, FormatDouble(ts.weight, 1),
                  ts.quota == 0 ? "-" : std::to_string(ts.quota),
                  std::to_string(ts.submitted), std::to_string(ts.admitted),
                  std::to_string(ts.rejected_full),
                  std::to_string(ts.throttled), std::to_string(ts.completed),
                  std::to_string(ts.completed_accel),
                  std::to_string(ts.completed_host),
                  std::to_string(ts.completed_hedge),
                  std::to_string(ts.records_completed),
                  FormatDouble(ts.LatencyQuantile(0.5), 0),
                  FormatDouble(ts.LatencyQuantile(0.99), 0)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("mismatches vs reference: %zu\n", mismatches);
  return (lost == 0 && mismatches == 0) ? 0 : 1;
}

int CmdProfile(apps::App& app, const Args& args) {
  // Chrome-trace destination: S2FA_PROFILE_OUT env, --profile-out wins.
  std::string profile_out;
  if (const char* env = std::getenv("S2FA_PROFILE_OUT")) profile_out = env;
  if (args.Has("profile-out")) profile_out = args.Str("profile-out");
  if (!CheckWritable("--profile-out", profile_out)) return 2;
  const std::size_t records =
      static_cast<std::size_t>(args.Num("records", 2048));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  const std::size_t top = static_cast<std::size_t>(args.Num("top", 20));

  // Single-core DSE keeps the whole run on one thread, so the hot-path
  // self times are disjoint and their sum is bounded by the wall clock.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Tracer::Global().Reset();
  const std::uint64_t t0 = MonotonicMicros();
  {
    S2FA_SPAN("cli.profile");
    FrameworkOptions options;
    options.dse.time_limit_minutes = args.Num("minutes", 30);
    options.dse.num_cores = 1;
    options.dse.seed = seed;
    Artifact artifact = BuildAccelerator(*app.pool, app.spec, options);

    blaze::BlazeRuntime runtime;
    RegisterWithBlaze(runtime, app.name, artifact);
    Rng rng(seed);
    blaze::Dataset input = app.make_input(records, rng);
    blaze::Dataset broadcast;
    const blaze::Dataset* bc = nullptr;
    if (app.make_broadcast) {
      Rng brng(seed ^ 0xBCA57ULL);
      broadcast = app.make_broadcast(brng);
      bc = &broadcast;
    }
    if (app.spec.pattern == kir::ParallelPattern::kReduce) {
      runtime.Reduce(app.name, input, bc);
    } else {
      runtime.Map(app.name, input, bc);
    }
  }
  const double wall_us = static_cast<double>(MonotonicMicros() - t0);
  std::vector<obs::SpanEvent> events = obs::Tracer::Global().Drain();
  obs::SetEnabled(was_enabled);

  if (events.empty()) {
    std::fprintf(stderr,
                 "error: no spans recorded (obs compiled out?); nothing to "
                 "profile\n");
    return 1;
  }
  obs::Profile profile = obs::BuildProfile(events);
  std::printf("=== hot paths: %s, %zu records (top %zu) ===\n%s",
              app.name.c_str(), records, top,
              obs::RenderHotPathTable(profile, top,
                                      static_cast<double>(records))
                  .c_str());
  double self_sum_us = 0;
  for (const obs::HotPathRow& row : profile.flat) self_sum_us += row.self_us;
  std::printf("wall clock %.1f ms, span self-time total %.1f ms (%.0f%% "
              "attributed)\n",
              wall_us / 1e3, self_sum_us / 1e3,
              wall_us > 0 ? 100.0 * self_sum_us / wall_us : 0.0);
  if (!profile_out.empty()) {
    obs::WriteChromeTraceFile(profile_out, events);
    std::fprintf(stderr, "chrome trace written to %s\n", profile_out.c_str());
  }
  return 0;
}

int CmdPerfDiff(const Args& args) {
  if (args.positional.size() < 3) {
    std::fprintf(
        stderr,
        "usage: s2fa perf-diff <old.json> <new.json> [--threshold P]\n");
    return 2;
  }
  // Regression threshold (fraction): S2FA_PERF_THRESHOLD env, flag wins.
  double threshold = obs::kDefaultPerfThreshold;
  std::string text;
  if (const char* env = std::getenv("S2FA_PERF_THRESHOLD")) text = env;
  if (args.Has("threshold")) text = args.Str("threshold");
  if (!text.empty()) {
    auto parsed = ParseDoubleStrict(text);
    if (!parsed || *parsed < 0) {
      std::fprintf(stderr,
                   "error: --threshold/S2FA_PERF_THRESHOLD expects a "
                   "fraction >= 0 (0.1 = 10%%), got '%s'\n",
                   text.c_str());
      return 2;
    }
    threshold = *parsed;
  }
  const obs::PerfRecord prev = obs::LoadPerfRecord(args.positional[1]);
  const obs::PerfRecord next = obs::LoadPerfRecord(args.positional[2]);
  std::printf("comparing %s (%s) -> %s (%s), workload %s\n",
              args.positional[1].c_str(), prev.source.c_str(),
              args.positional[2].c_str(), next.source.c_str(),
              next.workload.c_str());
  obs::RecordDiff diff;
  try {
    diff = obs::ComparePerfRecords(prev, next, threshold);
  } catch (const InvalidArgument& e) {
    throw UsageError(e.what());
  }
  std::printf("%s", obs::RenderRecordDiffTable(diff).c_str());
  if (diff.HasRegression()) {
    std::fprintf(stderr,
                 "perf-diff: FAIL — %zu regressed (a modeled or exact value "
                 "moved, or a measured one rose past %g%%)\n",
                 diff.Count(obs::RecordDiffKind::kRegressed),
                 threshold * 100);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  for (const auto& [name, value] : args.flags) {
    if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags), name) ==
        std::end(kKnownFlags)) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      return Usage();
    }
  }
  if (args.positional.empty()) return Usage();
  const std::string& cmd = args.positional[0];

  if (args.Has("log-level")) {
    auto level = ParseLogLevel(args.Str("log-level"));
    if (!level) {
      std::fprintf(stderr,
                   "error: bad --log-level '%s' (expected 0-4 or "
                   "off/error/warn/info/debug)\n",
                   args.Str("log-level").c_str());
      return 2;
    }
    Logger::SetLevel(*level);
  }
  const std::string trace_out = args.Str("trace-out");
  const std::string metrics_out = args.Str("metrics-out");
  if (!CheckWritable("--trace-out", trace_out) ||
      !CheckWritable("--metrics-out", metrics_out)) {
    return 2;
  }
  if (!trace_out.empty() || !metrics_out.empty()) obs::SetEnabled(true);

  try {
    int rc;
    if (cmd == "list") {
      rc = CmdList();
    } else if (args.positional.size() < 2) {
      return Usage();
    } else if (cmd == "report") {
      return CmdReport(args.positional[1]);
    } else if (cmd == "perf-diff") {
      return CmdPerfDiff(args);
    } else {
      apps::App app = apps::FindApp(args.positional[1]);
      if (cmd == "compile") rc = CmdCompile(app);
      else if (cmd == "explore") rc = CmdExplore(app, args);
      else if (cmd == "run") rc = CmdRun(app, args);
      else if (cmd == "serve") rc = CmdServe(app, args);
      else if (cmd == "profile") rc = CmdProfile(app, args);
      else return Usage();
    }
    if (!trace_out.empty()) {
      obs::WriteTraceFile(trace_out, obs::Tracer::Global().Events());
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      obs::WriteSummaryFile(metrics_out, obs::CaptureSummary());
      std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
    }
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
