// Span tracing for the traced benchmark pass.
//
// The benchmark records its own spans around every public call it makes
// into the program (b2c::CompileKernel, dse::RunS2faDse,
// BlazeRuntime::Map, StreamSession::Run, ...). Where one public call
// covers several layers, the spans the program already emits through
// obs (merlin.apply, hls.estimate, dse.train, tuner.tune,
// blaze.stream.run, blaze.cluster.drain, blaze.svc.request, blaze.map,
// ...) split it. StopTracing merges both kinds into one list with parents
// (by nesting on each thread), operation ids, and self times (a span's
// duration minus the time its children cover).
//
// Benchmark span names read "<layer>:<call>"; program span names map to
// layers by LayerOf. Both use support's MonotonicMicros clock, so the two
// kinds nest exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  int thread = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  std::int64_t parent = -1;  // index into the merged list; -1 = root
  std::uint64_t op = 0;      // shared by every span of one operation
  bool program = false;      // emitted by the program (obs), not the bench
  double self_us = 0;
};

// The layer a span belongs to: the text before ':' for benchmark spans;
// for program spans the module prefix, with blaze.stream.*, blaze.cluster.*
// and blaze.svc.* split out as stream, cluster and svc.
std::string LayerOf(const std::string& name);

// Clears both recorders and turns them on (benchmark spans and the
// program's obs layer together).
void StartTracing();
// Turns both off and returns the merged spans, ordered by thread and
// start time (parents before children).
std::vector<Span> StopTracing();

// Records "<layer>:<call>" around the enclosing scope while tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  std::uint64_t start_us_ = 0;
};

// Marks every span this thread records in the enclosing scope, and every
// span other threads record while it is open, as part of operation `id`.
class ScopedOp {
 public:
  explicit ScopedOp(std::uint64_t id);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  std::uint64_t previous_;
  std::uint64_t start_us_ = 0;
};

// Self time summed per layer over every thread.
std::map<std::string, double> SelfUsByLayer(const std::vector<Span>& spans);

// Writes the spans as a Chrome trace (chrome://tracing, Perfetto): the
// earliest `max_spans` of them by start time, so a long traced pass stays
// a file a viewer can open. Returns how many were written.
std::size_t WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path, std::size_t max_spans);

}  // namespace perfbench
