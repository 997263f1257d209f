#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "report.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// One sample per this much wall time: about 5% of a run.
constexpr double kSampleEveryUs = 10e3;
constexpr int kKernels = 6;

// Keeps the kernels' results live.
volatile std::uint64_t sink;

struct State {
  bool on = false;
  Clock::time_point last;
  double spent_s = 0;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  std::vector<std::string> names;
  std::map<std::string, int> by_name;
  std::vector<double> samples_us[kKernels];

  State() {
    for (int i = 0; i < 2000; ++i) {
      names.push_back("factor_" + std::to_string(Next() % 100000) + "_loop" +
                      std::to_string(i));
      by_name[names.back()] = i;
    }
  }
  std::uint64_t Next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
};

State& Get() {
  static State state;
  return state;
}

// Each kernel takes about 80 us on the reference host. They differ in
// what limits them, as the program's layers do.
void RunKernel(int kernel, State& s) {
  switch (kernel) {
    case 0: {  // dependent integer chain: latency-bound
      std::uint64_t h = 1;
      for (int i = 0; i < 30000; ++i) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        h ^= h >> 29;
      }
      sink = h;
      break;
    }
    case 1: {  // independent chains: throughput-bound
      std::uint64_t a = 1, b = 2, c = 3, d = 4;
      for (int i = 0; i < 30000; ++i) {
        a = a * 6364136223846793005ULL + 1;
        b = b * 2862933555777941757ULL + 3;
        c ^= c << 7;
        c ^= c >> 9;
        d += (a >> 3) ^ (b << 2);
      }
      sink = a + b + c + d;
      break;
    }
    case 2: {  // hash map with a node allocation per key
      std::unordered_map<std::uint64_t, std::uint64_t> map;
      for (int i = 0; i < 500; ++i) map[s.Next() % 1250] += i;
      std::uint64_t sum = 0;
      for (int i = 0; i < 500; ++i) {
        auto it = map.find(s.Next() % 1250);
        if (it != map.end()) sum += it->second;
      }
      sink = sum;
      break;
    }
    case 3: {  // ordered map lookups by string
      int sum = 0;
      for (int i = 0; i < 300; ++i) {
        sum += s.by_name.find(s.names[s.Next() % s.names.size()])->second;
      }
      sink = static_cast<std::uint64_t>(sum);
      break;
    }
    case 4: {  // string building and sorting
      std::vector<std::string> v;
      for (int i = 0; i < 200; ++i) {
        v.push_back("op" + std::to_string(s.Next() % 1000) + "_" +
                    std::to_string(i));
      }
      std::sort(v.begin(), v.end());
      sink = v.front().size();
      break;
    }
    default: {  // sorting doubles: unpredictable branches
      std::vector<double> v(1024);
      for (double& x : v) x = static_cast<double>(s.Next() % 1000003);
      std::sort(v.begin(), v.end());
      sink = static_cast<std::uint64_t>(v[v.size() / 2]);
      break;
    }
  }
}

void Sample(State& s) {
  for (int k = 0; k < kKernels; ++k) {
    const Clock::time_point start = Clock::now();
    RunKernel(k, s);
    s.last = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(s.last - start).count();
    s.samples_us[k].push_back(us);
    s.spent_s += us / 1e6;
  }
}

}  // namespace

void StartCalibration() {
  State& s = Get();
  s.on = true;
  s.spent_s = 0;
  for (auto& samples : s.samples_us) samples.clear();
  Sample(s);
}

void Calibrate() {
  State& s = Get();
  if (!s.on) return;
  if (std::chrono::duration<double, std::micro>(Clock::now() - s.last)
          .count() >= kSampleEveryUs) {
    Sample(s);
  }
}

double StopCalibration() {
  State& s = Get();
  s.on = false;
  double log_sum = 0;
  for (const auto& samples : s.samples_us) log_sum += std::log(Median(samples));
  return std::pow(kReferenceSampleUs / std::exp(log_sum / kKernels), kSlope);
}

std::size_t CalibrationSamples() { return Get().samples_us[0].size(); }

double CalibrationSeconds() { return Get().spent_s; }

}  // namespace perfbench
