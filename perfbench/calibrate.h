// Host-speed calibration for the end-to-end host timings.
//
// On a shared host the same work runs 20-40% faster or slower from one
// minute to the next, as other tenants load the cores and caches, and
// run-long medians follow that drift. The benchmark therefore times a
// fixed set of small kernels of its own between the workload's operations
// (integer chains, hash and ordered maps, string building, sorting: about
// 0.6 ms per sample, one sample per 10 ms of work) and reports its host
// timings at the reference speed, at which the geometric mean of the
// kernels' median times is kReferenceSampleUs:
//
//   reference time = measured time x (kReferenceSampleUs / that mean)^kSlope
//
// The program slows more than the kernels when the host is busy: across
// runs on a 4-vCPU VM, log(program time) moved 1.2 to 2.7 times (median
// 1.7) as far as log(kernel time). kSlope = 1.5 stays under that range's
// middle, so that a slowdown that hits program and kernels alike is
// over-corrected by at most half of it.
//
// The kernels are the benchmark's, not the program's, so a change to the
// program moves the measured times and not the samples. The measured times
// stay in the full report.
#pragma once

#include <cstddef>

namespace perfbench {

// That mean on the 4-vCPU VM the benchmark was tuned on, where reference
// times therefore read close to measured ones.
constexpr double kReferenceSampleUs = 100.0;
constexpr double kSlope = 1.5;

// Starts a calibrated span: clears the samples and takes the first.
void StartCalibration();
// Takes a sample if 10 ms have passed since the last one; a no-op outside
// a calibrated span. Called between timed operations.
void Calibrate();
// Ends the span and returns (kReferenceSampleUs / the mean above)^kSlope:
// the factor that turns a measured time into a reference time.
double StopCalibration();
// Samples taken in the last calibrated span, and the wall time they took.
std::size_t CalibrationSamples();
double CalibrationSeconds();

}  // namespace perfbench
