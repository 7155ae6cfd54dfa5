#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

constexpr int kSteps = 100000;

/// The same work on every call: a fixed xorshift walk whose bits pick one
/// of two floating-point updates. It touches no memory, so it neither
/// waits for nor evicts the program's cached data. The result is returned
/// so the work is not elided.
__attribute__((noinline)) double Kernel() {
  uint64_t x = 0x2545F4914F6CDD1Dull;
  double acc = 1.0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t t = static_cast<uint32_t>(x >> 17);
    if (t & 1u) {
      acc += std::sqrt(static_cast<double>(t));
    } else {
      acc = acc * 0.999 + static_cast<double>(t >> 7);
    }
  }
  return acc;
}

volatile double sink = 0.0;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PinToCurrentCpu::PinToCurrentCpu() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t want;
  CPU_ZERO(&want);
  CPU_SET(cpu, &want);
  restore_ = sched_setaffinity(0, sizeof(want), &want) == 0;
}

PinToCurrentCpu::~PinToCurrentCpu() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double ReferenceMs(int runs) {
  std::vector<double> ms;
  for (int r = 0; r < std::max(1, runs); ++r) {
    const double t0 = NowMs();
    sink = sink + Kernel();
    ms.push_back(NowMs() - t0);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace perfbench
