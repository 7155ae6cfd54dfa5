#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <sched.h>

namespace perfbench {

/// Wall time of the reference kernel, ms: the median of `runs`
/// back-to-back runs on the calling thread.
///
/// The kernel is a fixed piece of single-threaded CPU work (branchy integer
/// hashing and floating-point arithmetic, no memory traffic) that calls
/// nothing in the program under test and is compiled with its own fixed
/// flags, so no change to the program moves it. Timed right beside a
/// measured window on the same thread, it reads how fast the host ran that
/// window: on a shared VM the same work takes up to twice as long in a slow
/// phase. The kernel is sized to take about 1 ms on a 4-vCPU Xeon VM.
double ReferenceMs(int runs);

/// Keeps the calling thread on the vCPU it runs on now until destroyed,
/// then restores the thread's previous set of vCPUs. Threads started
/// meanwhile inherit the restriction. Host speed differs between the vCPUs
/// of a shared VM from one moment to the next, so a reading of the
/// reference kernel only describes work done on the vCPU it was read on.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu();
  ~PinToCurrentCpu();
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
