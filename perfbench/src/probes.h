#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.h"
#include "video/content_process.h"

namespace perfbench {

/// Timing every call roughly doubles an engine run: a ground-truth quality
/// call takes tens of nanoseconds, about what one clock read costs. So the
/// decorators time a sample and estimate a layer's time as calls x mean
/// sampled cost per call:
///  - TrueQuality comes in per-segment bursts (one call per configuration),
///    so one burst in kBurstSampleEvery is timed as a whole: two clock
///    reads per burst instead of two per call;
///  - MeasuredQuality and ContentProcess::At are timed one call in
///    kSampleEvery (a prime, so the sample does not lock onto one of the
///    calls a segment makes).
inline constexpr uint64_t kSampleEvery = 31;
inline constexpr uint64_t kBurstSampleEvery = 8;

/// Calls into one layer as seen through a seam decorator.
struct CallStats {
  uint64_t calls = 0;
  uint64_t timings = 0;      ///< timed intervals (one clock pair each)
  uint64_t timed_calls = 0;  ///< calls inside the timed intervals
  int64_t timed_ns = 0;      ///< summed wall time of the timed intervals
};

/// The first and last content read of one plan interval of one stream, and
/// the thread that made the first one (a small index, see ThreadIndex()).
struct IntervalStamp {
  int64_t first_ns = 0;
  int64_t last_ns = 0;
  int thread = -1;
};

/// Everything the decorators of one stream record. Only the thread that is
/// stepping the stream writes it, so streams stepped by different barrier
/// workers share no counter and take no lock; read it once the run joined.
struct StreamProbe {
  int64_t burst_start_ns = 0;  ///< start of the TrueQuality burst being timed
  CallStats true_quality;
  CallStats measured_quality;
  CallStats content;
  std::vector<IntervalStamp> intervals;

  /// Forgets every call and stamp (e.g. the ones a stream's Start made).
  void Reset() { *this = StreamProbe{}; }
};

/// Small dense index of the calling thread (0, 1, 2, ... in first-call
/// order), stable for the thread's lifetime.
int ThreadIndex();

/// Forwards every video::ContentProcess virtual unchanged; counts At calls,
/// times one in kSampleEvery, and stamps every call into the plan interval
/// its time falls in.
class ProbedContent : public sky::video::ContentProcess {
 public:
  /// `start` and `plan_interval` map a content time to its plan interval.
  ProbedContent(const sky::video::ContentProcess* inner, StreamProbe* probe,
                sky::SimTime start, sky::SimTime plan_interval);

  sky::video::ContentState At(sky::SimTime t) const override;
  sky::SimTime horizon() const override { return inner_->horizon(); }

 private:
  const sky::video::ContentProcess* inner_;
  StreamProbe* probe_;
  sky::SimTime start_;
  sky::SimTime plan_interval_;
};

/// Forwards every core::Workload virtual unchanged to `inner`, counting and
/// sampling TrueQuality and MeasuredQuality, and hands out a ProbedContent
/// over the inner content process. The inner workload's own internal calls
/// (MeasuredQuality's ground-truth lookup) stay on the inner object, so the
/// counts are the calls the engine makes.
class ProbedWorkload : public sky::core::Workload {
 public:
  /// `burst` is how many TrueQuality calls one segment makes (the model's
  /// configuration count); a timed burst spans that many calls.
  ProbedWorkload(const sky::core::Workload* inner, StreamProbe* probe,
                 sky::SimTime start, sky::SimTime plan_interval, size_t burst);

  std::string name() const override { return inner_->name(); }
  const sky::core::KnobSpace& knob_space() const override {
    return inner_->knob_space();
  }
  double CostCoreSecondsPerVideoSecond(
      const sky::core::KnobConfig& config) const override {
    return inner_->CostCoreSecondsPerVideoSecond(config);
  }
  double TrueQuality(const sky::core::KnobConfig& config,
                     const sky::video::ContentState& content) const override;
  double MeasuredQuality(const sky::core::KnobConfig& config,
                         const sky::video::ContentState& content,
                         sky::Rng* rng) const override;
  sky::dag::TaskGraph BuildTaskGraph(
      const sky::core::KnobConfig& config, double segment_seconds,
      const sky::sim::CostModel& cost_model) const override {
    return inner_->BuildTaskGraph(config, segment_seconds, cost_model);
  }
  const sky::video::ContentProcess& content_process() const override {
    return content_;
  }
  double measurement_noise_stddev() const override {
    return inner_->measurement_noise_stddev();
  }

 private:
  const sky::core::Workload* inner_;
  StreamProbe* probe_;
  uint64_t burst_;
  ProbedContent content_;
};

/// Median cost of one back-to-back pair of NowNs() calls, ns: what every
/// sampled duration includes on top of the call it times.
double ClockOverheadNs();

/// Estimated wall time spent inside one layer, ns: calls x mean timed cost
/// per call, after taking one clock overhead off every timed interval.
double EstimatedLayerNs(const CallStats& s, double clock_overhead_ns);

/// Call stats summed over streams (and repetitions).
struct LayerTotals {
  CallStats true_quality;
  CallStats measured_quality;
  CallStats content;

  void Add(const StreamProbe& probe);
};

/// How a run's plan intervals laid out in wall time, read from the stamps
/// of every stream: interval i spans from the earliest first read to the
/// latest last read of any stream, and the boundary before it is the gap
/// since the previous interval (or since `window_start_ns`).
struct Timeline {
  size_t boundaries = 0;       ///< intervals observed (one boundary each)
  size_t workers = 0;          ///< distinct threads that stepped streams
  std::vector<double> gaps_ms; ///< one per boundary
  double boundary_share = 0.0; ///< sum of gaps / window wall time
  /// Sum over intervals and workers of the time from a worker's own last
  /// read to the slowest worker's last read, over workers x window wall.
  double barrier_wait_share = 0.0;
  /// Mean over intervals of max / mean per-worker busy time (1 = even).
  double imbalance = 0.0;
  /// Sum over intervals and workers of first-to-last read time, ns: the
  /// stepping time the layer shares are taken of.
  double busy_ns = 0.0;
};
Timeline AnalyzeTimeline(const std::vector<const StreamProbe*>& probes,
                         int64_t window_start_ns, int64_t window_end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
