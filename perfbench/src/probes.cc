#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>

#include "trace.h"

namespace perfbench {

namespace {

/// Counts a call and reports whether this one is sampled.
inline bool CountAndSample(CallStats* s) {
  return ++s->calls % kSampleEvery == 0;
}

inline void AddTiming(CallStats* s, uint64_t calls, int64_t ns) {
  ++s->timings;
  s->timed_calls += calls;
  s->timed_ns += ns;
}

}  // namespace

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1);
  return index;
}

ProbedContent::ProbedContent(const sky::video::ContentProcess* inner,
                             StreamProbe* probe, sky::SimTime start,
                             sky::SimTime plan_interval)
    : inner_(inner),
      probe_(probe),
      start_(start),
      plan_interval_(plan_interval) {}

sky::video::ContentState ProbedContent::At(sky::SimTime t) const {
  const int64_t t0 = NowNs();
  bool sampled = CountAndSample(&probe_->content);
  sky::video::ContentState state = inner_->At(t);
  if (sampled) AddTiming(&probe_->content, 1, NowNs() - t0);
  double k = std::floor((t - start_) / plan_interval_ + 1e-9);
  size_t interval = k < 0.0 ? 0 : static_cast<size_t>(k);
  std::vector<IntervalStamp>& iv = probe_->intervals;
  if (iv.size() <= interval) iv.resize(interval + 1);
  IntervalStamp& stamp = iv[interval];
  if (stamp.thread < 0) {
    stamp.thread = ThreadIndex();
    stamp.first_ns = t0;
  }
  stamp.last_ns = t0;
  return state;
}

ProbedWorkload::ProbedWorkload(const sky::core::Workload* inner,
                               StreamProbe* probe, sky::SimTime start,
                               sky::SimTime plan_interval, size_t burst)
    : inner_(inner),
      probe_(probe),
      burst_(std::max<uint64_t>(1, burst)),
      content_(&inner->content_process(), probe, start, plan_interval) {}

double ProbedWorkload::TrueQuality(
    const sky::core::KnobConfig& config,
    const sky::video::ContentState& content) const {
  const uint64_t call = probe_->true_quality.calls++;
  if ((call / burst_) % kBurstSampleEvery != 0) {
    return inner_->TrueQuality(config, content);
  }
  const uint64_t pos = call % burst_;
  if (pos == 0) probe_->burst_start_ns = NowNs();
  double q = inner_->TrueQuality(config, content);
  if (pos + 1 == burst_) {
    AddTiming(&probe_->true_quality, burst_, NowNs() - probe_->burst_start_ns);
  }
  return q;
}

double ProbedWorkload::MeasuredQuality(const sky::core::KnobConfig& config,
                                       const sky::video::ContentState& content,
                                       sky::Rng* rng) const {
  if (!CountAndSample(&probe_->measured_quality)) {
    return inner_->MeasuredQuality(config, content, rng);
  }
  const int64_t t0 = NowNs();
  double q = inner_->MeasuredQuality(config, content, rng);
  AddTiming(&probe_->measured_quality, 1, NowNs() - t0);
  return q;
}

double ClockOverheadNs() {
  std::vector<double> d;
  d.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    int64_t a = NowNs();
    int64_t b = NowNs();
    d.push_back(static_cast<double>(b - a));
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

double EstimatedLayerNs(const CallStats& s, double clock_overhead_ns) {
  if (s.timed_calls == 0) return 0.0;
  double net = static_cast<double>(s.timed_ns) -
               static_cast<double>(s.timings) * clock_overhead_ns;
  return static_cast<double>(s.calls) *
         std::max(0.0, net / static_cast<double>(s.timed_calls));
}

void LayerTotals::Add(const StreamProbe& probe) {
  auto add = [](CallStats* into, const CallStats& s) {
    into->calls += s.calls;
    into->timings += s.timings;
    into->timed_calls += s.timed_calls;
    into->timed_ns += s.timed_ns;
  };
  add(&true_quality, probe.true_quality);
  add(&measured_quality, probe.measured_quality);
  add(&content, probe.content);
}

Timeline AnalyzeTimeline(const std::vector<const StreamProbe*>& probes,
                         int64_t window_start_ns, int64_t window_end_ns) {
  Timeline tl;
  size_t num_intervals = 0;
  for (const StreamProbe* p : probes) {
    num_intervals = std::max(num_intervals, p->intervals.size());
  }
  const double window_ns =
      static_cast<double>(std::max<int64_t>(1, window_end_ns -
                                                   window_start_ns));
  std::map<int, bool> threads;
  double gap_ns_sum = 0.0;
  double wait_ns_sum = 0.0;
  double imbalance_sum = 0.0;
  size_t imbalance_n = 0;
  int64_t prev_last = window_start_ns;
  for (size_t i = 0; i < num_intervals; ++i) {
    int64_t first = std::numeric_limits<int64_t>::max();
    int64_t last = std::numeric_limits<int64_t>::min();
    // Per worker: earliest first and latest last read of its streams.
    std::map<int, std::pair<int64_t, int64_t>> per_worker;
    for (const StreamProbe* p : probes) {
      if (i >= p->intervals.size() || p->intervals[i].thread < 0) continue;
      const IntervalStamp& s = p->intervals[i];
      first = std::min(first, s.first_ns);
      last = std::max(last, s.last_ns);
      auto it = per_worker.find(s.thread);
      if (it == per_worker.end()) {
        per_worker[s.thread] = {s.first_ns, s.last_ns};
      } else {
        it->second.first = std::min(it->second.first, s.first_ns);
        it->second.second = std::max(it->second.second, s.last_ns);
      }
    }
    if (per_worker.empty()) continue;
    ++tl.boundaries;
    double gap = static_cast<double>(std::max<int64_t>(0, first - prev_last));
    tl.gaps_ms.push_back(gap / 1e6);
    gap_ns_sum += gap;
    prev_last = last;
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const auto& [thread, fl] : per_worker) {
      threads[thread] = true;
      double busy = static_cast<double>(fl.second - fl.first);
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
      wait_ns_sum += static_cast<double>(last - fl.second);
    }
    tl.busy_ns += busy_sum;
    double busy_mean = busy_sum / static_cast<double>(per_worker.size());
    if (busy_mean > 0.0) {
      imbalance_sum += busy_max / busy_mean;
      ++imbalance_n;
    }
  }
  tl.workers = threads.size();
  tl.boundary_share = gap_ns_sum / window_ns;
  tl.barrier_wait_share =
      tl.workers == 0
          ? 0.0
          : wait_ns_sum / (window_ns * static_cast<double>(tl.workers));
  tl.imbalance =
      imbalance_n == 0 ? 0.0 : imbalance_sum / static_cast<double>(imbalance_n);
  return tl;
}

}  // namespace perfbench
