#include "core/workload.h"

#include <algorithm>
#include <limits>

namespace sky::core {

double Workload::MeasuredQuality(const KnobConfig& config,
                                 const video::ContentState& content,
                                 Rng* rng) const {
  double q = TrueQuality(config, content);
  q += rng->Normal(0.0, measurement_noise_stddev());
  return std::clamp(q, 0.0, 1.0);
}

void Workload::TrueQualities(const std::vector<KnobConfig>& configs,
                             const video::ContentState& content,
                             std::vector<double>* out) const {
  out->clear();
  out->reserve(configs.size());
  for (const KnobConfig& k : configs) {
    out->push_back(TrueQuality(k, content));
  }
}

KnobConfig CheapestConfig(const Workload& workload) {
  const KnobSpace& space = workload.knob_space();
  KnobConfig best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const KnobConfig& c : space.AllConfigs()) {
    double cost = workload.CostCoreSecondsPerVideoSecond(c);
    if (cost < best_cost) {
      best_cost = cost;
      best = c;
    }
  }
  return best;
}

KnobConfig MostQualitativeConfig(const Workload& workload, size_t probe_times) {
  const KnobSpace& space = workload.knob_space();
  const video::ContentProcess& content = workload.content_process();
  double horizon = content.horizon();
  KnobConfig best;
  double best_quality = -1.0;
  for (const KnobConfig& c : space.AllConfigs()) {
    double total = 0.0;
    for (size_t i = 0; i < probe_times; ++i) {
      double t = horizon * (static_cast<double>(i) + 0.5) /
                 static_cast<double>(probe_times);
      total += workload.TrueQuality(c, content.At(t));
    }
    if (total > best_quality) {
      best_quality = total;
      best = c;
    }
  }
  return best;
}

}  // namespace sky::core
