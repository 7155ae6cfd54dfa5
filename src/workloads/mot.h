#ifndef SKYSCRAPER_WORKLOADS_MOT_H_
#define SKYSCRAPER_WORKLOADS_MOT_H_

#include <vector>

#include "core/workload.h"
#include "video/content_process.h"

namespace sky::workloads {

/// The multi-object-tracking workload (§5.2 / Appendix J): a TransMOT-style
/// graph-transformer tracker over a Tokyo traffic-intersection stream.
///
/// Knobs:
///   frame_interval  process every {1, 5, 30, 60}-th frame
///   tiles           {1 (1x1), 4 (2x2)}
///   history         {1, 2, 3, 5} historical frames fed to the transformer
///   model_size      {0 (small), 1 (medium), 2 (large)}
///
/// Quality is the certainty-weighted number of correctly tracked
/// pedestrians, relative to running the most expensive setting.
class MotWorkload : public core::Workload {
 public:
  explicit MotWorkload(uint64_t seed = 2002);

  std::string name() const override { return "MOT"; }
  const core::KnobSpace& knob_space() const override { return space_; }
  double CostCoreSecondsPerVideoSecond(
      const core::KnobConfig& config) const override;
  double TrueQuality(const core::KnobConfig& config,
                     const video::ContentState& content) const override;
  void TrueQualities(const std::vector<core::KnobConfig>& configs,
                     const video::ContentState& content,
                     std::vector<double>* out) const override;
  dag::TaskGraph BuildTaskGraph(const core::KnobConfig& config,
                                double segment_seconds,
                                const sim::CostModel& cost_model) const override;
  const video::ContentProcess& content_process() const override {
    return content_;
  }

 private:
  /// The content-only factors of the response surface, computed once per
  /// content state.
  struct ContentTerms {
    double interval_scale = 0.0;   ///< 0.03 + 1.15 * occlusion^1.1
    double untiled_penalty = 0.0;  ///< min(1, 0.02 + 0.50 * density^1.2)
    double model_scale = 0.0;      ///< 0.20 + 0.80 * difficulty
    double history_scale = 0.0;    ///< 0.10 + 0.90 * occlusion
  };
  static ContentTerms TermsOf(const video::ContentState& content);
  /// The one copy of the response surface: quality of `config` given the
  /// content terms. TrueQuality and TrueQualities both go through it.
  double QualityOf(const core::KnobConfig& config,
                   const ContentTerms& terms) const;

  core::KnobSpace space_;
  video::DiurnalContentProcess content_;
  /// Knob-only factors, one entry per value index of the knob.
  std::vector<double> interval_term_;  ///< ((interval - 1)/59)^0.7
  std::vector<bool> tiled_;            ///< tiles >= 4
  std::vector<double> history_term_;   ///< 0.15 / history
  std::vector<double> model_term_;     ///< per-model-size penalty scale
};

}  // namespace sky::workloads

#endif  // SKYSCRAPER_WORKLOADS_MOT_H_
