#ifndef SKYSCRAPER_WORKLOADS_COVID_H_
#define SKYSCRAPER_WORKLOADS_COVID_H_

#include <memory>
#include <vector>

#include "core/workload.h"
#include "video/content_process.h"

namespace sky::workloads {

/// The COVID-19 safety-measures workload (§5.2 / Appendix J): YOLOv5
/// pedestrian detection + KCF tracking + homography distancing + mask
/// classification, run on an 8-day stream of a busy Tokyo shopping street.
///
/// Knobs:
///   frame_rate    {30, 15, 10, 5, 1} FPS
///   det_interval  detector every {1, 5, 30, 60} frames
///   tiles         {1 (1x1), 4 (2x2)} detector tiles
///
/// Quality is person-seconds recorded relative to ground truth; the
/// response surface is calibrated so that cheap configurations match the
/// expensive ones on quiet/low-occlusion content and fall off sharply on
/// dense, occluded content (the premise of content-adaptive tuning).
class CovidWorkload : public core::Workload {
 public:
  explicit CovidWorkload(uint64_t seed = 1001);

  std::string name() const override { return "COVID"; }
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
    double fps_scale = 0.0;        ///< 0.02 + 1.10 * density^1.2
    double det_scale = 0.0;        ///< 0.03 + 1.15 * occlusion^1.1
    double untiled_penalty = 0.0;  ///< min(1, 0.02 + 0.55 * density^1.2)
  };
  static ContentTerms TermsOf(const video::ContentState& content);
  /// The one copy of the response surface: quality of `config` given the
  /// content terms. TrueQuality and TrueQualities both go through it.
  double QualityOf(const core::KnobConfig& config,
                   const ContentTerms& terms) const;

  core::KnobSpace space_;
  video::DiurnalContentProcess content_;
  /// Knob-only factors, one entry per value index of the knob.
  std::vector<double> fps_term_;  ///< (1 - fps/30)^2
  std::vector<double> det_term_;  ///< ((det - 1)/59)^0.6
  std::vector<bool> tiled_;       ///< tiles >= 4
};

}  // namespace sky::workloads

#endif  // SKYSCRAPER_WORKLOADS_COVID_H_
