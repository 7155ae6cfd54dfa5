#ifndef SKYSCRAPER_WORKLOADS_EV_COUNTING_H_
#define SKYSCRAPER_WORKLOADS_EV_COUNTING_H_

#include <vector>

#include "core/workload.h"
#include "video/content_process.h"

namespace sky::workloads {

/// The electric-vehicle counting example of §1 / Fig. 1 / Appendix F: a
/// YOLO detector finds cars, a KCF tracker follows them so they are not
/// double-counted, and EVs are recognized by their green license plates.
///
/// Knobs (matching the Appendix F code snippet):
///   det_interval  detector every {1, 5, 10} frames
///   yolo_size     {0 (small), 1 (medium), 2 (large)}
///
/// This is the workload of the Fig. 3 processing example (24 h of a traffic
/// camera, 4 GB buffer).
class EvCountingWorkload : public core::Workload {
 public:
  explicit EvCountingWorkload(uint64_t seed = 4004);

  std::string name() const override { return "EV-COUNT"; }
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
    double det_scale = 0.0;    ///< 0.05 + 1.10 * occlusion^1.1
    double model_scale = 0.0;  ///< 0.15 + 0.85 * difficulty
  };
  static ContentTerms TermsOf(const video::ContentState& content);
  /// The one copy of the response surface: quality of `config` given the
  /// content terms. TrueQuality and TrueQualities both go through it.
  double QualityOf(const core::KnobConfig& config,
                   const ContentTerms& terms) const;

  core::KnobSpace space_;
  video::DiurnalContentProcess content_;
  /// Knob-only factors, one entry per value index of the knob.
  std::vector<double> det_term_;    ///< ((det - 1)/9)^0.7
  std::vector<double> model_term_;  ///< per-YOLO-size penalty scale
};

}  // namespace sky::workloads

#endif  // SKYSCRAPER_WORKLOADS_EV_COUNTING_H_
