#include "workloads/ev_counting.h"

#include <algorithm>
#include <cmath>

#include "video/codec.h"
#include "workloads/udf_costs.h"

namespace sky::workloads {

namespace {

// YOLO cost per inference by model size (core-seconds).
constexpr double kYoloSizeCost[] = {0.15, 0.30, 0.60};
constexpr double kYoloSizePenalty[] = {0.30, 0.12, 0.0};

video::DiurnalContentProcess::Options EvContentOptions(uint64_t seed) {
  video::DiurnalContentProcess::Options opts;
  opts.profile = video::DiurnalContentProcess::Profile::kTrafficIntersection;
  opts.horizon = Days(20);
  opts.seed = seed;
  return opts;
}

}  // namespace

EvCountingWorkload::EvCountingWorkload(uint64_t seed)
    : content_(EvContentOptions(seed)) {
  (void)space_.AddKnob("det_interval", {1, 5, 10});
  (void)space_.AddKnob("yolo_size", {0, 1, 2});
  for (double det : space_.knob(0).values) {
    det_term_.push_back(std::pow((det - 1.0) / 9.0, 0.7));
  }
  for (double size : space_.knob(1).values) {
    model_term_.push_back(kYoloSizePenalty[static_cast<size_t>(size)]);
  }
}

double EvCountingWorkload::CostCoreSecondsPerVideoSecond(
    const core::KnobConfig& config) const {
  double det = space_.Value(config, 0);
  size_t size = static_cast<size_t>(space_.Value(config, 1));
  double decode = 30.0 * kDecodeCostPerFrame;
  double detect = (30.0 / det) * kYoloSizeCost[size];
  double track = 30.0 * (1.0 - 1.0 / det) * kKcfCostPerFrame;
  return decode + detect + track;
}

EvCountingWorkload::ContentTerms EvCountingWorkload::TermsOf(
    const video::ContentState& content) {
  double occ = content.occlusion;
  double difficulty = 0.5 * content.density + 0.5 * occ;
  ContentTerms terms;
  terms.det_scale = 0.05 + 1.10 * std::pow(occ, 1.1);
  terms.model_scale = 0.15 + 0.85 * difficulty;
  return terms;
}

double EvCountingWorkload::QualityOf(const core::KnobConfig& config,
                                     const ContentTerms& terms) const {
  // The EV result quality is mainly affected by object occlusions (§2.2).
  double det_penalty = std::min(1.0, det_term_[config[0]] * terms.det_scale);
  double model_penalty = model_term_[config[1]] * terms.model_scale;
  double q = (1.0 - det_penalty) * (1.0 - model_penalty);
  return std::clamp(q, 0.0, 1.0);
}

double EvCountingWorkload::TrueQuality(
    const core::KnobConfig& config,
    const video::ContentState& content) const {
  return QualityOf(config, TermsOf(content));
}

void EvCountingWorkload::TrueQualities(
    const std::vector<core::KnobConfig>& configs,
    const video::ContentState& content, std::vector<double>* out) const {
  ContentTerms terms = TermsOf(content);
  out->resize(configs.size());
  for (size_t k = 0; k < configs.size(); ++k) {
    (*out)[k] = QualityOf(configs[k], terms);
  }
}

dag::TaskGraph EvCountingWorkload::BuildTaskGraph(
    const core::KnobConfig& config, double segment_seconds,
    const sim::CostModel& cost_model) const {
  double det = space_.Value(config, 0);
  size_t size = static_cast<size_t>(space_.Value(config, 1));
  double L = segment_seconds;
  double det_frames = (30.0 / det) * L;
  double trk_frames = 30.0 * (1.0 - 1.0 / det) * L;
  double h264_bytes = video::EstimateStreamBytesPerSecond(0.5) * L;

  double chunk = L / 4.0;
  dag::TaskGraph g;
  size_t decode = g.AddNode(MakeUdfNode(
      "decode", 30.0 * kDecodeCostPerFrame * L, h264_bytes,
      det_frames * kJpegBytesPerFrame, cost_model));
  std::vector<size_t> detect = AddChunkedUdf(
      &g, "yolo", 0, det_frames * kYoloSizeCost[size],
      det_frames * kJpegBytesPerFrame, 4e3 * L, cost_model, chunk, {decode});
  std::vector<size_t> track = AddChunkedUdf(
      &g, "kcf", 1, trk_frames * kKcfCostPerFrame,
      trk_frames * kJpegBytesPerFrame, 2e3 * L, cost_model, chunk, {decode});
  PipelineLink(&g, detect, track);
  return g;
}

}  // namespace sky::workloads
