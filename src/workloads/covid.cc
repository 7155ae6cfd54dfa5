#include "workloads/covid.h"

#include <algorithm>
#include <cmath>

#include "video/codec.h"
#include "workloads/udf_costs.h"

namespace sky::workloads {

namespace {

video::DiurnalContentProcess::Options CovidContentOptions(uint64_t seed) {
  video::DiurnalContentProcess::Options opts;
  opts.profile = video::DiurnalContentProcess::Profile::kShoppingStreet;
  opts.horizon = Days(26);  // 16 d train + 8 d test + slack
  opts.seed = seed;
  return opts;
}

}  // namespace

CovidWorkload::CovidWorkload(uint64_t seed)
    : content_(CovidContentOptions(seed)) {
  // Knob domains from §5.2.
  (void)space_.AddKnob("frame_rate", {30, 15, 10, 5, 1});
  (void)space_.AddKnob("det_interval", {1, 5, 30, 60});
  (void)space_.AddKnob("tiles", {1, 4});
  for (double fps : space_.knob(0).values) {
    fps_term_.push_back(std::pow(1.0 - fps / 30.0, 2.0));
  }
  for (double det : space_.knob(1).values) {
    det_term_.push_back(std::pow((det - 1.0) / 59.0, 0.6));
  }
  for (double tiles : space_.knob(2).values) tiled_.push_back(tiles >= 4.0);
}

double CovidWorkload::CostCoreSecondsPerVideoSecond(
    const core::KnobConfig& config) const {
  double fps = space_.Value(config, 0);
  double det = space_.Value(config, 1);
  double tiles = space_.Value(config, 2);
  // Every arriving frame is decoded (§5.1); the rest scales with the
  // processed frame rate. 2x2 tiling costs 5.2x one inference: four tiles
  // plus the ~30% overlap margin tiled detectors use [84].
  double tile_factor = tiles >= 4.0 ? 5.2 : 1.0;
  double decode = 30.0 * kDecodeCostPerFrame;
  double detect = (fps / det) * tile_factor * kYoloCostPerTile;
  double track = fps * (1.0 - 1.0 / det) * kKcfCostPerFrame;
  double aux = (fps / det) * kMaskClassifierCostPerDetection +
               fps * kHomographyCostPerFrame;
  return decode + detect + track + aux;
}

CovidWorkload::ContentTerms CovidWorkload::TermsOf(
    const video::ContentState& content) {
  double rho_term = std::pow(content.density, 1.2);
  double occ_term = std::pow(content.occlusion, 1.1);
  ContentTerms terms;
  terms.fps_scale = 0.02 + 1.10 * rho_term;
  terms.det_scale = 0.03 + 1.15 * occ_term;
  terms.untiled_penalty = std::min(1.0, 0.02 + 0.55 * rho_term);
  return terms;
}

double CovidWorkload::QualityOf(const core::KnobConfig& config,
                                const ContentTerms& terms) const {
  // Lower frame rates miss fast pedestrians, mostly when the street is busy.
  double fps_penalty = std::min(1.0, fps_term_[config[0]] * terms.fps_scale);
  // Sparse detector invocations make the tracker drift, which hurts under
  // occlusion ("detect-to-track" failure mode).
  double det_penalty = std::min(1.0, det_term_[config[1]] * terms.det_scale);
  // Without tiling, small/far pedestrians are missed in dense scenes.
  double tile_penalty = tiled_[config[2]] ? 0.0 : terms.untiled_penalty;

  double q = (1.0 - fps_penalty) * (1.0 - det_penalty) * (1.0 - tile_penalty);
  return std::clamp(q, 0.0, 1.0);
}

double CovidWorkload::TrueQuality(const core::KnobConfig& config,
                                  const video::ContentState& content) const {
  return QualityOf(config, TermsOf(content));
}

void CovidWorkload::TrueQualities(const std::vector<core::KnobConfig>& configs,
                                  const video::ContentState& content,
                                  std::vector<double>* out) const {
  ContentTerms terms = TermsOf(content);
  out->resize(configs.size());
  for (size_t k = 0; k < configs.size(); ++k) {
    (*out)[k] = QualityOf(configs[k], terms);
  }
}

dag::TaskGraph CovidWorkload::BuildTaskGraph(
    const core::KnobConfig& config, double segment_seconds,
    const sim::CostModel& cost_model) const {
  double fps = space_.Value(config, 0);
  double det = space_.Value(config, 1);
  double tiles = space_.Value(config, 2);
  double L = segment_seconds;

  double h264_bytes = video::EstimateStreamBytesPerSecond(0.5) * L;
  double det_frames = (fps / det) * L;
  double trk_frames = fps * (1.0 - 1.0 / det) * L;
  double tile_factor = tiles >= 4.0 ? 5.2 : 1.0;
  double chunk = L / 4.0;  // per-frame-batch tasks, as Ray would run them

  dag::TaskGraph g;
  size_t decode = g.AddNode(MakeUdfNode(
      "decode", 30.0 * kDecodeCostPerFrame * L, h264_bytes,
      det_frames * kJpegBytesPerFrame, cost_model));
  std::vector<size_t> detect = AddChunkedUdf(
      &g, "yolo_detect", 0, det_frames * tile_factor * kYoloCostPerTile,
      det_frames * kJpegBytesPerFrame, 4e3 * L, cost_model, chunk, {decode});
  std::vector<size_t> track = AddChunkedUdf(
      &g, "kcf_track", 1, trk_frames * kKcfCostPerFrame,
      trk_frames * kJpegBytesPerFrame, 4e3 * L, cost_model, chunk, {decode});
  PipelineLink(&g, detect, track);
  std::vector<size_t> aux = AddChunkedUdf(
      &g, "mask_homography", 2,
      det_frames * kMaskClassifierCostPerDetection +
          fps * L * kHomographyCostPerFrame,
      det_frames * 20e3, 2e3 * L, cost_model, chunk, {});
  PipelineLink(&g, detect, aux);
  return g;
}

}  // namespace sky::workloads
