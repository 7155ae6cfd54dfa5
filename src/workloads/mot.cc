#include "workloads/mot.h"

#include <algorithm>
#include <cmath>

#include "video/codec.h"
#include "workloads/udf_costs.h"

namespace sky::workloads {

namespace {

// TransMOT inference cost per processed frame by model size (core-seconds,
// before the tiling/history multipliers).
constexpr double kTransMotModelCost[] = {0.20, 0.42, 0.85};
// Quality penalty scale per model size (large model has none).
constexpr double kTransMotModelPenalty[] = {0.35, 0.15, 0.0};

video::DiurnalContentProcess::Options MotContentOptions(uint64_t seed) {
  video::DiurnalContentProcess::Options opts;
  opts.profile = video::DiurnalContentProcess::Profile::kTrafficIntersection;
  opts.horizon = Days(26);
  opts.seed = seed;
  return opts;
}

}  // namespace

MotWorkload::MotWorkload(uint64_t seed) : content_(MotContentOptions(seed)) {
  (void)space_.AddKnob("frame_interval", {1, 5, 30, 60});
  (void)space_.AddKnob("tiles", {1, 4});
  (void)space_.AddKnob("history", {1, 2, 3, 5});
  (void)space_.AddKnob("model_size", {0, 1, 2});
  for (double interval : space_.knob(0).values) {
    interval_term_.push_back(std::pow((interval - 1.0) / 59.0, 0.7));
  }
  for (double tiles : space_.knob(1).values) tiled_.push_back(tiles >= 4.0);
  for (double history : space_.knob(2).values) {
    history_term_.push_back(0.15 / history);
  }
  for (double model : space_.knob(3).values) {
    model_term_.push_back(kTransMotModelPenalty[static_cast<size_t>(model)]);
  }
}

double MotWorkload::CostCoreSecondsPerVideoSecond(
    const core::KnobConfig& config) const {
  double interval = space_.Value(config, 0);
  double tiles = space_.Value(config, 1);
  double history = space_.Value(config, 2);
  size_t model = static_cast<size_t>(space_.Value(config, 3));

  double fps_eff = 30.0 / interval;
  double tile_factor = tiles >= 4.0 ? 2.4 : 1.0;
  double history_factor = 0.8 + 0.1 * history;
  double decode = 30.0 * kDecodeCostPerFrame;
  return decode +
         fps_eff * tile_factor * kTransMotModelCost[model] * history_factor;
}

MotWorkload::ContentTerms MotWorkload::TermsOf(
    const video::ContentState& content) {
  double rho = content.density;
  double occ = content.occlusion;
  double difficulty = 0.5 * rho + 0.5 * occ;
  ContentTerms terms;
  terms.interval_scale = 0.03 + 1.15 * std::pow(occ, 1.1);
  terms.untiled_penalty = std::min(1.0, 0.02 + 0.50 * std::pow(rho, 1.2));
  terms.model_scale = 0.20 + 0.80 * difficulty;
  terms.history_scale = 0.10 + 0.90 * occ;
  return terms;
}

double MotWorkload::QualityOf(const core::KnobConfig& config,
                              const ContentTerms& terms) const {
  // Long gaps between processed frames break identity association,
  // especially under occlusion.
  double interval_penalty =
      std::min(1.0, interval_term_[config[0]] * terms.interval_scale);
  double tile_penalty = tiled_[config[1]] ? 0.0 : terms.untiled_penalty;
  double model_penalty = model_term_[config[3]] * terms.model_scale;
  // Short history hurts re-identification through occlusions.
  double history_penalty = history_term_[config[2]] * terms.history_scale;

  double q = (1.0 - interval_penalty) * (1.0 - tile_penalty) *
             (1.0 - model_penalty) * (1.0 - history_penalty);
  return std::clamp(q, 0.0, 1.0);
}

double MotWorkload::TrueQuality(const core::KnobConfig& config,
                                const video::ContentState& content) const {
  return QualityOf(config, TermsOf(content));
}

void MotWorkload::TrueQualities(const std::vector<core::KnobConfig>& configs,
                                const video::ContentState& content,
                                std::vector<double>* out) const {
  ContentTerms terms = TermsOf(content);
  out->resize(configs.size());
  for (size_t k = 0; k < configs.size(); ++k) {
    (*out)[k] = QualityOf(configs[k], terms);
  }
}

dag::TaskGraph MotWorkload::BuildTaskGraph(
    const core::KnobConfig& config, double segment_seconds,
    const sim::CostModel& cost_model) const {
  double interval = space_.Value(config, 0);
  double tiles = space_.Value(config, 1);
  double history = space_.Value(config, 2);
  size_t model = static_cast<size_t>(space_.Value(config, 3));
  double L = segment_seconds;
  double fps_eff = 30.0 / interval;
  double frames = fps_eff * L;
  double tile_factor = tiles >= 4.0 ? 2.4 : 1.0;

  // TransMOT splits into detector+embedding (per frame) and the graph
  // transformer (per frame, scaled by history).
  double detect_cost = frames * tile_factor * kTransMotModelCost[model] * 0.55;
  double transformer_cost =
      frames * kTransMotModelCost[model] * 0.45 * (0.8 + 0.1 * history) *
      tile_factor;

  double h264_bytes = video::EstimateStreamBytesPerSecond(0.5) * L;
  double chunk = L / 4.0;
  dag::TaskGraph g;
  size_t decode = g.AddNode(MakeUdfNode("decode",
                                        30.0 * kDecodeCostPerFrame * L,
                                        h264_bytes,
                                        frames * kJpegBytesPerFrame,
                                        cost_model));
  std::vector<size_t> detect = AddChunkedUdf(
      &g, "detect_embed", 0, detect_cost, frames * kJpegBytesPerFrame,
      8e3 * L, cost_model, chunk, {decode});
  std::vector<size_t> transformer = AddChunkedUdf(
      &g, "graph_transformer", 1, transformer_cost,
      frames * 16e3 * history, 4e3 * L, cost_model, chunk, {});
  PipelineLink(&g, detect, transformer);
  size_t tracks = g.AddNode(
      MakeUdfNode("emit_tracks", 0.002 * L, 4e3 * L, 2e3 * L, cost_model));
  PipelineLink(&g, transformer, {tracks});
  return g;
}

}  // namespace sky::workloads
