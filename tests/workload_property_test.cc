// Parameterized property sweeps over all four paper workloads: monotone
// quality responses, Pareto structure of the knob space, and end-to-end
// engine invariants per workload. Plus, over every registry workload: the
// batched ground truth equals the per-configuration one bit for bit.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/workload_registry.h"
#include "core/engine.h"
#include "core/offline.h"
#include "util/rng.h"
#include "workloads/covid.h"
#include "workloads/ev_counting.h"
#include "workloads/mosei.h"
#include "workloads/mot.h"

namespace sky {
namespace {

enum class Kind { kCovid, kMot, kMoseiHigh, kMoseiLong, kEv };

std::unique_ptr<core::Workload> Make(Kind kind) {
  switch (kind) {
    case Kind::kCovid:
      return std::make_unique<workloads::CovidWorkload>();
    case Kind::kMot:
      return std::make_unique<workloads::MotWorkload>();
    case Kind::kMoseiHigh:
      return std::make_unique<workloads::MoseiWorkload>(
          workloads::MoseiWorkload::SpikeKind::kHigh);
    case Kind::kMoseiLong:
      return std::make_unique<workloads::MoseiWorkload>(
          workloads::MoseiWorkload::SpikeKind::kLong);
    case Kind::kEv:
      return std::make_unique<workloads::EvCountingWorkload>();
  }
  return nullptr;
}

class WorkloadSweep : public ::testing::TestWithParam<Kind> {};

TEST_P(WorkloadSweep, QualityDegradesMonotonicallyWithContentDifficulty) {
  std::unique_ptr<core::Workload> w = Make(GetParam());
  // For every configuration, quality at harder content must not be better
  // than at easier content (holding everything else fixed).
  video::ContentState easy, mid, hard;
  easy.density = 0.1;
  easy.occlusion = 0.05;
  easy.difficulty = 0.1;
  easy.stream_count = 10;
  mid.density = 0.5;
  mid.occlusion = 0.4;
  mid.difficulty = 0.5;
  mid.stream_count = 30;
  hard.density = 0.9;
  hard.occlusion = 0.85;
  hard.difficulty = 0.9;
  hard.stream_count = 60;
  for (const core::KnobConfig& c : w->knob_space().AllConfigs()) {
    double qe = w->TrueQuality(c, easy);
    double qm = w->TrueQuality(c, mid);
    double qh = w->TrueQuality(c, hard);
    EXPECT_GE(qe, qm - 1e-9) << w->knob_space().ToString(c);
    EXPECT_GE(qm, qh - 1e-9) << w->knob_space().ToString(c);
  }
}

TEST_P(WorkloadSweep, KnobSpaceHasNontrivialParetoFrontier) {
  std::unique_ptr<core::Workload> w = Make(GetParam());
  // Count configurations on the (cost, hard-content-quality) Pareto
  // frontier: the premise of knob tuning is a ladder of trade-offs, not a
  // single dominant configuration.
  video::ContentState hard;
  hard.density = 0.85;
  hard.occlusion = 0.8;
  hard.difficulty = 0.85;
  hard.stream_count = 55;
  std::vector<std::pair<double, double>> points;  // (cost, quality)
  for (const core::KnobConfig& c : w->knob_space().AllConfigs()) {
    points.push_back(
        {w->CostCoreSecondsPerVideoSecond(c), w->TrueQuality(c, hard)});
  }
  std::sort(points.begin(), points.end());
  size_t frontier = 0;
  double best_q = -1.0;
  for (const auto& [cost, q] : points) {
    if (q > best_q + 1e-9) {
      best_q = q;
      ++frontier;
    }
  }
  EXPECT_GE(frontier, 4u);
}

TEST_P(WorkloadSweep, EngineInvariantsHoldEndToEnd) {
  std::unique_ptr<core::Workload> w = Make(GetParam());
  sim::ClusterSpec cluster;
  cluster.cores = 8;
  sim::CostModel cost_model(1.8);
  core::OfflineOptions offline;
  offline.segment_seconds = 6.0;
  offline.train_horizon = Days(3);
  offline.num_categories = 3;
  offline.train_forecaster = false;
  auto model = core::RunOfflinePhase(*w, cluster, cost_model, offline);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  core::EngineOptions run;
  run.duration = Hours(12);
  run.plan_interval = Hours(12);
  run.cloud_budget_usd_per_interval = 1.0;
  core::IngestionEngine engine(w.get(), &*model, cluster, &cost_model, run);
  auto result = engine.Run(Days(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Invariants: throughput guarantee, budget adherence, bounded quality,
  // consistent error taxonomy, and work >= on-prem share.
  EXPECT_EQ(result->overflow_events, 0u);
  EXPECT_LE(result->cloud_usd, 1.0 + 1e-9);
  EXPECT_GT(result->mean_quality, 0.0);
  EXPECT_LE(result->mean_quality, 1.0);
  EXPECT_EQ(result->type_a_errors + result->type_b_errors,
            result->misclassified);
  EXPECT_LE(result->buffer_high_water_bytes,
            run.buffer_bytes.value_or(core::kDefaultBufferBytes));
  EXPECT_GT(result->work_core_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSweep,
                         ::testing::Values(Kind::kCovid, Kind::kMot,
                                           Kind::kMoseiHigh, Kind::kMoseiLong,
                                           Kind::kEv));

class RegistryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryWorkload, TrueQualitiesEqualsPerConfigTrueQualityBitwise) {
  std::unique_ptr<core::Workload> w = api::MakeWorkloadByName(GetParam());
  ASSERT_NE(w, nullptr);
  const std::vector<core::KnobConfig> configs = w->knob_space().AllConfigs();

  // Edge states (density and occlusion at 0 and 1, where the pow terms and
  // the clamps sit on their bounds), then random states.
  std::vector<video::ContentState> states;
  for (double density : {0.0, 1.0}) {
    for (double occlusion : {0.0, 1.0}) {
      video::ContentState s;
      s.density = density;
      s.occlusion = occlusion;
      s.difficulty = density;
      s.lighting = 1.0 - occlusion;
      s.stream_count = 1.0 + 59.0 * occlusion;
      states.push_back(s);
    }
  }
  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    video::ContentState s;
    s.density = rng.Uniform(0.0, 1.0);
    s.occlusion = rng.Uniform(0.0, 1.0);
    s.lighting = rng.Uniform(0.0, 1.0);
    s.difficulty = rng.Uniform(0.0, 1.0);
    s.stream_count = rng.Uniform(1.0, 60.0);
    states.push_back(s);
  }

  // The output starts longer than the configuration list and full of stale
  // values; the call must leave exactly one fresh value per configuration.
  std::vector<double> batch(configs.size() + 7, -3.0);
  for (const video::ContentState& s : states) {
    w->TrueQualities(configs, s, &batch);
    ASSERT_EQ(batch.size(), configs.size());
    for (size_t k = 0; k < configs.size(); ++k) {
      double scalar = w->TrueQuality(configs[k], s);
      EXPECT_EQ(std::memcmp(&batch[k], &scalar, sizeof(double)), 0)
          << GetParam() << " " << w->knob_space().ToString(configs[k])
          << " density=" << s.density << " occlusion=" << s.occlusion
          << ": batch " << batch[k] << " vs scalar " << scalar;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryNames, RegistryWorkload,
    ::testing::ValuesIn(api::KnownWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sky
