// The engine's per-segment ground truth, seen through a recording Workload:
// which content state each segment is scored on, and how many content reads
// and quality evaluations a segment costs. Both are exact, deterministic
// properties of the stepping code, so these gates cannot flake.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/engine.h"
#include "core/offline.h"
#include "workloads/ev_counting.h"

namespace sky::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameState(const video::ContentState& a, const video::ContentState& b) {
  return SameBits(a.density, b.density) &&
         SameBits(a.occlusion, b.occlusion) &&
         SameBits(a.lighting, b.lighting) &&
         SameBits(a.difficulty, b.difficulty) &&
         SameBits(a.stream_count, b.stream_count);
}

/// Forwards At to `inner`, counting the calls.
class CountingContent : public video::ContentProcess {
 public:
  explicit CountingContent(const video::ContentProcess* inner)
      : inner_(inner) {}
  video::ContentState At(SimTime t) const override {
    ++calls;
    return inner_->At(t);
  }
  SimTime horizon() const override { return inner_->horizon(); }

  mutable size_t calls = 0;

 private:
  const video::ContentProcess* inner_;
};

/// Forwards every Workload virtual to `inner`, counting the engine's
/// quality calls and recording the content states it scores (TrueQualities)
/// and measures (MeasuredQuality). The inner workload's own internal calls
/// stay on the inner object, so the counts are the engine's calls.
class RecordingWorkload : public Workload {
 public:
  explicit RecordingWorkload(const Workload* inner)
      : inner_(inner), content_(&inner->content_process()) {}

  std::string name() const override { return inner_->name(); }
  const KnobSpace& knob_space() const override {
    return inner_->knob_space();
  }
  double CostCoreSecondsPerVideoSecond(
      const KnobConfig& config) const override {
    return inner_->CostCoreSecondsPerVideoSecond(config);
  }
  double TrueQuality(const KnobConfig& config,
                     const video::ContentState& content) const override {
    ++true_quality_calls;
    return inner_->TrueQuality(config, content);
  }
  void TrueQualities(const std::vector<KnobConfig>& configs,
                     const video::ContentState& content,
                     std::vector<double>* out) const override {
    scored.push_back(content);
    inner_->TrueQualities(configs, content, out);
  }
  double MeasuredQuality(const KnobConfig& config,
                         const video::ContentState& content,
                         Rng* rng) const override {
    measured.push_back(content);
    return inner_->MeasuredQuality(config, content, rng);
  }
  dag::TaskGraph BuildTaskGraph(
      const KnobConfig& config, double segment_seconds,
      const sim::CostModel& cost_model) const override {
    return inner_->BuildTaskGraph(config, segment_seconds, cost_model);
  }
  const video::ContentProcess& content_process() const override {
    return content_;
  }
  double measurement_noise_stddev() const override {
    return inner_->measurement_noise_stddev();
  }

  size_t content_reads() const { return content_.calls; }
  void Reset() {
    content_.calls = 0;
    true_quality_calls = 0;
    scored.clear();
    measured.clear();
  }

  mutable size_t true_quality_calls = 0;
  mutable std::vector<video::ContentState> scored;    ///< per TrueQualities
  mutable std::vector<video::ContentState> measured;  ///< per MeasuredQuality

 private:
  const Workload* inner_;
  CountingContent content_;
};

/// One offline fit at 0.3 s segments: a length whose midpoint is not exact
/// in binary, so index*seg + 0.5*seg and (index + 0.5)*seg differ by an ulp
/// on about a third of the segments.
class EngineGroundTruthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new workloads::EvCountingWorkload();
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    OfflineOptions opts;
    opts.segment_seconds = kSegmentSeconds;
    opts.train_horizon = Hours(6);
    opts.num_categories = 3;
    opts.train_forecaster = false;
    auto model = RunOfflinePhase(*workload_, cluster_, *cost_model_, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete cost_model_;
    delete workload_;
  }

  static EngineOptions Options() {
    EngineOptions opts;
    opts.duration = Hours(1);
    opts.plan_interval = Minutes(15);
    opts.cloud_budget_usd_per_interval = 0.5;
    return opts;
  }

  static constexpr double kSegmentSeconds = 0.3;
  static workloads::EvCountingWorkload* workload_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
  static OfflineModel* model_;
};

workloads::EvCountingWorkload* EngineGroundTruthTest::workload_ = nullptr;
sim::ClusterSpec EngineGroundTruthTest::cluster_;
sim::CostModel* EngineGroundTruthTest::cost_model_ = nullptr;
OfflineModel* EngineGroundTruthTest::model_ = nullptr;

TEST_F(EngineGroundTruthTest, ScoresTheContentItMeasures) {
  for (bool lookahead : {false, true}) {
    SCOPED_TRACE(lookahead ? "ground-truth forecast on"
                           : "ground-truth forecast off");
    RecordingWorkload recording(workload_);
    EngineOptions opts = Options();
    opts.use_ground_truth_forecast = lookahead;
    IngestionEngine engine(&recording, model_, cluster_, cost_model_, opts);
    ASSERT_TRUE(engine.Start(Hours(6)).ok());
    recording.Reset();  // drops Start's initial measurement
    while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());

    size_t segments = engine.partial_result().segments;
    ASSERT_GT(segments, 10000u);
    // One measurement per segment, after its truth was scored. The
    // lookahead scores whole intervals ahead, so it may run past the end.
    ASSERT_EQ(recording.measured.size(), segments);
    ASSERT_GE(recording.scored.size(), segments);
    size_t mismatched = 0;
    for (size_t i = 0; i < segments; ++i) {
      if (!SameState(recording.scored[i], recording.measured[i])) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u);
  }
}

TEST_F(EngineGroundTruthTest, OneContentReadAndOneBatchPerSegment) {
  RecordingWorkload recording(workload_);
  IngestionEngine engine(&recording, model_, cluster_, cost_model_, Options());
  ASSERT_TRUE(engine.Start(Hours(6)).ok());
  recording.Reset();
  while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());

  size_t segments = engine.partial_result().segments;
  ASSERT_GT(segments, 10000u);
  EXPECT_EQ(recording.content_reads(), segments);
  EXPECT_EQ(recording.scored.size(), segments);
  EXPECT_EQ(recording.true_quality_calls, 0u);
}

}  // namespace
}  // namespace sky::core
