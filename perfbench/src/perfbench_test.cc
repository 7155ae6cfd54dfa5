// Tests of the benchmark's own machinery: the seam decorators must not
// change a single bit of any result, and the statistics and JSON output
// must follow the benchmark's reporting rules.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/engine.h"
#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "host_speed.h"
#include "json.h"
#include "probes.h"
#include "stats.h"

namespace {

using namespace sky;
namespace pb = perfbench;

/// A small fitted model over one workload family, shared by the cameras.
struct Fitted {
  std::unique_ptr<core::Workload> workload;
  std::unique_ptr<api::Skyscraper> sky;
};

Fitted Fit(const std::string& family, double plan_days) {
  Fitted f;
  f.workload = api::MakeWorkloadByName(family);
  f.sky = std::make_unique<api::Skyscraper>(f.workload.get());
  api::Resources r;
  r.cores = 4;
  r.cloud_budget_usd_per_interval = 1.0;
  f.sky->SetResources(r);
  core::OfflineOptions o;
  o.segment_seconds = 4.0;
  o.train_horizon = Days(4);
  o.forecaster.input_span = Days(plan_days);
  o.forecaster.planned_interval = Days(plan_days);
  EXPECT_TRUE(f.sky->Fit(o).ok());
  return f;
}

core::EngineOptions Options(double days, double plan_days, uint64_t seed) {
  core::EngineOptions e;
  e.duration = Days(days);
  e.plan_interval = Days(plan_days);
  e.seed = seed;
  e.record_trace = true;  // the trace is part of the bitwise comparison
  return e;
}

TEST(SeamDecorators, EngineResultIsBitwiseIdentical) {
  Fitted f = Fit("covid", 0.5);
  auto job = f.sky->MakeStreamJob(Days(4), Options(2.0, 0.5, 7));
  ASSERT_TRUE(job.ok());
  core::IngestionEngine plain(job->workload, job->model, job->cluster,
                              job->cost_model, job->options);
  auto want = plain.Run(job->start_time);
  ASSERT_TRUE(want.ok());

  pb::StreamProbe probe;
  pb::ProbedWorkload probed(job->workload, &probe, job->start_time,
                            job->options.plan_interval,
                            job->model->configs.size());
  core::IngestionEngine decorated(&probed, job->model, job->cluster,
                                  job->cost_model, job->options);
  ASSERT_TRUE(decorated.Start(job->start_time).ok());
  probe.Reset();
  while (!decorated.Done()) ASSERT_TRUE(decorated.Step().ok());
  EXPECT_TRUE(core::EngineResultsIdentical(decorated.partial_result(), *want));

  // Per segment: one ground-truth call per configuration, one measured
  // quality call, two content reads; every interval stamped.
  const uint64_t segments = want->segments;
  EXPECT_EQ(probe.true_quality.calls, segments * job->model->configs.size());
  EXPECT_EQ(probe.measured_quality.calls, segments);
  EXPECT_EQ(probe.content.calls, 2 * segments);
  EXPECT_EQ(probe.intervals.size(), 4u);
  EXPECT_GT(probe.true_quality.timed_calls, 0u);
}

// engine-covid's untraced run steps each plan interval in chunks with
// RunUntil, to read the host's speed between them; the result must be the
// one RunInterval gives.
TEST(HostSpeed, ChunkedRunUntilMatchesRunInterval) {
  Fitted f = Fit("covid", 0.5);
  auto job = f.sky->MakeStreamJob(Days(4), Options(2.0, 0.5, 7));
  ASSERT_TRUE(job.ok());
  core::IngestionEngine engine(job->workload, job->model, job->cluster,
                               job->cost_model, job->options);
  ASSERT_TRUE(engine.Start(job->start_time).ok());
  while (!engine.Done()) ASSERT_TRUE(engine.RunInterval().ok());
  const core::EngineResult want = engine.partial_result();

  const double chunk_s = Days(0.5) / 8.0;
  ASSERT_TRUE(engine.Start(job->start_time).ok());
  for (int k = 1; !engine.Done(); ++k) {
    ASSERT_TRUE(engine.RunUntil(job->start_time + k * chunk_s).ok());
    EXPECT_GT(pb::ReferenceMs(1), 0.0);
  }
  EXPECT_TRUE(core::EngineResultsIdentical(engine.partial_result(), want));
}

TEST(HostSpeed, PinToCurrentCpuPinsAndRestores) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    pb::PinToCurrentCpu pin;
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    EXPECT_TRUE(CPU_ISSET(sched_getcpu(), &now));
  }
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

std::vector<Result<core::EngineResult>> RunFleet(
    const std::vector<core::StreamEngineJob>& jobs, dag::ThreadPool* pool) {
  auto set = core::StreamSet::Create(jobs);
  EXPECT_TRUE(set.ok());
  EXPECT_TRUE(set->RunToCompletion(pool).ok());
  return set->Results();
}

TEST(SeamDecorators, JointFleetIsBitwiseIdenticalAtOneAndAllWorkers) {
  Fitted f = Fit("flash-crowd", 1.0 / 24.0);
  constexpr size_t kCameras = 6;
  std::vector<std::unique_ptr<core::Workload>> cameras;
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < kCameras; ++i) {
    cameras.push_back(api::MakeWorkloadByName("flash-crowd", 900 + i));
    auto job = f.sky->MakeStreamJob(Days(4), Options(0.5, 1.0 / 24.0, 30 + i));
    ASSERT_TRUE(job.ok());
    job->workload = cameras.back().get();
    jobs.push_back(*job);
  }
  auto want = RunFleet(jobs, nullptr);

  const size_t nproc = dag::DefaultThreadCount();
  std::optional<dag::ThreadPool> pool;
  if (nproc > 1) pool.emplace(nproc - 1);
  for (dag::ThreadPool* p : {static_cast<dag::ThreadPool*>(nullptr),
                             pool ? &*pool : nullptr}) {
    std::vector<pb::StreamProbe> probes(kCameras);
    std::vector<std::unique_ptr<pb::ProbedWorkload>> wrapped;
    std::vector<core::StreamEngineJob> decorated = jobs;
    for (size_t v = 0; v < kCameras; ++v) {
      wrapped.push_back(std::make_unique<pb::ProbedWorkload>(
          jobs[v].workload, &probes[v], jobs[v].start_time,
          jobs[v].options.plan_interval, jobs[v].model->configs.size()));
      decorated[v].workload = wrapped.back().get();
    }
    auto got = RunFleet(decorated, p);
    ASSERT_EQ(got.size(), want.size());
    for (size_t v = 0; v < kCameras; ++v) {
      ASSERT_TRUE(got[v].ok() && want[v].ok());
      EXPECT_TRUE(core::EngineResultsIdentical(*got[v], *want[v]))
          << "stream " << v << " with "
          << (p == nullptr ? 1 : 1 + p->num_threads()) << " workers";
      EXPECT_EQ(probes[v].intervals.size(), 12u);
    }
    std::vector<const pb::StreamProbe*> ptrs;
    for (const auto& pr : probes) ptrs.push_back(&pr);
    pb::Timeline tl = pb::AnalyzeTimeline(ptrs, 0, INT64_MAX / 2);
    EXPECT_EQ(tl.boundaries, 12u);
    EXPECT_EQ(tl.workers, p == nullptr ? 1u : std::min(kCameras, nproc));
  }
}

TEST(Timeline, ReadsGapsWaitAndImbalanceFromStamps) {
  // Two workers, two intervals. Interval 0: worker 0 busy 0..10, worker 1
  // busy 0..4; interval 1 starts at 12 on both and ends at 20.
  pb::StreamProbe a, b;
  a.intervals = {{0, 10, 0}, {12, 20, 0}};
  b.intervals = {{0, 4, 1}, {12, 20, 1}};
  pb::Timeline tl = pb::AnalyzeTimeline({&a, &b}, 0, 20);
  EXPECT_EQ(tl.boundaries, 2u);
  EXPECT_EQ(tl.workers, 2u);
  ASSERT_EQ(tl.gaps_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(tl.gaps_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(tl.gaps_ms[1], 2e-6);              // 2 ns
  EXPECT_DOUBLE_EQ(tl.boundary_share, 2.0 / 20.0);
  EXPECT_DOUBLE_EQ(tl.barrier_wait_share, 6.0 / 40.0);  // worker 1 waits 6
  EXPECT_DOUBLE_EQ(tl.imbalance, (10.0 / 7.0 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(tl.busy_ns, 10 + 4 + 8 + 8);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1, 4, 9, 16, 25], n=4) == [2.5, 9.0, 20.5]
  pb::Summary s = pb::Summarize({25, 1, 16, 4, 9});
  EXPECT_DOUBLE_EQ(s.q1, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 9.0);
  EXPECT_DOUBLE_EQ(s.q3, 20.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
  s = pb::Summarize({1, 4});
  EXPECT_DOUBLE_EQ(s.q1, 0.25);
  EXPECT_DOUBLE_EQ(s.q3, 4.75);
  // statistics.quantiles(squares of 1..10, n=4) == [7.75, 30.5, 68.25]
  std::vector<double> sq;
  for (int i = 1; i <= 10; ++i) sq.push_back(i * i);
  s = pb::Summarize(sq);
  EXPECT_DOUBLE_EQ(s.q1, 7.75);
  EXPECT_DOUBLE_EQ(s.median, 30.5);
  EXPECT_DOUBLE_EQ(s.q3, 68.25);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  std::vector<double> v(999);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(pb::Percentile(v, 99.0).has_value());
  EXPECT_TRUE(pb::Percentile(v, 95.0).has_value());
  v.push_back(999.0);
  ASSERT_TRUE(pb::Percentile(v, 99.0).has_value());
  EXPECT_NEAR(*pb::Percentile(v, 99.0), 989.01, 1e-9);
}

TEST(Json, RejectsDuplicateKeys) {
  pb::JsonObject o;
  EXPECT_TRUE(o.Set("segments_per_s", 1.5));
  EXPECT_FALSE(o.Set("segments_per_s", 2.5));
  EXPECT_EQ(o.duplicate_key(), "segments_per_s");
  EXPECT_EQ(o.Dump(), "{\"segments_per_s\": 1.5}");
  pb::JsonObject nested;
  EXPECT_TRUE(nested.Set("unit", "ms"));
  EXPECT_TRUE(o.Set("m", nested));
  EXPECT_EQ(o.Dump(), "{\"segments_per_s\": 1.5, \"m\": {\"unit\": \"ms\"}}");
}

}  // namespace
