// perfbench: the end-to-end and per-layer benchmark of the V-ETL engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--commit SHA] [--source-digest HEX]
//
// Workloads (perfbench/README.md says why each exists):
//   engine-covid      one IngestionEngine on one thread, 10-day covid stream
//   fleet-flashcrowd  a joint StreamSet of flash-crowd cameras
//   serve-flashcrowd  the same cameras as sessions of an in-process
//                     serve::Server, with an open-loop metrics scraper
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 measures the
// same work untraced and then traced through the seam decorators and
// boundary hooks, prints the per-layer metrics, and writes the spans as
// Chrome trace-event JSON into --out. Every result is checked; the last
// stdout line is one JSON object, and any failed check exits 1.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/engine.h"
#include "core/multi_stream.h"
#include "core/offline.h"
#include "core/planner.h"
#include "dag/thread_pool.h"
#include "host_speed.h"
#include "io/checkpoint_io.h"
#include "json.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"

namespace pb = perfbench;
using namespace sky;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload shapes. Only the seed varies between runs.
// ---------------------------------------------------------------------------

constexpr double kSegmentSeconds = 4.0;
constexpr double kTrainDays = 16.0;
constexpr size_t kCategories = 4;
/// Full set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Fewest measured repetitions per phase, whatever --seconds says
/// (serve-flashcrowd's set-up samples come from its first kSetups
/// repetitions). The traced phase only needs enough for its shares and the
/// overhead ratio.
constexpr int kMinReps = 5;
static_assert(kMinReps >= kSetups, "every untraced phase has kSetups set-ups");
constexpr int kMinTracedReps = 2;
/// Plain/decorated replay pairs in serve-flashcrowd's traced phase.
constexpr int kReplayPairs = 3;
/// Cameras in fleet-flashcrowd and serve-flashcrowd ("tens of cameras").
constexpr size_t kCameras = 32;
constexpr double kFleetDays = 1.0;
constexpr double kFleetPlanDays = 1.0 / 24.0;  // hourly plans
constexpr double kEngineDays = 10.0;  // day 16..26: the content horizon
constexpr double kEnginePlanDays = 2.0;
/// engine-covid's untraced run steps each plan interval in this many chunks
/// (6 h of video, about 15 ms each), timing the host's speed between two.
constexpr int kEngineChunksPerInterval = 8;
/// Open-loop scrape rate of serve-flashcrowd's second connection. No
/// traffic figure exists to copy; the rate is chosen so that the served
/// windows of one run (about 1.2 s each, at least kMinReps of them) yield
/// more than the 1000 samples a p99 needs (README.md, "serve traffic").
constexpr double kScrapeHz = 200.0;
/// Fewest scrapes for a p99: ten beyond it (stats.h).
constexpr size_t kP99Samples = 1000;
/// The `sky serve --checkpoint-every` default: a checkpoint per boundary.
constexpr size_t kCheckpointEveryBoundaries = 1;

enum class Kind { kEngine, kFleet, kServe };

struct Shape {
  Kind kind;
  std::string family;  ///< workload registry name
  size_t cameras;
  double duration_days;
  double plan_days;
};

std::optional<Shape> ShapeFor(const std::string& name) {
  if (name == "engine-covid") {
    return Shape{Kind::kEngine, "covid", 1, kEngineDays, kEnginePlanDays};
  }
  if (name == "fleet-flashcrowd") {
    return Shape{Kind::kFleet, "flash-crowd", kCameras, kFleetDays,
                 kFleetPlanDays};
  }
  if (name == "serve-flashcrowd") {
    return Shape{Kind::kServe, "flash-crowd", kCameras, kFleetDays,
                 kFleetPlanDays};
  }
  return std::nullopt;
}

/// splitmix64 of (seed, salt): every camera's content seed and engine seed
/// is derived from the one --seed argument.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull;
}

uint64_t ContentSeed(uint64_t seed, size_t camera) {
  return Mix(seed, 100 + camera);
}
uint64_t EngineSeed(uint64_t seed, size_t camera) {
  return Mix(seed, 200 + camera);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Process CPU seconds (user + system, every thread).
double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

/// Correctness accounting: every check, request and stream is one attempted
/// operation; each failure is printed and counted.
class Checks {
 public:
  bool Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  bool ExpectOk(const Status& st, const std::string& what) {
    return Expect(st.ok(), st.ok() ? what : what + ": " + st.ToString());
  }
  /// Counts `n` operations of which `failed` failed.
  void Count(uint64_t n, uint64_t failed, const std::string& what) {
    attempted_ += n;
    failed_ += failed;
    if (failed > 0) {
      std::printf("CHECK FAILED: %llu of %llu %s\n",
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(n), what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Stops the run: a set-up step failed, so nothing after it can be measured.
[[noreturn]] void Fatal(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

api::Resources BenchResources() {
  api::Resources r;
  r.cores = 4;
  r.cloud_budget_usd_per_interval = 1.0;
  return r;
}

core::OfflineOptions OfflineFor(const Shape& shape) {
  core::OfflineOptions o;
  o.segment_seconds = kSegmentSeconds;
  o.train_horizon = Days(kTrainDays);
  o.num_categories = kCategories;
  o.forecaster.input_span = Days(shape.plan_days);
  o.forecaster.planned_interval = Days(shape.plan_days);
  // Serial: on this scale the pool saves nothing, and a serial fit is not
  // exposed to the other vCPUs' steal, which made set-up times swing.
  o.num_threads = 1;
  return o;
}

core::EngineOptions EngineFor(const Shape& shape, uint64_t seed,
                              size_t camera) {
  core::EngineOptions e;
  e.duration = Days(shape.duration_days);
  e.plan_interval = Days(shape.plan_days);
  e.seed = EngineSeed(seed, camera);
  return e;
}

serve::SessionSpec SessionFor(const Shape& shape, uint64_t seed,
                              size_t camera) {
  serve::SessionSpec spec;
  spec.workload = shape.family;
  spec.content_seed = ContentSeed(seed, camera);
  spec.start_days = kTrainDays;
  spec.duration_days = shape.duration_days;
  spec.plan_interval_days = shape.plan_days;
  spec.engine_seed = EngineSeed(seed, camera);
  return spec;
}

int64_t ExpectedSegments(const Shape& shape) {
  return static_cast<int64_t>(Days(shape.duration_days) / kSegmentSeconds);
}

// ---------------------------------------------------------------------------
// Set-up: the §3 offline phase, model save and load.
// ---------------------------------------------------------------------------

/// A fitted model saved to disk and loaded back: the train-once /
/// serve-many path every workload starts from.
struct TrainedModel {
  std::unique_ptr<core::Workload> workload;  ///< the camera it was fit on
  std::unique_ptr<api::Skyscraper> trainer;
  std::unique_ptr<api::Skyscraper> loaded;
  std::string path;
  double save_ms = 0.0;
  double load_ms = 0.0;
};

TrainedModel Train(const Shape& shape, const std::string& path,
                   pb::TraceRecorder* rec) {
  TrainedModel m;
  m.path = path;
  // The model is fit on the family's reference camera with the default
  // offline seed, so set-up is the same work for every --seed; the seed
  // picks the cameras that are then ingested against it.
  m.workload = api::MakeWorkloadByName(shape.family);
  m.trainer = std::make_unique<api::Skyscraper>(m.workload.get());
  m.trainer->SetResources(BenchResources());
  {
    pb::ScopedSpan span(rec, "api.Skyscraper.Fit");
    Status st = m.trainer->Fit(OfflineFor(shape));
    if (!st.ok()) Fatal("offline fit", st);
  }
  {
    pb::ScopedSpan span(rec, "api.Skyscraper.SaveModel");
    Status st = m.trainer->SaveModel(path, m.workload->name());
    m.save_ms = Seconds(span.Stop()) * 1e3;
    if (!st.ok()) Fatal("save model", st);
  }
  m.loaded = std::make_unique<api::Skyscraper>(m.workload.get());
  m.loaded->SetResources(BenchResources());
  {
    pb::ScopedSpan span(rec, "api.Skyscraper.LoadModel");
    Status st = m.loaded->LoadModel(path, m.workload->name());
    m.load_ms = Seconds(span.Stop()) * 1e3;
    if (!st.ok()) Fatal("load model", st);
  }
  return m;
}

/// The offline phase re-run through its public step functions, one span
/// each, in RunOfflinePhase's order and with its seeds. The model must come
/// out bitwise equal to the facade's fit, or these step times describe some
/// other computation.
struct OfflineSteps {
  double filter_configs_s = 0.0;
  double profile_placements_s = 0.0;
  double categories_s = 0.0;
  double forecast_data_s = 0.0;
  double forecast_train_s = 0.0;
};

OfflineSteps ProfileOfflineSteps(const Shape& shape,
                                 const TrainedModel& trained,
                                 pb::TraceRecorder* rec, Checks* checks) {
  const core::OfflineOptions opts = OfflineFor(shape);
  const core::Workload& workload = *trained.workload;
  OfflineSteps t;
  core::OfflineModel model;
  model.segment_seconds = opts.segment_seconds;
  model.train_horizon =
      std::min<double>(opts.train_horizon,
                       workload.content_process().horizon());
  std::optional<dag::ThreadPool> pool;
  if (opts.num_threads > 1) pool.emplace(opts.num_threads);
  dag::ThreadPool* p = pool ? &*pool : nullptr;
  pb::ScopedSpan root(rec, "core.offline");

  auto step = [&](const char* name, double* into, auto&& fn) {
    pb::ScopedSpan span(rec, name, root.id());
    Status st = fn();
    *into = Seconds(span.Stop());
    if (!st.ok()) Fatal(name, st);
  };
  step("core.offline.filter_configs", &t.filter_configs_s, [&] {
    core::ConfigFilterOptions f = opts.filter;
    f.train_horizon = model.train_horizon;
    f.seed = opts.seed ^ 0x1;
    f.pool = p;
    auto r = core::FilterKnobConfigs(workload, f);
    if (r.ok()) model.configs = std::move(*r);
    return r.status();
  });
  step("core.offline.profile_placements", &t.profile_placements_s, [&] {
    auto r = core::ProfileConfigs(
        workload, model.configs, trained.trainer->cluster(),
        trained.trainer->cost_model(), opts.segment_seconds,
        opts.placement_search, p);
    if (r.ok()) model.profiles = std::move(*r);
    return r.status();
  });
  step("core.offline.categories", &t.categories_s, [&] {
    core::CategorizerOptions cat;
    cat.num_categories = opts.num_categories;
    cat.segment_seconds = opts.segment_seconds;
    cat.train_horizon = model.train_horizon;
    cat.backend = opts.categorizer_backend;
    cat.seed = opts.seed ^ 0x2;
    cat.pool = p;
    auto r = core::BuildContentCategories(workload, model.configs, cat);
    if (r.ok()) model.categories = std::move(*r);
    return r.status();
  });
  step("core.offline.forecast_data", &t.forecast_data_s, [&] {
    model.train_category_sequence = core::BuildTrainCategorySequence(
        workload, model.configs, model.categories, opts.segment_seconds,
        model.train_horizon, opts.seed ^ 0x3, p);
    return Status::Ok();
  });
  step("core.offline.forecast_train", &t.forecast_train_s, [&] {
    core::ForecasterOptions fopts = opts.forecaster;
    fopts.seed = opts.seed ^ 0x4;
    fopts.pool = p;
    auto r = core::Forecaster::Train(model.train_category_sequence,
                                     opts.segment_seconds, opts.num_categories,
                                     fopts);
    if (r.ok()) model.forecaster.emplace(std::move(*r));
    return r.status();
  });
  auto fitted = trained.trainer->model();
  checks->Expect(fitted.ok() && core::OfflineModelsIdentical(model, **fitted),
                 "offline steps reproduce the facade's fitted model bitwise");
  return t;
}

// ---------------------------------------------------------------------------
// Result checks shared by every workload.
// ---------------------------------------------------------------------------

void CheckResults(const std::vector<Result<core::EngineResult>>& results,
                  int64_t expected_segments, const std::string& what,
                  Checks* checks) {
  for (size_t v = 0; v < results.size(); ++v) {
    const std::string id = what + " stream " + std::to_string(v);
    if (!checks->ExpectOk(results[v].status(), id + " finished")) continue;
    checks->Expect(
        static_cast<int64_t>(results[v]->segments) == expected_segments,
                   id + " ingested the expected horizon");
    checks->Expect(results[v]->overflow_events == 0, id + " never overflowed");
  }
}

/// Checks `got` bitwise against `want` (once `want` is set) or adopts it.
void CheckSame(const std::vector<core::EngineResult>& got,
               std::optional<std::vector<core::EngineResult>>* want,
               const std::string& what, Checks* checks) {
  if (!want->has_value()) {
    *want = got;
    return;
  }
  bool same = got.size() == (*want)->size();
  for (size_t v = 0; same && v < got.size(); ++v) {
    same = core::EngineResultsIdentical(got[v], (**want)[v]);
  }
  checks->Expect(same, what);
}

std::vector<core::EngineResult> Values(
    const std::vector<Result<core::EngineResult>>& results) {
  std::vector<core::EngineResult> out;
  for (const auto& r : results) {
    out.push_back(r.ok() ? *r : core::EngineResult{});
  }
  return out;
}

double MeanQuality(const std::vector<core::EngineResult>& results) {
  double sum = 0.0;
  for (const auto& r : results) sum += r.mean_quality;
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

// ---------------------------------------------------------------------------
// Measurements a phase (untraced or traced) accumulates.
// ---------------------------------------------------------------------------

struct Phase {
  std::vector<double> setup_s;      ///< normalized seconds (NormalizedS)
  std::vector<double> raw_setup_s;  ///< wall seconds
  std::vector<double> rates;      ///< segments per normalized second
  std::vector<double> raw_rates;  ///< segments per wall-second
  std::vector<double> ref_ms;     ///< every reference-kernel reading
  double window_s = 0.0;      ///< summed ingest-window wall time
  double window_cpu_s = 0.0;  ///< process CPU over the same windows
  double mean_quality = 0.0;
  double peak_rss_mb = 0.0;
  std::optional<std::vector<core::EngineResult>> results;
  // Traced only.
  pb::LayerTotals layers;               ///< seam calls, summed over reps
  double stepping_ns = 0.0;             ///< time the layer shares are of
  uint64_t segments = 0;                ///< segments the probes covered
  std::vector<double> gaps_ms;
  std::vector<double> boundary_share, barrier_wait_share, imbalance;
  size_t boundaries = 0;
};

// Perfetto rows: the main thread is row 0 (ScopedSpan's default).
constexpr int kFirstWorkerTrack = 1;  ///< + ThreadIndex() of a stepping thread
constexpr int kBoundaryTrack = 999;
constexpr int kScraperTrack = 1000;

/// Records a run's timeline into `phase` and its per-stream interval spans
/// (one Perfetto row per worker thread, boundary gaps on their own row).
void RecordTimeline(const std::vector<pb::StreamProbe>& probes,
                    int64_t start_ns, int64_t end_ns, int64_t parent,
                    pb::TraceRecorder* rec, Phase* phase) {
  std::vector<const pb::StreamProbe*> ptrs;
  for (const auto& p : probes) ptrs.push_back(&p);
  pb::Timeline tl = pb::AnalyzeTimeline(ptrs, start_ns, end_ns);
  phase->stepping_ns += tl.busy_ns;
  for (const auto& p : probes) phase->layers.Add(p);
  phase->boundaries += tl.boundaries;
  phase->gaps_ms.insert(phase->gaps_ms.end(), tl.gaps_ms.begin(),
                        tl.gaps_ms.end());
  phase->boundary_share.push_back(tl.boundary_share);
  phase->barrier_wait_share.push_back(tl.barrier_wait_share);
  phase->imbalance.push_back(tl.imbalance);
  if (rec == nullptr) return;
  rec->NameTrack(kBoundaryTrack, "lockstep boundaries");
  int64_t prev_last = start_ns;
  for (size_t i = 0;; ++i) {
    int64_t first = INT64_MAX, last = INT64_MIN;
    for (size_t v = 0; v < probes.size(); ++v) {
      if (i >= probes[v].intervals.size()) continue;
      const pb::IntervalStamp& s = probes[v].intervals[i];
      if (s.thread < 0) continue;
      first = std::min(first, s.first_ns);
      last = std::max(last, s.last_ns);
      rec->NameTrack(kFirstWorkerTrack + s.thread,
                     "stepping thread " + std::to_string(s.thread));
      rec->Add("interval " + std::to_string(i), s.first_ns, s.last_ns,
               kFirstWorkerTrack + s.thread, parent, static_cast<int64_t>(v));
    }
    if (first == INT64_MAX) break;
    rec->Add("boundary " + std::to_string(i), prev_last, first, kBoundaryTrack,
             parent);
    prev_last = last;
  }
}

// ---------------------------------------------------------------------------
// Boundary hooks: one engine stepped plan interval by plan
// interval through its public hooks, each hook call timed.
// ---------------------------------------------------------------------------

struct HookTimes {
  std::vector<double> prepare_ms;
  std::vector<double> solve_ms;
  double run_interval_ns = 0.0;
  /// Boundary hooks + RunInterval wall time, per interval.
  std::vector<double> interval_s;
  std::vector<int64_t> interval_segments;
};

Status RunHooked(core::IngestionEngine* engine, SimTime start,
                 pb::TraceRecorder* rec, int64_t parent, HookTimes* out,
                 pb::StreamProbe* probe) {
  SKY_RETURN_NOT_OK(engine->Start(start));
  if (probe != nullptr) probe->Reset();  // drop the calls Start made
  core::PlanWorkspace ws;
  const core::OfflineModel& model = engine->model();
  while (!engine->Done()) {
    const int64_t interval_start = pb::NowNs();
    if (engine->AtPlanBoundary()) {
      {
        pb::ScopedSpan span(rec, "core.engine.PrepareBoundary", parent);
        SKY_RETURN_NOT_OK(engine->PrepareBoundary());
        out->prepare_ms.push_back(Seconds(span.Stop()) * 1e3);
      }
      core::KnobPlan plan;
      {
        pb::ScopedSpan span(rec, "core.planner.ComputeKnobPlan", parent);
        auto solved = core::ComputeKnobPlan(
            model.categories, engine->boundary_forecast(),
            engine->config_costs(), engine->PlanBudgetCoreSPerVideoS(),
            engine->options().planner_backend, &ws);
        if (solved.ok()) {
          plan = std::move(*solved);
        } else if (solved.status().code() == StatusCode::kResourceExhausted) {
          plan = engine->FallbackPlan(engine->boundary_forecast());
        } else {
          return solved.status();
        }
        out->solve_ms.push_back(Seconds(span.Stop()) * 1e3);
      }
      pb::ScopedSpan span(rec, "core.engine.InstallPlan", parent);
      SKY_RETURN_NOT_OK(engine->InstallPlan(std::move(plan)));
    }
    int64_t before = engine->next_segment_index();
    pb::ScopedSpan span(rec, "core.engine.RunInterval", parent);
    SKY_RETURN_NOT_OK(engine->RunInterval());
    out->run_interval_ns += static_cast<double>(span.Stop());
    // Boundary hooks included, as in the untraced RunInterval loop.
    out->interval_s.push_back(Seconds(pb::NowNs() - interval_start));
    out->interval_segments.push_back(engine->next_segment_index() - before);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// serve: one server, one admitting/fetching client, one open-loop scraper.
// ---------------------------------------------------------------------------

struct Scrapes {
  std::vector<double> latency_ms;  ///< reply time - scheduled send time
  std::vector<double> late_ms;     ///< actual send time - scheduled time
  std::vector<double> bytes;
  /// Summed send-to-reply time: an upper bound on the fleet thread's time
  /// spent rendering Metrics() replies.
  double busy_s = 0.0;
  uint64_t failed = 0;
  uint64_t max_checkpoint_bytes = 0;  ///< largest checkpoint file seen
};

/// Scrapes Metrics() on its own connection at a fixed rate from `start_ns`
/// until stopped. Open loop: the schedule never waits for the server, so a
/// stalled reply makes the following sends late, and their latency counts
/// from when they were due. After each reply it also notes the size of the
/// server's checkpoint file, which the server rewrites at boundaries.
class Scraper {
 public:
  Scraper(serve::Client* client, double hz, std::string checkpoint_path,
          pb::TraceRecorder* rec, int track)
      : client_(client), period_ns_(static_cast<int64_t>(1e9 / hz)),
        checkpoint_path_(std::move(checkpoint_path)), rec_(rec),
        track_(track) {}
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Start(int64_t start_ns) {
    thread_ = std::thread([this, start_ns] { Loop(start_ns); });
  }
  Scrapes Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return std::move(scrapes_);
  }

 private:
  void Loop(int64_t start_ns) {
    for (int64_t k = 0; !stop_.load(); ++k) {
      const int64_t due = start_ns + k * period_ns_;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - pb::NowNs()));
      if (stop_.load()) break;
      const int64_t sent = pb::NowNs();
      auto reply = client_->Metrics();
      const int64_t done = pb::NowNs();
      if (!reply.ok()) {
        ++scrapes_.failed;
        continue;
      }
      scrapes_.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
      scrapes_.late_ms.push_back(static_cast<double>(sent - due) / 1e6);
      scrapes_.bytes.push_back(static_cast<double>(reply->size()));
      scrapes_.busy_s += Seconds(done - sent);
      if (rec_ != nullptr) rec_->Add("serve.Client.Metrics", due, done, track_);
      if (!checkpoint_path_.empty()) {
        scrapes_.max_checkpoint_bytes =
            std::max(scrapes_.max_checkpoint_bytes,
                     FileBytes(checkpoint_path_));
      }
    }
  }

  serve::Client* client_;
  int64_t period_ns_;
  std::string checkpoint_path_;
  pb::TraceRecorder* rec_;
  int track_;
  Scrapes scrapes_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member it uses
};

void Append(const Scrapes& from, Scrapes* into) {
  auto cat = [](const std::vector<double>& a, std::vector<double>* b) {
    b->insert(b->end(), a.begin(), a.end());
  };
  cat(from.latency_ms, &into->latency_ms);
  cat(from.late_ms, &into->late_ms);
  cat(from.bytes, &into->bytes);
  into->busy_s += from.busy_s;
  into->failed += from.failed;
  into->max_checkpoint_bytes =
      std::max(into->max_checkpoint_bytes, from.max_checkpoint_bytes);
}

struct Served {
  double setup_s = 0.0;  ///< server start through the last admission
  std::vector<double> admit_ms;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
  std::vector<core::EngineResult> results;
  Scrapes scrapes;
  uint64_t checkpoint_bytes = 0;  ///< largest serve checkpoint written
};

/// Serves `specs` from `model_path`: the clock starts at the last
/// admission, and every result is fetched while the scraper runs.
Served Serve(const Shape& shape, const std::string& model_path,
             const std::vector<serve::SessionSpec>& specs,
             const std::string& checkpoint_path, pb::TraceRecorder* rec,
             Checks* checks) {
  Served out;
  const int64_t t0 = pb::NowNs();
  serve::ServerOptions opts;
  opts.model_path = model_path;
  opts.workload = shape.family;
  opts.resources = BenchResources();
  opts.start_after_sessions = specs.size();
  opts.checkpoint_path = checkpoint_path;
  opts.checkpoint_every_boundaries = kCheckpointEveryBoundaries;
  auto server = serve::Server::Start(opts);
  if (!server.ok()) Fatal("server start", server.status());
  auto client = serve::Client::Connect((*server)->port());
  auto scrape_client = serve::Client::Connect((*server)->port());
  if (!client.ok()) Fatal("connect", client.status());
  if (!scrape_client.ok()) Fatal("connect", scrape_client.status());
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < specs.size(); ++i) {
    pb::ScopedSpan span(rec, "serve.Client.OpenSession", -1,
                        static_cast<int64_t>(i));
    auto admitted = client->OpenSession(specs[i]);
    out.admit_ms.push_back(Seconds(span.Stop()) * 1e3);
    if (checks->ExpectOk(admitted.status(), "session " + std::to_string(i) +
                                                " admitted")) {
      ids.push_back(admitted->first);
    }
  }
  const int64_t window_start = pb::NowNs();
  out.setup_s = Seconds(window_start - t0);
  const double cpu0 = ProcessCpuSeconds();
  {
    Scraper scraper(&*scrape_client, kScrapeHz, checkpoint_path, rec,
                    kScraperTrack);
    scraper.Start(window_start);
    for (size_t i = 0; i < ids.size(); ++i) {
      pb::ScopedSpan span(rec, "serve.Client.FetchResult", -1,
                          static_cast<int64_t>(i));
      auto result = client->FetchResult(ids[i]);
      if (checks->ExpectOk(result.status(),
                           "session " + std::to_string(i) + " result")) {
        out.results.push_back(std::move(*result));
      }
    }
    const int64_t window_end = pb::NowNs();
    out.window_s = Seconds(window_end - window_start);
    out.window_cpu_s = ProcessCpuSeconds() - cpu0;
    out.scrapes = scraper.Stop();
  }
  checks->Count(out.scrapes.latency_ms.size() + out.scrapes.failed,
                out.scrapes.failed, "metrics scrapes");
  checks->ExpectOk(client->Drain(), "server drain");
  checks->ExpectOk((*server)->Wait(), "server exit");
  if (!checkpoint_path.empty()) {
    out.checkpoint_bytes = std::max(out.scrapes.max_checkpoint_bytes,
                                    FileBytes(checkpoint_path));
    checks->Expect(out.checkpoint_bytes > 0, "serve checkpoint written");
    std::remove(checkpoint_path.c_str());
  }
  return out;
}

/// The per-session simulation exactly as Server::BuildJob assembles it: its
/// own workload instance and facade with the served model loaded.
struct Tenant {
  std::unique_ptr<core::Workload> workload;
  std::unique_ptr<api::Skyscraper> facade;
};

core::StreamEngineJob MirrorJob(const serve::SessionSpec& spec,
                                const std::string& model_path, Tenant* tenant) {
  tenant->workload = api::MakeWorkloadByName(spec.workload, spec.content_seed);
  tenant->facade = std::make_unique<api::Skyscraper>(tenant->workload.get());
  tenant->facade->SetResources(BenchResources());
  Status st = tenant->facade->LoadModel(model_path, tenant->workload->name());
  if (!st.ok()) Fatal("mirror load model", st);
  core::EngineOptions opts;
  opts.duration = Days(spec.duration_days);
  opts.plan_interval = Days(spec.plan_interval_days);
  opts.seed = spec.engine_seed;
  auto job = tenant->facade->MakeStreamJob(Days(spec.start_days), opts);
  if (!job.ok()) Fatal("mirror job", job.status());
  return *job;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    pb::JsonObject m;
    m.Set("value", value);
    m.Set("unit", unit);
    metrics_.Set(name, m);  // a repeated name is caught by duplicate()
    std::printf("  %-48s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  bool duplicate() const { return !metrics_.duplicate_key().empty(); }
  const pb::JsonObject& metrics() const { return metrics_; }

 private:
  pb::JsonObject metrics_;
};

void PrintSummary(const char* what, const std::vector<double>& v,
                  const char* unit) {
  pb::Summary s = pb::Summarize(v);
  std::printf("  %-28s n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g %s\n", what,
              s.n, s.min, s.q1, s.median, s.q3, unit);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintHost(const Args& args) {
  pb::JsonObject host;
  host.Set("nproc", static_cast<uint64_t>(dag::DefaultThreadCount()));
  host.Set("cpu_model", CpuModel());
  host.Set("compiler", std::string("g++ ") + __VERSION__);
#ifdef PERFBENCH_BUILD_TYPE
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
#else
  host.Set("build_type", "unknown");
#endif
  host.Set("git_commit", args.commit);
  host.Set("source_digest", args.source_digest);
  host.Set("workload", args.workload);
  host.Set("seed", args.seed);
  host.Set("seconds", args.seconds);
  host.Set("trace", args.trace);
  std::printf("host %s\n", host.Dump().c_str());
}

// ---------------------------------------------------------------------------
// The three workloads. Each runs an untraced phase (all of --seconds, or
// half of it before a traced phase) and fills the report.
// ---------------------------------------------------------------------------

struct Context {
  Args args;
  Shape shape;
  std::string dir;  ///< scratch files of this run
  Checks checks;
  pb::TraceRecorder* rec = nullptr;  ///< set during the traced phase only
  double clock_overhead_ns = 0.0;
};

std::string PathIn(const Context& ctx, const std::string& name) {
  return ctx.dir + "/" + name;
}

/// Whether a phase runs another repetition: at least kMinReps, then until
/// its ingest windows add up to `seconds` (set-up time does not count).
bool MoreReps(const Phase& phase, int rep, double seconds,
              int min_reps = kMinReps) {
  return rep < min_reps || phase.window_s < seconds;
}

/// Records the process's peak RSS once, after the first measured
/// repetition: a fixed amount of work, so the figure does not grow with
/// how many repetitions fit into --seconds.
void MarkPeakRss(Phase* phase) {
  if (phase->peak_rss_mb == 0.0) phase->peak_rss_mb = PeakRssMiB();
}

/// The reference kernel's time on a nominal host, ms. Timings are reported
/// as they would read on a host that runs the kernel in exactly this time.
constexpr double kNominalReferenceMs = 1.0;

/// Kernel runs per host-speed reading around a whole set-up or repetition
/// (about 9 ms); between two engine chunks a reading is one run.
constexpr int kRepReferenceRuns = 9;

/// Reads the reference kernel on the calling thread (the median of `runs`
/// runs) and records the reading.
double ReadReference(Phase* phase, int runs = kRepReferenceRuns) {
  phase->ref_ms.push_back(pb::ReferenceMs(runs));
  return phase->ref_ms.back();
}

/// `wall_s` scaled to the nominal host, given the reference kernel's time
/// read right before and right after the window on the same thread. On a
/// shared VM the host's speed drifts by up to 2x; the window and the kernel
/// slow down together, so the scaled time drifts far less (README.md,
/// "Host speed").
double NormalizedS(double wall_s, double ref_before_ms, double ref_after_ms) {
  return wall_s * kNominalReferenceMs /
         (0.5 * (ref_before_ms + ref_after_ms));
}

/// Records one set-up of `wall_s` that began after reference reading
/// `ref_before_ms`.
void RecordSetUp(double wall_s, double ref_before_ms, Phase* phase) {
  phase->raw_setup_s.push_back(wall_s);
  phase->setup_s.push_back(
      NormalizedS(wall_s, ref_before_ms, ReadReference(phase)));
}

// ---- engine-covid ----------------------------------------------------------

struct EngineRig {
  TrainedModel model;
  core::StreamEngineJob job;
  std::unique_ptr<core::IngestionEngine> engine;
};

EngineRig SetUpEngine(Context* ctx, Phase* phase) {
  const double ref0 = ReadReference(phase);
  const int64_t t0 = pb::NowNs();
  EngineRig rig;
  rig.model = Train(ctx->shape, PathIn(*ctx, "model.bin"),
                    ctx->rec);
  auto job = rig.model.loaded->MakeStreamJob(
      Days(kTrainDays), EngineFor(ctx->shape, ctx->args.seed, 0));
  if (!job.ok()) Fatal("engine job", job.status());
  rig.job = *job;
  rig.engine = std::make_unique<core::IngestionEngine>(
      rig.job.workload, rig.job.model, rig.job.cluster, rig.job.cost_model,
      rig.job.options);
  Status st = rig.engine->Start(rig.job.start_time);
  if (!st.ok()) Fatal("engine start", st);
  RecordSetUp(Seconds(pb::NowNs() - t0), ref0, phase);
  return rig;
}

/// Segments per second of a "median rep": every rep ingests the same plan
/// intervals, so each interval's wall time is replaced by its median over
/// reps and the rate is total segments over the summed medians. Robust to
/// a noisy stretch of a single interval without mixing intervals of
/// different content into one distribution.
double MedianRepRate(const std::vector<std::vector<double>>& interval_s,
                     const std::vector<int64_t>& interval_segments) {
  double segments = 0.0, seconds = 0.0;
  for (size_t k = 0; k < interval_s.size(); ++k) {
    segments += static_cast<double>(interval_segments[k]);
    seconds += pb::Summarize(interval_s[k]).median;
  }
  return seconds > 0.0 ? segments / seconds : 0.0;
}

void EngineUntraced(Context* ctx, double seconds, Phase* phase) {
  pb::PinToCurrentCpu pin;  // readings and work on one vCPU
  EngineRig rig;
  for (int i = 0; i < kSetups; ++i) rig = SetUpEngine(ctx, phase);
  // Per chunk, over reps: normalized and wall seconds.
  std::vector<std::vector<double>> interval_s, raw_interval_s;
  std::vector<int64_t> interval_segments;
  const double chunk_s = Days(kEnginePlanDays) / kEngineChunksPerInterval;
  for (int rep = 0; MoreReps(*phase, rep, seconds); ++rep) {
    core::IngestionEngine& e = *rig.engine;
    Status st = e.Start(rig.job.start_time);
    if (!st.ok()) Fatal("engine start", st);
    double cpu_s = 0.0;
    // The host's speed changes within a plan interval, so the engine is
    // stepped in chunks of an interval, with one host-speed reading between
    // two chunks. RunUntil and RunInterval are the same loop of Step()
    // calls, so the results are the same as RunInterval's.
    double ref = ReadReference(phase, 1);
    for (size_t k = 0; !e.Done() && st.ok(); ++k) {
      int64_t before = e.next_segment_index();
      const double cpu0 = ProcessCpuSeconds();
      int64_t t0 = pb::NowNs();
      st = e.RunUntil(rig.job.start_time +
                      static_cast<double>(k + 1) * chunk_s);
      double dt = Seconds(pb::NowNs() - t0);
      cpu_s += ProcessCpuSeconds() - cpu0;
      const double ref_after = ReadReference(phase, 1);
      phase->window_s += dt;
      if (interval_s.size() <= k) {
        interval_s.resize(k + 1);
        raw_interval_s.resize(k + 1);
        interval_segments.push_back(e.next_segment_index() - before);
      }
      interval_s[k].push_back(NormalizedS(dt, ref, ref_after));
      raw_interval_s[k].push_back(dt);
      ref = ref_after;
    }
    phase->window_cpu_s += cpu_s;
    ctx->checks.ExpectOk(st, "engine run");
    std::vector<Result<core::EngineResult>> r = {e.partial_result()};
    CheckResults(r, ExpectedSegments(ctx->shape), "engine", &ctx->checks);
    CheckSame(Values(r), &phase->results, "engine reps agree bitwise",
              &ctx->checks);
    MarkPeakRss(phase);
  }
  phase->rates.push_back(MedianRepRate(interval_s, interval_segments));
  phase->raw_rates.push_back(MedianRepRate(raw_interval_s, interval_segments));
  phase->mean_quality = MeanQuality(*phase->results);
}

struct TracedExtras {
  OfflineSteps offline;
  double save_ms = 0.0, load_ms = 0.0;
  HookTimes hooks;
  uint64_t checkpoint_bytes = 0;
  std::optional<double> overhead_ratio;
  std::optional<double> scrape_busy_share;
  /// serve-flashcrowd's tracing cost, from its plain and decorated replays.
  std::optional<double> trace_overhead;
  /// fleet-flashcrowd's barrier figures, from its nproc-worker pass.
  std::optional<double> barrier_wait_share;
  std::optional<double> imbalance;
  std::optional<double> cores_busy;
};

void EngineTraced(Context* ctx, double seconds, Phase* phase,
                  TracedExtras* x) {
  Phase setup_phase;
  EngineRig rig = SetUpEngine(ctx, &setup_phase);
  x->save_ms = rig.model.save_ms;
  x->load_ms = rig.model.load_ms;
  x->offline = ProfileOfflineSteps(ctx->shape, rig.model,
                                   ctx->rec, &ctx->checks);
  std::vector<pb::StreamProbe> probes(1);
  pb::ProbedWorkload probed(rig.job.workload, &probes[0], rig.job.start_time,
                            rig.job.options.plan_interval,
                            rig.job.model->configs.size());
  core::IngestionEngine engine(&probed, rig.job.model, rig.job.cluster,
                               rig.job.cost_model, rig.job.options);
  std::vector<std::vector<double>> interval_s;
  std::vector<int64_t> interval_segments;
  for (int rep = 0; MoreReps(*phase, rep, seconds, kMinTracedReps); ++rep) {
    pb::ScopedSpan root(ctx->rec, "rep " + std::to_string(rep));
    const int64_t start = pb::NowNs();
    HookTimes hooks;
    Status st = RunHooked(&engine, rig.job.start_time, ctx->rec, root.id(),
                          &hooks, &probes[0]);
    const int64_t end = pb::NowNs();
    ctx->checks.ExpectOk(st, "hooked engine run");
    x->hooks.prepare_ms.insert(x->hooks.prepare_ms.end(),
                               hooks.prepare_ms.begin(),
                               hooks.prepare_ms.end());
    x->hooks.solve_ms.insert(x->hooks.solve_ms.end(), hooks.solve_ms.begin(),
                             hooks.solve_ms.end());
    phase->window_s += Seconds(end - start);
    interval_s.resize(hooks.interval_s.size());
    interval_segments = hooks.interval_segments;
    for (size_t k = 0; k < hooks.interval_s.size(); ++k) {
      interval_s[k].push_back(hooks.interval_s[k]);
    }
    std::vector<Result<core::EngineResult>> r = {engine.partial_result()};
    CheckResults(r, ExpectedSegments(ctx->shape), "traced engine",
                 &ctx->checks);
    CheckSame(Values(r), &phase->results,
              "traced engine reps agree bitwise", &ctx->checks);
    // Shares are of the RunInterval spans; the timeline still comes from
    // the stamps so the boundary metrics read the same way everywhere.
    double busy_before = phase->stepping_ns;
    RecordTimeline(probes, start, end, root.id(), nullptr, phase);
    phase->stepping_ns = busy_before + hooks.run_interval_ns;
    phase->segments += r[0].ok() ? r[0]->segments : 0;
  }
  phase->raw_rates.push_back(MedianRepRate(interval_s, interval_segments));
  auto ckpt = engine.Checkpoint();
  std::string bytes;
  if (ctx->checks.ExpectOk(ckpt.ok() ? io::SerializeIngestState(*ckpt, &bytes)
                                     : ckpt.status(),
                           "engine checkpoint serializes")) {
    x->checkpoint_bytes = bytes.size();
  }
}

// ---- fleet-flashcrowd -----------------------------------------------------

struct FleetRig {
  TrainedModel model;
  std::vector<std::unique_ptr<core::Workload>> cameras;
  std::vector<core::StreamEngineJob> jobs;
};

FleetRig SetUpFleet(Context* ctx, Phase* phase) {
  const double ref0 = ReadReference(phase);
  const int64_t t0 = pb::NowNs();
  FleetRig rig;
  rig.model = Train(ctx->shape, PathIn(*ctx, "model.bin"),
                    ctx->rec);
  for (size_t i = 0; i < ctx->shape.cameras; ++i) {
    rig.cameras.push_back(api::MakeWorkloadByName(
        ctx->shape.family, ContentSeed(ctx->args.seed, i)));
    auto job = rig.model.loaded->MakeStreamJob(
        Days(kTrainDays), EngineFor(ctx->shape, ctx->args.seed, i));
    if (!job.ok()) Fatal("fleet job", job.status());
    job->workload = rig.cameras.back().get();  // one shared model
    rig.jobs.push_back(*job);
  }
  // Creation is part of set-up; the measured reps create their own sets.
  auto set = core::StreamSet::Create(rig.jobs);
  if (!set.ok()) Fatal("fleet create", set.status());
  RecordSetUp(Seconds(pb::NowNs() - t0), ref0, phase);
  return rig;
}

/// One joint fleet run of `jobs` on `pool` (null: the calling thread
/// alone). With `checkpoint_bytes`, also serializes the finished fleet.
void RunFleet(Context* ctx, const std::vector<core::StreamEngineJob>& jobs,
              dag::ThreadPool* pool, std::vector<pb::StreamProbe>* probes,
              int64_t parent, Phase* phase, const std::string& what,
              uint64_t* checkpoint_bytes = nullptr) {
  auto set = core::StreamSet::Create(jobs);
  if (!set.ok()) Fatal("fleet create", set.status());
  if (probes != nullptr) {
    for (auto& p : *probes) p.Reset();  // drop the calls Create made
  }
  const double ref0 = ReadReference(phase);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = pb::NowNs();
  Status st = set->RunToCompletion(pool);
  const int64_t end = pb::NowNs();
  phase->window_cpu_s += ProcessCpuSeconds() - cpu0;
  const double ref1 = ReadReference(phase);
  ctx->checks.ExpectOk(st, what + " run");
  auto results = set->Results();
  CheckResults(results, ExpectedSegments(ctx->shape), what, &ctx->checks);
  uint64_t segments = 0;
  for (const auto& r : results) segments += r.ok() ? r->segments : 0;
  phase->window_s += Seconds(end - start);
  phase->raw_rates.push_back(static_cast<double>(segments) /
                             Seconds(end - start));
  phase->rates.push_back(static_cast<double>(segments) /
                         NormalizedS(Seconds(end - start), ref0, ref1));
  CheckSame(Values(results), &phase->results,
            what + " reps agree bitwise", &ctx->checks);
  if (probes != nullptr) {
    RecordTimeline(*probes, start, end, parent, ctx->rec, phase);
    phase->segments += segments;
  }
  if (checkpoint_bytes != nullptr) {
    io::FleetCheckpoint ckpt;
    std::string bytes;
    Status cst = set->CaptureCheckpoint(&ckpt);
    if (cst.ok()) cst = io::SerializeFleetCheckpoint(ckpt, &bytes);
    if (ctx->checks.ExpectOk(cst, "fleet checkpoint serializes")) {
      *checkpoint_bytes = bytes.size();
    }
  }
}

/// The end-to-end fleet runs on one worker (the calling thread). With a
/// worker per vCPU, wall time on a shared 4-vCPU host swung by 2x within
/// minutes as neighbours' load came and went (the barrier waits for the
/// slowest vCPU), far outside any usable bound. The barrier is measured per
/// layer on nproc workers instead (FleetTraced).
void FleetUntraced(Context* ctx, double seconds, Phase* phase) {
  pb::PinToCurrentCpu pin;  // readings and work on one vCPU
  FleetRig rig;
  for (int i = 0; i < kSetups; ++i) rig = SetUpFleet(ctx, phase);
  for (int rep = 0; MoreReps(*phase, rep, seconds); ++rep) {
    RunFleet(ctx, rig.jobs, nullptr, nullptr, -1, phase, "fleet");
    MarkPeakRss(phase);
  }
  phase->mean_quality = MeanQuality(*phase->results);
}

/// Per-stream boundary cost of a fleet: the first camera alone, stepped
/// through the engine's boundary hooks (forecaster fine-tune + forecast,
/// then the single-stream solve).
HookTimes BoundaryHookProbe(Context* ctx, const core::StreamEngineJob& job) {
  core::IngestionEngine engine(job.workload, job.model, job.cluster,
                               job.cost_model, job.options);
  HookTimes hooks;
  pb::ScopedSpan root(ctx->rec, "boundary hook probe (camera 0)");
  ctx->checks.ExpectOk(RunHooked(&engine, job.start_time, ctx->rec, root.id(),
                                 &hooks, nullptr),
                       "boundary hook probe");
  return hooks;
}

/// Wraps every job's workload in a ProbedWorkload feeding probes[v];
/// `decorated` receives the jobs with the wrapped workloads, which the
/// returned objects own.
std::vector<std::unique_ptr<pb::ProbedWorkload>> Decorate(
    std::vector<core::StreamEngineJob> jobs,
    std::vector<pb::StreamProbe>* probes,
    std::vector<core::StreamEngineJob>* decorated) {
  probes->assign(jobs.size(), pb::StreamProbe{});
  std::vector<std::unique_ptr<pb::ProbedWorkload>> wrapped;
  *decorated = jobs;
  for (size_t v = 0; v < jobs.size(); ++v) {
    wrapped.push_back(std::make_unique<pb::ProbedWorkload>(
        jobs[v].workload, &(*probes)[v], jobs[v].start_time,
        jobs[v].options.plan_interval, jobs[v].model->configs.size()));
    (*decorated)[v].workload = wrapped.back().get();
  }
  return wrapped;
}

void FleetTraced(Context* ctx, double seconds, Phase* phase,
                 dag::ThreadPool* pool, TracedExtras* x) {
  Phase setup_phase;
  FleetRig rig = SetUpFleet(ctx, &setup_phase);
  x->save_ms = rig.model.save_ms;
  x->load_ms = rig.model.load_ms;
  x->offline = ProfileOfflineSteps(ctx->shape, rig.model,
                                   ctx->rec, &ctx->checks);
  std::vector<pb::StreamProbe> probes;
  std::vector<core::StreamEngineJob> jobs;
  auto wrapped = Decorate(rig.jobs, &probes, &jobs);
  for (int rep = 0; MoreReps(*phase, rep, seconds, kMinTracedReps); ++rep) {
    pb::ScopedSpan root(ctx->rec, "rep " + std::to_string(rep));
    RunFleet(ctx, jobs, nullptr, &probes, root.id(), phase, "traced fleet");
  }
  // The barrier exists only with several workers: the same decorated fleet
  // on nproc workers gives barrier wait and shard imbalance, and must
  // reproduce the serial results bitwise.
  Phase parallel;
  for (int rep = 0; rep < kMinTracedReps; ++rep) {
    pb::ScopedSpan root(ctx->rec, "nproc-worker rep " + std::to_string(rep));
    RunFleet(ctx, jobs, pool, &probes, root.id(), &parallel,
             "nproc-worker fleet", &x->checkpoint_bytes);
  }
  CheckSame(*parallel.results, &phase->results,
            "nproc-worker fleet matches the serial fleet bitwise",
            &ctx->checks);
  x->barrier_wait_share = pb::Summarize(parallel.barrier_wait_share).median;
  x->imbalance = pb::Summarize(parallel.imbalance).median;
  x->cores_busy = parallel.window_cpu_s / parallel.window_s;
  x->hooks = BoundaryHookProbe(ctx, rig.jobs[0]);
}

// ---- serve-flashcrowd -----------------------------------------------------

std::vector<serve::SessionSpec> FleetSpecs(const Context& ctx) {
  std::vector<serve::SessionSpec> specs;
  for (size_t i = 0; i < ctx.shape.cameras; ++i) {
    specs.push_back(SessionFor(ctx.shape, ctx.args.seed, i));
  }
  return specs;
}

/// The in-process reference for a served fleet: the same sessions as a
/// joint StreamSet stepped serially with Step(), as the server's fleet
/// thread steps it. Returns the stepping window in seconds.
double Replay(Context* ctx, const std::string& model_path, bool decorated,
              Phase* traced, std::vector<core::EngineResult>* results) {
  std::vector<serve::SessionSpec> specs = FleetSpecs(*ctx);
  std::vector<Tenant> tenants(specs.size());
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < specs.size(); ++i) {
    jobs.push_back(MirrorJob(specs[i], model_path, &tenants[i]));
  }
  std::vector<pb::StreamProbe> probes;
  std::vector<std::unique_ptr<pb::ProbedWorkload>> wrapped;
  if (decorated) wrapped = Decorate(jobs, &probes, &jobs);
  auto set = core::StreamSet::Create(jobs);
  if (!set.ok()) Fatal("replay create", set.status());
  for (auto& p : probes) p.Reset();
  pb::ScopedSpan root(decorated ? ctx->rec : nullptr, "in-process replay");
  const int64_t start = pb::NowNs();
  Status st;
  while (st.ok() && !set->Done()) st = set->Step();
  const int64_t end = pb::NowNs();
  ctx->checks.ExpectOk(st, "replay run");
  auto r = set->Results();
  CheckResults(r, ExpectedSegments(ctx->shape), "replay", &ctx->checks);
  *results = Values(r);
  if (decorated) {
    RecordTimeline(probes, start, end, root.id(), ctx->rec, traced);
    for (const auto& x : *results) traced->segments += x.segments;
  }
  return Seconds(end - start);
}

/// One served run. The first kSetups reps of a phase also fit and save the
/// model, and each gives a full set-up sample; later reps serve the model
/// file the last fit wrote, so more of --seconds goes to served windows.
void ServeRep(Context* ctx, Phase* phase, int rep, Served* out) {
  // The server's fleet thread steps the fleet on a vCPU of its own while
  // this thread waits for the results, so the host speed is read here,
  // around the whole rep: it follows the VM's slow and fast phases, but not
  // one vCPU's moment-to-moment speed. (Pinning the server's threads to
  // this thread's vCPU would follow that too, but it slowed the served
  // window by a quarter.)
  const double ref0 = ReadReference(phase);
  const int64_t t0 = pb::NowNs();
  const std::string model_path = PathIn(*ctx, "model.bin");
  const bool fit = rep < kSetups;
  if (fit) Train(ctx->shape, model_path, ctx->rec);
  const double train_s = Seconds(pb::NowNs() - t0);
  *out = Serve(ctx->shape, model_path, FleetSpecs(*ctx),
               PathIn(*ctx, "serve_ckpt.bin"), ctx->rec, &ctx->checks);
  const double ref1 = ReadReference(phase);
  if (fit) {
    phase->raw_setup_s.push_back(train_s + out->setup_s);
    phase->setup_s.push_back(NormalizedS(train_s + out->setup_s, ref0, ref1));
  }
  uint64_t segments = 0;
  for (const auto& r : out->results) segments += r.segments;
  phase->raw_rates.push_back(static_cast<double>(segments) / out->window_s);
  phase->rates.push_back(static_cast<double>(segments) /
                         NormalizedS(out->window_s, ref0, ref1));
  std::printf("  served rep: set-up %.3f s%s, window %.3f s, %.0f segments/s "
              "(wall), reference %.3f/%.3f ms, %zu scrapes\n",
              train_s + out->setup_s, fit ? "" : " (model reused)",
              out->window_s, phase->raw_rates.back(), ref0, ref1,
              out->scrapes.latency_ms.size());
  phase->window_s += out->window_s;
  phase->window_cpu_s += out->window_cpu_s;
  std::vector<Result<core::EngineResult>> r(out->results.begin(),
                                            out->results.end());
  CheckResults(r, ExpectedSegments(ctx->shape), "served", &ctx->checks);
  ctx->checks.Expect(out->results.size() == ctx->shape.cameras,
                     "every session returned a result");
  CheckSame(out->results, &phase->results,
            "served reps agree bitwise", &ctx->checks);
}

void ServeUntraced(Context* ctx, double seconds, Phase* phase,
                   Scrapes* scrapes) {
  for (int rep = 0; MoreReps(*phase, rep, seconds); ++rep) {
    Served s;
    ServeRep(ctx, phase, rep, &s);
    MarkPeakRss(phase);
    Append(s.scrapes, scrapes);
  }
  std::vector<core::EngineResult> replay;
  Replay(ctx, PathIn(*ctx, "model.bin"), false, nullptr, &replay);
  std::optional<std::vector<core::EngineResult>> served = phase->results;
  CheckSame(replay, &served,
            "served results match the in-process StreamSet replay bitwise",
            &ctx->checks);
  phase->mean_quality = MeanQuality(*phase->results);
}

void ServeTraced(Context* ctx, double seconds, Phase* phase,
                 TracedExtras* x, Scrapes* scrapes,
                 std::vector<double>* admit_ms) {
  std::vector<double> served_windows;
  double served_s = 0.0;
  // Also until the scrapes suffice for a p99, whatever --seconds says
  // (unless scrapes fail: then the run has failed anyway).
  for (int rep = 0; MoreReps(*phase, rep, seconds, kMinTracedReps) ||
                    (scrapes->latency_ms.size() < kP99Samples &&
                     scrapes->failed == 0);
       ++rep) {
    pb::ScopedSpan root(ctx->rec, "served rep " + std::to_string(rep));
    Served s;
    ServeRep(ctx, phase, rep, &s);
    served_windows.push_back(s.window_s);
    served_s += s.window_s;
    admit_ms->insert(admit_ms->end(), s.admit_ms.begin(), s.admit_ms.end());
    Append(s.scrapes, scrapes);
    x->checkpoint_bytes = std::max(x->checkpoint_bytes, s.checkpoint_bytes);
  }
  TrainedModel model = Train(ctx->shape,
                             PathIn(*ctx, "model.bin"), ctx->rec);
  x->save_ms = model.save_ms;
  x->load_ms = model.load_ms;
  x->offline = ProfileOfflineSteps(ctx->shape, model,
                                   ctx->rec, &ctx->checks);
  // Plain and decorated replays alternate, so host drift between them does
  // not read as tracing cost.
  std::vector<core::EngineResult> plain, decorated;
  std::vector<double> plain_s, decorated_s;
  std::optional<std::vector<core::EngineResult>> want;
  for (int i = 0; i < kReplayPairs; ++i) {
    plain_s.push_back(Replay(ctx, model.path, false, nullptr, &plain));
    decorated_s.push_back(Replay(ctx, model.path, true, phase, &decorated));
    want = plain;
    CheckSame(decorated, &want,
              "decorated replay matches the plain replay bitwise",
              &ctx->checks);
  }
  const double replay_s = pb::Summarize(plain_s).median;
  want = plain;
  CheckSame(*phase->results, &want,
            "served results match the in-process StreamSet replay bitwise",
            &ctx->checks);
  x->overhead_ratio = pb::Summarize(served_windows).median / replay_s;
  x->scrape_busy_share = scrapes->busy_s / served_s;
  // The decorators cannot reach the server, so the shares come from the
  // decorated replay, and so does the cost of tracing: traced rate over
  // untraced rate of the same replay.
  x->trace_overhead = replay_s / pb::Summarize(decorated_s).median;
  Tenant tenant;
  x->hooks = BoundaryHookProbe(ctx, MirrorJob(FleetSpecs(*ctx)[0], model.path,
                                              &tenant));
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args->workload = v;
    else if (k == "--seed") args->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args->seconds = std::atof(v.c_str());
    else if (k == "--trace") args->trace = v == "1";
    else if (k == "--out") args->out = v;
    else if (k == "--commit") args->commit = v;
    else if (k == "--source-digest") args->source_digest = v;
    else return false;
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload engine-covid|fleet-flashcrowd|"
                 "serve-flashcrowd --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--commit SHA] [--source-digest HEX]\n");
    return 2;
  }
  auto shape = ShapeFor(ctx.args.workload);
  if (!shape) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 ctx.args.workload.c_str());
    return 2;
  }
  ctx.shape = *shape;
  ctx.dir = ctx.args.out + "/run-" + ctx.args.workload + "-" +
            std::to_string(ctx.args.seed) + "-" + std::to_string(getpid());
  mkdir(ctx.args.out.c_str(), 0755);
  if (mkdir(ctx.dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", ctx.dir.c_str());
    return 2;
  }
  PrintHost(ctx.args);

  const size_t nproc = dag::DefaultThreadCount();
  std::optional<dag::ThreadPool> pool;
  if (nproc > 1) pool.emplace(nproc - 1);  // + the calling thread = nproc
  dag::ThreadPool* p = pool ? &*pool : nullptr;

  const double untraced_s =
      ctx.args.trace ? ctx.args.seconds / 2.0 : ctx.args.seconds;
  Phase base;
  Scrapes base_scrapes;
  switch (ctx.shape.kind) {
    case Kind::kEngine: EngineUntraced(&ctx, untraced_s, &base); break;
    case Kind::kFleet: FleetUntraced(&ctx, untraced_s, &base); break;
    case Kind::kServe:
      ServeUntraced(&ctx, untraced_s, &base, &base_scrapes);
      break;
  }
  const double base_rate = pb::Summarize(base.rates).median;
  std::printf("untraced %s, seed %llu:\n", ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed));
  PrintSummary("segments_per_s", base.rates, "1/s");
  PrintSummary("setup_s", base.setup_s, "s");
  // The same, unscaled, and the host speed they were scaled by.
  PrintSummary("wall segments_per_s", base.raw_rates, "1/s");
  PrintSummary("wall setup_s", base.raw_setup_s, "s");
  PrintSummary("reference kernel", base.ref_ms, "ms");
  // Beside the wall time: on a host whose speed drifts, whether the drift
  // is stolen time (CPU < wall) or slower execution (CPU = wall).
  std::printf("  %-28s wall=%.6g cpu=%.6g s\n", "ingest windows",
              base.window_s, base.window_cpu_s);

  Report report;
  if (!ctx.args.trace) {
    std::printf("end-to-end metrics:\n");
    report.Metric("segments_per_s", base_rate, "1/s");
    report.Metric("setup_s", pb::Summarize(base.setup_s).median, "s");
    report.Metric("peak_rss_mb", base.peak_rss_mb, "MiB");
    report.Metric("mean_quality", base.mean_quality, "quality");
    // Not in the final JSON line: error_rate is 0 on a correct run and is
    // carried there as failed/attempted; scrape latency exists only where a
    // server runs, so it is reported per layer.
    std::printf("  %-48s %14.6g %s\n", "error_rate",
                ctx.checks.attempted() == 0
                    ? 0.0
                    : static_cast<double>(ctx.checks.failed()) /
                          static_cast<double>(ctx.checks.attempted()),
                "failed/attempted");
    if (ctx.shape.kind == Kind::kServe) {
      const size_t n = base_scrapes.latency_ms.size();
      auto p99 = pb::Percentile(base_scrapes.latency_ms, 99.0);
      std::printf("  %-48s %14.6g ms (n=%zu)\n", "scrape_p50_ms",
                  pb::Summarize(base_scrapes.latency_ms).median, n);
      if (p99) {
        std::printf("  %-48s %14.6g ms (n=%zu)\n", "scrape_p99_ms", *p99, n);
      } else {
        std::printf("  %-48s %14s (n=%zu < 1000)\n", "scrape_p99_ms",
                    "refused", n);
      }
      std::printf("  %-48s %14.6g ms (max generator lateness)\n",
                  "scrape_late_ms", pb::Summarize(base_scrapes.late_ms).max);
    }
  } else {
    pb::TraceRecorder rec;
    rec.NameTrack(0, "main thread");
    rec.NameTrack(kScraperTrack, "scraper connection");
    ctx.rec = &rec;
    ctx.clock_overhead_ns = pb::ClockOverheadNs();
    Phase traced;
    TracedExtras x;
    Scrapes scrapes;
    std::vector<double> admit_ms;
    const double traced_s = ctx.args.seconds / 2.0;
    switch (ctx.shape.kind) {
      case Kind::kEngine: EngineTraced(&ctx, traced_s, &traced, &x); break;
      case Kind::kFleet: FleetTraced(&ctx, traced_s, &traced, p, &x); break;
      case Kind::kServe:
        ServeTraced(&ctx, traced_s, &traced, &x, &scrapes, &admit_ms);
        break;
    }
    // Traced results must equal the untraced ones.
    CheckSame(*traced.results, &base.results,
              "traced run matches the untraced run bitwise", &ctx.checks);

    const pb::LayerTotals& layers = traced.layers;
    const double segs =
        std::max<double>(1.0, static_cast<double>(traced.segments));
    const double busy = std::max(1.0, traced.stepping_ns);
    const double oh = ctx.clock_overhead_ns;
    const double tq_ns = pb::EstimatedLayerNs(layers.true_quality, oh);
    const double mq_ns = pb::EstimatedLayerNs(layers.measured_quality, oh);
    const double ct_ns = pb::EstimatedLayerNs(layers.content, oh);
    auto percall = [segs](const pb::CallStats& s) {
      return static_cast<double>(s.calls) / segs;
    };
    auto tail = [](const std::vector<double>& v) {
      auto p99 = pb::Percentile(v, 99.0);
      return p99 ? *p99 : 0.0;
    };
    auto max_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : pb::Summarize(v).max;
    };
    auto median = [](const std::vector<double>& v) {
      return pb::Summarize(v).median;
    };
    double bytes_mean = 0.0;
    for (double b : scrapes.bytes) bytes_mean += b;
    if (!scrapes.bytes.empty()) {
      bytes_mean /= static_cast<double>(scrapes.bytes.size());
    }

    std::printf("per-layer metrics (traced, %zu spans):\n", rec.size());
    report.Metric("workloads.true_quality.calls_per_segment",
                  percall(layers.true_quality), "calls/segment");
    report.Metric("workloads.true_quality.share", tq_ns / busy, "fraction");
    report.Metric("workloads.measured_quality.calls_per_segment",
                  percall(layers.measured_quality), "calls/segment");
    report.Metric("workloads.measured_quality.share", mq_ns / busy, "fraction");
    report.Metric("video.content.calls_per_segment",
                  percall(layers.content), "calls/segment");
    report.Metric("video.content.share", ct_ns / busy, "fraction");
    report.Metric("core.engine.self_ns_per_segment",
                  std::max(0.0, busy - tq_ns - mq_ns - ct_ns) / segs,
                  "ns/segment");
    report.Metric("core.forecaster.prepare_ms",
                  median(x.hooks.prepare_ms), "ms");
    report.Metric("core.planner.solve_ms", median(x.hooks.solve_ms), "ms");
    // Per repetition, so the count does not depend on how many fit.
    report.Metric("core.multi_stream.boundaries",
                  static_cast<double>(traced.boundaries) /
                      std::max<double>(1.0, traced.boundary_share.size()),
                  "count");
    report.Metric("core.multi_stream.boundary_gap_p50_ms",
                  median(traced.gaps_ms), "ms");
    report.Metric("core.multi_stream.boundary_gap_max_ms",
                  max_of(traced.gaps_ms), "ms");
    report.Metric("core.multi_stream.boundary_share",
                  median(traced.boundary_share), "fraction");
    report.Metric("core.multi_stream.barrier_wait_share",
                  x.barrier_wait_share.value_or(
                      median(traced.barrier_wait_share)),
                  "fraction");
    report.Metric("core.multi_stream.imbalance",
                  x.imbalance.value_or(median(traced.imbalance)), "ratio");
    report.Metric("proc.cores_busy",
                  x.cores_busy.value_or(base.window_cpu_s / base.window_s),
                  "cores");
    report.Metric("core.offline.filter_configs_s",
                  x.offline.filter_configs_s, "s");
    report.Metric("core.offline.profile_placements_s",
                  x.offline.profile_placements_s, "s");
    report.Metric("core.offline.categories_s", x.offline.categories_s, "s");
    report.Metric("core.offline.forecast_data_s",
                  x.offline.forecast_data_s, "s");
    report.Metric("core.offline.forecast_train_s",
                  x.offline.forecast_train_s, "s");
    report.Metric("io.model_save_ms", x.save_ms, "ms");
    report.Metric("io.model_load_ms", x.load_ms, "ms");
    report.Metric("serve.admit_p50_ms", median(admit_ms), "ms");
    report.Metric("io.checkpoint_bytes",
                  static_cast<double>(x.checkpoint_bytes), "bytes");
    report.Metric("serve.scrape_p50_ms", median(scrapes.latency_ms), "ms");
    report.Metric("serve.scrape_p99_ms", tail(scrapes.latency_ms), "ms");
    report.Metric("serve.scrape_bytes", bytes_mean, "bytes");
    report.Metric("serve.scrape_late_ms", max_of(scrapes.late_ms), "ms");
    report.Metric("serve.scrape_busy_share",
                  x.scrape_busy_share.value_or(0.0), "fraction");
    report.Metric("serve.overhead_ratio",
                  x.overhead_ratio.value_or(0.0), "ratio");
    report.Metric("trace.overhead",
                  x.trace_overhead.value_or(
                      pb::Summarize(traced.raw_rates).median /
                      pb::Summarize(base.raw_rates).median),
                  "ratio");
    // What the untraced phase's end-to-end figures were scaled by.
    report.Metric("host.wall_segments_per_s", median(base.raw_rates), "1/s");
    report.Metric("host.reference_ms", median(base.ref_ms), "ms");
    std::printf("  scrapes n=%zu (p99 needs >= 1000), admissions n=%zu, "
                "boundary gaps n=%zu\n",
                scrapes.latency_ms.size(), admit_ms.size(),
                traced.gaps_ms.size());
    if (ctx.shape.kind == Kind::kServe) {
      ctx.checks.Expect(pb::Percentile(scrapes.latency_ms, 99.0).has_value(),
                        "enough scrapes for a p99");
    }
    const std::string trace_path = ctx.args.out + "/trace-" +
                                   ctx.args.workload + "-" +
                                   std::to_string(ctx.args.seed) + ".json";
    if (ctx.checks.Expect(rec.WriteChromeJson(trace_path), "trace written")) {
      std::printf("trace: %s (Chrome trace-event JSON, opens in "
                  "ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    ctx.rec = nullptr;
  }
  ctx.checks.Expect(!report.duplicate(), "no metric reported twice");
  std::remove(PathIn(ctx, "model.bin").c_str());
  rmdir(ctx.dir.c_str());

  pb::JsonObject result;
  result.Set("correct", ctx.checks.failed() == 0);
  result.Set("attempted", ctx.checks.attempted());
  result.Set("failed", ctx.checks.failed());
  result.Set("metrics", report.metrics());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return ctx.checks.failed() == 0 ? 0 : 1;
}
