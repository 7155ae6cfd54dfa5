// The `sky serve` subsystem. Gates (ISSUE):
//  - e2e bitwise parity: N sessions opened by concurrent clients against a
//    live server finish with EngineResults (traces included) identical to
//    ONE in-process joint-planning StreamSet built from the same specs;
//  - admission control: with a pooled budget armed, the session that would
//    push the fleet past the budget is rejected with a clean
//    kResourceExhausted protocol error and the connection stays usable;
//  - live reconfiguration at a plan boundary is bitwise-equivalent to the
//    in-process ReconfigureStream call;
//  - drain + --recover: a drained server's checkpoint resumes every
//    in-flight session bitwise on a second server;
//  - metrics: the BENCH-style JSON document carries the counters;
//  - wire protocol and serve-checkpoint formats round-trip exactly and
//    refuse corruption;
//  - the served fleet runs on the barrier scheduler: results with a session
//    admitted at a later boundary and a live reconfigure are bitwise equal
//    to the in-process fleet at 1 and 4 workers, and the checkpoint written
//    at a given boundary is byte-identical at both;
//  - the one-pass checkpoint writer produces the bytes of the copying path
//    it replaced (state copy, per-stream strings, payloads built apart);
//  - checkpoints are written on a background thread: a slow disk still gets
//    every periodic checkpoint, one write in flight at most, with results
//    bitwise at 1 and 4 workers; a drain under a slow disk recovers
//    bitwise; a failed periodic write is counted in the metrics and leaves
//    the run bitwise;
//  - connections: finished connections give back their fd and thread while
//    the server runs, and the listener backs off when accept runs out of
//    fds instead of spinning.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/engine.h"
#include "core/multi_stream.h"
#include "io/atomic_file.h"
#include "io/checkpoint_io.h"
#include "io/wire.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace sky {
namespace {

using core::EngineResult;
using core::EngineResultsIdentical;
using serve::Client;
using serve::Frame;
using serve::FrameType;
using serve::Server;
using serve::ServerOptions;
using serve::SessionSpec;

constexpr char kModelPath[] = "/tmp/sky_serve_test_model.bin";

// Fault hooks are plain function pointers, so what they count lives here.
std::atomic<int> g_writes_in_flight{0};
std::atomic<int> g_max_writes_in_flight{0};
std::atomic<int> g_hook_calls{0};
std::atomic<int> g_fail_call{-1};  ///< the 0-based hook call FailOneWrite fails
std::atomic<int> g_write_ms{30};   ///< how long SlowWrite takes

/// A disk that needs about 30 ms per checkpoint — longer than the served
/// intervals below take to step, so every window finds a write in flight.
Status SlowWrite(const std::string&) {
  const int now = ++g_writes_in_flight;
  int seen = g_max_writes_in_flight.load();
  while (now > seen && !g_max_writes_in_flight.compare_exchange_weak(seen, now)) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(g_write_ms.load()));
  --g_writes_in_flight;
  return Status::Ok();
}

Status FailOneWrite(const std::string&) {
  return g_hook_calls++ == g_fail_call.load()
             ? Status::Internal("injected checkpoint write failure")
             : Status::Ok();
}

/// Installs a write fault hook for one scope, counters reset.
class ScopedWriteHook {
 public:
  explicit ScopedWriteHook(io::AtomicWriteFaultHook hook) {
    g_writes_in_flight = 0;
    g_max_writes_in_flight = 0;
    g_hook_calls = 0;
    g_write_ms = 30;
    io::SetAtomicWriteFaultHookForTest(hook);
  }
  ~ScopedWriteHook() { io::SetAtomicWriteFaultHookForTest(nullptr); }
  ScopedWriteHook(const ScopedWriteHook&) = delete;
  ScopedWriteHook& operator=(const ScopedWriteHook&) = delete;
};

/// The unsigned counter `key` of a metrics document (0 when absent).
uint64_t MetricU64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Polls metrics until `boundaries` boundaries are planned and that many
/// periodic checkpoints have an outcome: results can be fetched before the
/// last window publishes its stats, and while the writer is still on the
/// last checkpoint. Returns the settled document ("" on a 10 s timeout).
std::string SettledCheckpointMetrics(Client* client, uint64_t boundaries) {
  for (int i = 0; i < 5000; ++i) {
    auto metrics = client->Metrics();
    if (!metrics.ok()) return std::string();
    if (MetricU64(*metrics, "boundaries_planned") >= boundaries &&
        MetricU64(*metrics, "checkpoints_written") +
                MetricU64(*metrics, "checkpoint_failures") >=
            boundaries) {
      return *metrics;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return std::string();
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = api::MakeWorkloadByName("ev");
    ASSERT_NE(workload, nullptr);
    api::Skyscraper sky(workload.get());
    sky.SetResources(TestResources());
    core::OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(3);
    opts.num_categories = 3;
    opts.train_forecaster = false;  // keep the fixture fast
    ASSERT_TRUE(sky.Fit(opts).ok());
    ASSERT_TRUE(sky.SaveModel(kModelPath, workload->name()).ok());
  }
  static void TearDownTestSuite() { std::remove(kModelPath); }

  static api::Resources TestResources() {
    api::Resources r;
    r.cores = 4;
    r.cloud_budget_usd_per_interval = 1.0;
    return r;
  }

  static ServerOptions BaseServerOptions() {
    ServerOptions opts;
    opts.model_path = kModelPath;
    opts.workload = "ev";
    opts.resources = TestResources();
    return opts;
  }

  /// The spec every e2e session uses: everything explicit, so the server's
  /// default resolution plays no part and the in-process mirror is exact.
  static SessionSpec SpecForSeed(uint64_t content_seed) {
    SessionSpec spec;
    spec.workload = "ev";
    spec.content_seed = content_seed;
    spec.start_days = 3.0;
    spec.duration_days = 0.25;        // 6 h
    spec.plan_interval_days = 0.125;  // 3 h -> 2 lockstep boundaries
    spec.engine_seed = 71;
    // Traces make the bitwise comparisons maximally sensitive.
    spec.record_trace = true;
    spec.trace_resolution_s = 300.0;
    return spec;
  }

  /// The exact job Server::BuildJob derives from `spec` — the in-process
  /// half of every bitwise gate. The tenant keeps workload/facade alive
  /// for the job's lifetime, like the server's StreamTenant does.
  struct Tenant {
    std::unique_ptr<core::Workload> workload;
    std::unique_ptr<api::Skyscraper> facade;
  };
  static core::StreamEngineJob MirrorJob(const SessionSpec& spec,
                                         Tenant* tenant) {
    tenant->workload =
        api::MakeWorkloadByName(spec.workload, spec.content_seed);
    EXPECT_NE(tenant->workload, nullptr);
    tenant->facade =
        std::make_unique<api::Skyscraper>(tenant->workload.get());
    tenant->facade->SetResources(TestResources());
    EXPECT_TRUE(
        tenant->facade->LoadModel(kModelPath, tenant->workload->name())
            .ok());
    core::EngineOptions opts;
    opts.duration = Days(spec.duration_days);
    opts.plan_interval = Days(spec.plan_interval_days);
    opts.seed = spec.engine_seed;
    opts.record_trace = spec.record_trace;
    opts.trace_resolution_s = spec.trace_resolution_s;
    if (spec.cloud_budget_usd_per_interval.has_value()) {
      opts.cloud_budget_usd_per_interval =
          *spec.cloud_budget_usd_per_interval;
    }
    opts.work_budget_override = spec.work_budget_override;
    auto job = tenant->facade->MakeStreamJob(Days(spec.start_days), opts);
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return *job;
  }

  /// min_k work cost of one served session — the price admission control
  /// charges a newcomer (mirrors Server::NewcomerCheapestCost).
  static double CheapestSessionCost() {
    Tenant tenant;
    MirrorJob(SpecForSeed(1), &tenant);
    auto model = tenant.facade->model();
    EXPECT_TRUE(model.ok());
    double cheapest = 0.0;
    bool first = true;
    for (const auto& p : (*model)->profiles) {
      if (first || p.work_core_s_per_video_s < cheapest) {
        cheapest = p.work_core_s_per_video_s;
        first = false;
      }
    }
    return cheapest;
  }

  /// Drains a checkpointing server while its two 4-day sessions are
  /// mid-run, recovers the drain checkpoint on a second server, and checks
  /// both finish bitwise equal to the fleet that never stopped.
  static void DrainMidRunAndRecover(const std::string& ckpt_path);
};

// ---------------------------------------------------------------------------
// Wire protocol units.

TEST_F(ServeTest, SessionSpecPayloadRoundTrips) {
  SessionSpec spec = SpecForSeed(12345);
  spec.f32_forecast = true;
  spec.cloud_budget_usd_per_interval = 0.375;
  spec.work_budget_override = 2.5;
  std::string payload;
  AppendSessionSpec(spec, &payload);
  io::wire::Cursor c(payload.data(), payload.size());
  SessionSpec back;
  ASSERT_TRUE(ParseSessionSpec(&c, &back).ok());
  EXPECT_EQ(back.workload, spec.workload);
  ASSERT_TRUE(back.content_seed.has_value());
  EXPECT_EQ(*back.content_seed, 12345u);
  EXPECT_EQ(back.start_days, spec.start_days);
  EXPECT_EQ(back.duration_days, spec.duration_days);
  EXPECT_EQ(back.plan_interval_days, spec.plan_interval_days);
  EXPECT_EQ(back.engine_seed, spec.engine_seed);
  EXPECT_EQ(back.f32_forecast, true);
  EXPECT_EQ(back.record_trace, spec.record_trace);
  EXPECT_EQ(back.trace_resolution_s, spec.trace_resolution_s);
  ASSERT_TRUE(back.cloud_budget_usd_per_interval.has_value());
  EXPECT_EQ(*back.cloud_budget_usd_per_interval, 0.375);
  EXPECT_EQ(back.work_budget_override, 2.5);

  // Unset optionals stay unset through the wire.
  SessionSpec bare;
  std::string bare_payload;
  AppendSessionSpec(bare, &bare_payload);
  io::wire::Cursor c2(bare_payload.data(), bare_payload.size());
  SessionSpec bare_back;
  ASSERT_TRUE(ParseSessionSpec(&c2, &bare_back).ok());
  EXPECT_FALSE(bare_back.content_seed.has_value());
  EXPECT_FALSE(bare_back.cloud_budget_usd_per_interval.has_value());
}

TEST_F(ServeTest, ErrorPayloadCarriesTheStatus) {
  std::string payload;
  serve::AppendError(Status::ResourceExhausted("fleet is full"), &payload);
  Frame frame;
  frame.type = FrameType::kError;
  frame.payload = payload;
  Status decoded = serve::ParseError(frame);
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(decoded.ToString().find("fleet is full"), std::string::npos);

  // An OK status is not an error: such a frame is malformed.
  frame.payload.clear();
  serve::AppendError(Status::Ok(), &frame.payload);
  EXPECT_EQ(serve::ParseError(frame).code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, FramesRoundTripOverASocketAndRefuseCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  std::string payload = "hello frames";
  ASSERT_TRUE(serve::WriteFrame(fds[0], FrameType::kMetrics, payload).ok());
  Frame frame;
  ASSERT_TRUE(serve::ReadFrame(fds[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kMetrics);
  EXPECT_EQ(frame.payload, payload);

  // A flipped payload byte must fail the FNV-1a trailer check.
  std::string encoded;
  serve::EncodeFrame(FrameType::kMetrics, payload, &encoded);
  encoded[4 + 1 + 8] ^= 0x01;  // first payload byte, after magic+type+len
  ASSERT_EQ(::write(fds[0], encoded.data(), encoded.size()),
            static_cast<ssize_t>(encoded.size()));
  Frame corrupt;
  EXPECT_EQ(serve::ReadFrame(fds[1], &corrupt).code(),
            StatusCode::kInvalidArgument);

  // Clean EOF before any frame byte is "peer hung up", not corruption.
  ASSERT_EQ(::shutdown(fds[0], SHUT_WR), 0);
  Frame eof;
  EXPECT_EQ(serve::ReadFrame(fds[1], &eof).code(), StatusCode::kNotFound);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ServeTest, ReadFrameAllocatesOnlyAsPayloadArrives) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // A payload spanning several read steps still arrives whole.
  std::string big(3 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 7);
  std::thread writer([&] {
    EXPECT_TRUE(serve::WriteFrame(fds[0], FrameType::kMetrics, big).ok());
  });
  Frame frame;
  ASSERT_TRUE(serve::ReadFrame(fds[1], &frame).ok());
  writer.join();
  EXPECT_EQ(frame.payload, big);

  // A bare header declaring the maximum payload, then a hang-up: the reader
  // fails cleanly without having reserved the declared length.
  std::string header(serve::kFrameMagic, sizeof(serve::kFrameMagic));
  header.push_back(static_cast<char>(FrameType::kMetrics));
  uint64_t length = serve::kMaxFramePayload;
  header.append(reinterpret_cast<const char*>(&length), sizeof(length));
  ASSERT_EQ(::write(fds[0], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  ::close(fds[0]);
  Frame starved;
  EXPECT_EQ(serve::ReadFrame(fds[1], &starved).code(),
            StatusCode::kInvalidArgument);
  EXPECT_LT(starved.payload.capacity(), size_t{1} << 20);
  ::close(fds[1]);
}

TEST_F(ServeTest, ServeCheckpointRoundTripsByteStable) {
  serve::ServeCheckpoint ckpt;
  ckpt.next_session_id = 7;
  ckpt.sessions_accepted = 6;
  ckpt.sessions_rejected = 2;
  ckpt.shared_budget_core_s_per_video_s = 3.5;
  serve::SessionRecord running;
  running.id = 5;
  running.spec = SpecForSeed(42);
  running.state = serve::SessionState::kRunning;
  running.stream_index = 1;
  ckpt.sessions.push_back(running);
  serve::SessionRecord failed;
  failed.id = 6;
  failed.spec = SpecForSeed(43);
  failed.state = serve::SessionState::kFailed;
  failed.stream_index = 2;
  failed.error = Status::Internal("stream quarantined");
  ckpt.sessions.push_back(failed);
  ckpt.fleet_bytes = "opaque fleet payload";

  std::string bytes;
  ASSERT_TRUE(SerializeServeCheckpoint(ckpt, &bytes).ok());
  auto parsed = serve::ParseServeCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string bytes_again;
  ASSERT_TRUE(SerializeServeCheckpoint(*parsed, &bytes_again).ok());
  EXPECT_EQ(bytes, bytes_again);  // byte-stable round trip
  EXPECT_EQ(parsed->next_session_id, 7u);
  EXPECT_EQ(parsed->sessions.size(), 2u);
  EXPECT_EQ(parsed->sessions[1].error.code(), StatusCode::kInternal);
  EXPECT_EQ(parsed->fleet_bytes, "opaque fleet payload");

  // Corruption is refused.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_FALSE(serve::ParseServeCheckpoint(corrupt).ok());
  EXPECT_FALSE(serve::ParseServeCheckpoint(bytes.substr(0, 10)).ok());
}

// ---------------------------------------------------------------------------
// End-to-end gates against a live server.

TEST_F(ServeTest, ConcurrentSessionsBitwiseMatchInProcessJointFleet) {
  constexpr size_t kSessions = 3;
  ServerOptions opts = BaseServerOptions();
  // Hold the virtual clock until all sessions joined, so every stream is a
  // member from boundary 0 — the precondition for comparing against one
  // fleet born with all of them.
  opts.start_after_sessions = kSessions;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // N genuinely concurrent clients; admission order (and so slot order) is
  // whatever the race produces, so remember which spec landed in which
  // fleet slot and mirror that order in-process.
  struct Opened {
    uint64_t session_id = 0;
    uint64_t slot = 0;
    size_t spec_index = 0;
    EngineResult result;
    Status status;
  };
  std::vector<Opened> opened(kSessions);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      auto client = Client::Connect((*server)->port());
      if (!client.ok()) {
        opened[i].status = client.status();
        return;
      }
      auto admitted = client->OpenSession(SpecForSeed(100 + i));
      if (!admitted.ok()) {
        opened[i].status = admitted.status();
        return;
      }
      opened[i].session_id = admitted->first;
      opened[i].slot = admitted->second;
      opened[i].spec_index = i;
      auto result = client->FetchResult(admitted->first);
      if (!result.ok()) {
        opened[i].status = result.status();
        return;
      }
      opened[i].result = std::move(*result);
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(opened[i].status.ok())
        << "client " << i << ": " << opened[i].status.ToString();
  }

  // In-process reference: ONE joint fleet whose job order is the server's
  // slot order.
  std::vector<size_t> spec_at_slot(kSessions);
  for (const Opened& o : opened) {
    ASSERT_LT(o.slot, kSessions);
    spec_at_slot[o.slot] = o.spec_index;
  }
  std::vector<Tenant> tenants(kSessions);
  std::vector<core::StreamEngineJob> jobs;
  for (size_t slot = 0; slot < kSessions; ++slot) {
    jobs.push_back(
        MirrorJob(SpecForSeed(100 + spec_at_slot[slot]), &tenants[slot]));
  }
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();

  for (const Opened& o : opened) {
    ASSERT_TRUE(ref_results[o.slot].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[o.slot], o.result))
        << "session " << o.session_id << " (slot " << o.slot << ")";
  }

  ASSERT_TRUE(Client::Connect((*server)->port())->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, OverBudgetSessionRejectedWithCleanProtocolError) {
  // Price the budget so exactly two sessions fit: the third's all-cheapest
  // marginal cost would exceed it.
  double session_cost = CheapestSessionCost();
  ASSERT_GT(session_cost, 0.0);
  ServerOptions opts = BaseServerOptions();
  opts.shared_budget_core_s_per_video_s = 2.5 * session_cost;
  opts.start_after_sessions = 4;  // hold the clock for the whole test
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(200)).ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(201)).ok());

  auto rejected = client->OpenSession(SpecForSeed(202));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The rejection is a clean protocol reply: the same connection keeps
  // working, and the rejection is counted.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\"sessions_accepted\": 2"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\"sessions_rejected\": 1"), std::string::npos)
      << *metrics;

  // Raising the budget at the next boundary makes the same spec admissible
  // — admission is the planner's feasibility check, not a static cap.
  ASSERT_TRUE(client->SetSharedBudget(4.0 * session_cost).ok());
  EXPECT_TRUE(client->OpenSession(SpecForSeed(202)).ok());

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, MaxSessionsCapRejectsTheOverflowSession) {
  ServerOptions opts = BaseServerOptions();
  opts.max_sessions = 1;
  opts.start_after_sessions = 2;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(300)).ok());
  auto rejected = client->OpenSession(SpecForSeed(301));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, WrongWorkloadAndUnknownSessionAreCleanErrors) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  SessionSpec wrong = SpecForSeed(1);
  wrong.workload = "covid";
  EXPECT_EQ(client->OpenSession(wrong).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->FetchResult(999).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, LiveReconfigureMatchesInProcessReconfigureStream) {
  // Two-stream fleet; stream 0's cloud budget is cut to zero by a live
  // kReconfigure BEFORE the clock starts (the server is holding for two
  // sessions, so the reconfigure lands at boundary 0 deterministically).
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 2;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  auto first = client->OpenSession(SpecForSeed(400));
  ASSERT_TRUE(first.ok());
  core::StreamReconfig change;
  change.cloud_budget_usd_per_interval = 0.0;
  ASSERT_TRUE(client->Reconfigure(first->first, change).ok());
  auto second = client->OpenSession(SpecForSeed(401));  // releases the hold
  ASSERT_TRUE(second.ok());

  auto first_result = client->FetchResult(first->first);
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  auto second_result = client->FetchResult(second->first);
  ASSERT_TRUE(second_result.ok());

  // In-process mirror: same jobs, same ReconfigureStream before stepping.
  std::vector<Tenant> tenants(2);
  std::vector<core::StreamEngineJob> jobs;
  jobs.push_back(MirrorJob(SpecForSeed(400), &tenants[0]));
  jobs.push_back(MirrorJob(SpecForSeed(401), &tenants[1]));
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->ReconfigureStream(0, change).ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  ASSERT_TRUE(ref_results[0].ok() && ref_results[1].ok());
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], *first_result));
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[1], *second_result));

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

void ServeTest::DrainMidRunAndRecover(const std::string& ckpt_path) {
  std::remove(ckpt_path.c_str());
  constexpr size_t kSessions = 2;

  // Long enough (4 simulated days, 32 plan boundaries) that the drain below
  // lands while the sessions are still mid-run.
  auto long_spec = [](uint64_t seed) {
    SessionSpec spec = SpecForSeed(seed);
    spec.duration_days = 4.0;
    return spec;
  };

  uint64_t ids[kSessions];
  {
    ServerOptions opts = BaseServerOptions();
    opts.start_after_sessions = kSessions;
    opts.checkpoint_path = ckpt_path;
    opts.checkpoint_every_boundaries = 1;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok());
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < kSessions; ++i) {
      auto admitted = client->OpenSession(long_spec(500 + i));
      ASSERT_TRUE(admitted.ok());
      ids[i] = admitted->first;
    }
    // A waiter blocked in FetchResult when the drain lands is told to
    // finish the session via --recover instead of hanging.
    std::thread waiter([&] {
      auto c = Client::Connect((*server)->port());
      ASSERT_TRUE(c.ok());
      auto r = c->FetchResult(ids[0]);
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    });
    // Drain only once the fleet has demonstrably planned a couple of
    // boundaries, so the drain checkpoint carries genuine mid-run state.
    for (;;) {
      auto metrics = client->Metrics();
      ASSERT_TRUE(metrics.ok());
      size_t pos = metrics->find("\"boundaries_planned\": ");
      ASSERT_NE(pos, std::string::npos);
      long planned =
          std::strtol(metrics->c_str() + pos + 22, nullptr, 10);
      ASSERT_NE(metrics->find("\"sessions_running\": 2"),
                std::string::npos)
          << "sessions finished before the drain could land:\n"
          << *metrics;
      if (planned >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());
    waiter.join();
  }

  // Second server resumes every in-flight session from the drain
  // checkpoint; the sessions keep their original ids.
  EngineResult recovered[kSessions];
  {
    ServerOptions opts = BaseServerOptions();
    opts.recover_path = ckpt_path;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < kSessions; ++i) {
      auto result = client->FetchResult(ids[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      recovered[i] = std::move(*result);
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());
  }

  // Reference: the fleet that never stopped.
  std::vector<Tenant> tenants(kSessions);
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < kSessions; ++i) {
    jobs.push_back(MirrorJob(long_spec(500 + i), &tenants[i]));
  }
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(ref_results[i].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[i], recovered[i]))
        << "session " << ids[i];
  }
  std::remove(ckpt_path.c_str());
}

TEST_F(ServeTest, DrainCheckpointRecoverFinishesEverySessionBitwise) {
  DrainMidRunAndRecover("/tmp/sky_serve_test_drain_ckpt.bin");
}

TEST_F(ServeTest, DrainUnderASlowCheckpointWriterRecoversBitwise) {
  // Every periodic write is still in flight when the next window comes, so
  // the drain checkpoint must wait for one before it is written — and the
  // file the drain leaves is its own.
  ScopedWriteHook slow(&SlowWrite);
  DrainMidRunAndRecover("/tmp/sky_serve_test_slow_drain_ckpt.bin");
  EXPECT_EQ(g_max_writes_in_flight.load(), 1);
}

TEST_F(ServeTest, MetricsDocumentCarriesTheCounters) {
  ServerOptions opts = BaseServerOptions();
  opts.shared_budget_core_s_per_video_s = 100.0;
  opts.start_after_sessions = 2;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(600)).ok());

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  for (const char* key :
       {"\"uptime_s\"", "\"sessions_accepted\": 1",
        "\"sessions_rejected\": 0", "\"sessions_running\": 1",
        "\"boundaries_planned\"", "\"boundary_p50_ms\"",
        "\"boundary_p99_ms\"",
        "\"shared_budget_core_s_per_video_s\": 100", "\"fleet_restarts\"",
        "\"checkpoints_written\": 0", "\"checkpoint_failures\": 0",
        "\"last_checkpoint_error\": \"\"",
        "\"sessions\"", "\"workload\": \"ev\"", "\"state\": \"running\"",
        "\"stream_index\": 0"}) {
    EXPECT_NE(metrics->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *metrics;
  }

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

// ---------------------------------------------------------------------------
// The served fleet on the barrier scheduler.

TEST_F(ServeTest, LateAdmissionAndLiveReconfigBitwiseAtWorkers1And4) {
  // Sessions A and B start together (the clock is held for both); A is
  // reconfigured and C admitted while the fleet runs, so both land at
  // whatever boundary is current — and under load the client may lag the
  // fleet by several intervals. The in-process reference makes the same
  // two changes at boundaries j <= k of a Step()-driven fleet; the served
  // results must equal the reference for some (j, k), at 1 and 4 workers.
  auto spec = [](uint64_t seed, double days) {
    SessionSpec s = SpecForSeed(seed);
    s.duration_days = days;
    return s;
  };
  const SessionSpec a_spec = spec(700, 1.0);  // 8 boundaries of 3 h
  const SessionSpec b_spec = spec(701, 1.0);
  const SessionSpec c_spec = spec(702, 0.5);
  core::StreamReconfig cut;
  cut.cloud_budget_usd_per_interval = 0.0;

  for (size_t workers : {size_t{1}, size_t{4}}) {
    const std::string label = std::to_string(workers) + " workers";
    ServerOptions opts = BaseServerOptions();
    opts.start_after_sessions = 2;
    opts.workers = workers;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    auto a = client->OpenSession(a_spec);
    auto b = client->OpenSession(b_spec);  // releases the hold
    ASSERT_TRUE(a.ok() && b.ok()) << label;
    ASSERT_TRUE(client->Reconfigure(a->first, cut).ok()) << label;
    auto c = client->OpenSession(c_spec);
    ASSERT_TRUE(c.ok()) << label;
    EngineResult served[3];
    uint64_t ids[3] = {a->first, b->first, c->first};
    for (size_t i = 0; i < 3; ++i) {
      auto result = client->FetchResult(ids[i]);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      served[i] = std::move(*result);
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());

    const double interval_s = Days(a_spec.plan_interval_days);
    bool matched = false;
    for (int j = 1; j <= 8 && !matched; ++j) {
      for (int k = j; k <= 8 && !matched; ++k) {
        std::vector<Tenant> tenants(3);
        auto set = core::StreamSet::Create(
            {MirrorJob(a_spec, &tenants[0]), MirrorJob(b_spec, &tenants[1])});
        ASSERT_TRUE(set.ok());
        ASSERT_TRUE(set->RunUntilElapsed(j * interval_s).ok());
        ASSERT_TRUE(set->ReconfigureStream(0, cut).ok());
        ASSERT_TRUE(set->RunUntilElapsed(k * interval_s).ok());
        ASSERT_TRUE(set->AddStream(MirrorJob(c_spec, &tenants[2])).ok());
        while (!set->Done()) ASSERT_TRUE(set->Step().ok());
        auto ref = set->Results();
        bool same = true;
        for (size_t i = 0; i < 3; ++i) {
          same = same && ref[i].ok() &&
                 EngineResultsIdentical(*ref[i], served[i]);
        }
        matched = same;
      }
    }
    EXPECT_TRUE(matched) << label
                         << ": no boundary pair reproduces the served run";
  }
}

TEST_F(ServeTest, CheckpointAtABoundaryIsByteIdenticalAtWorkers1And4) {
  // Two 1-day sessions have 8 boundaries; a cadence of 5 writes exactly one
  // periodic checkpoint, at the fifth. The hard stop after the results
  // writes no final one, so the file holds that boundary's checkpoint.
  std::string bytes[2];
  const size_t worker_counts[2] = {1, 4};
  for (size_t i = 0; i < 2; ++i) {
    const std::string path = "/tmp/sky_serve_test_w" +
                             std::to_string(worker_counts[i]) + "_ckpt.bin";
    std::remove(path.c_str());
    {
      ServerOptions opts = BaseServerOptions();
      opts.start_after_sessions = 2;
      opts.checkpoint_path = path;
      opts.checkpoint_every_boundaries = 5;
      opts.workers = worker_counts[i];
      auto server = Server::Start(opts);
      ASSERT_TRUE(server.ok());
      auto client = Client::Connect((*server)->port());
      ASSERT_TRUE(client.ok());
      std::vector<uint64_t> ids;
      for (uint64_t seed : {710, 711}) {
        SessionSpec spec = SpecForSeed(seed);
        spec.duration_days = 1.0;
        auto admitted = client->OpenSession(spec);
        ASSERT_TRUE(admitted.ok());
        ids.push_back(admitted->first);
      }
      for (uint64_t id : ids) ASSERT_TRUE(client->FetchResult(id).ok());
    }  // ~Server: hard stop, no final checkpoint
    auto read = io::wire::ReadFile(path, "serve checkpoint");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    bytes[i] = std::move(*read);
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
  auto parsed = serve::ParseServeCheckpoint(bytes[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sessions.size(), 2u);
}

/// Serves `specs` with the clock held until all are admitted and a
/// checkpoint at every boundary, and fetches their results; `settled`
/// receives the metrics once all `boundaries` periodic checkpoints have an
/// outcome. The server is drained, so the checkpoint file is its drain
/// checkpoint.
struct CheckpointedRun {
  std::vector<uint64_t> ids;
  std::vector<EngineResult> results;
  std::string settled;
};

void ServeCheckpointed(ServerOptions opts,
                       const std::vector<SessionSpec>& specs,
                       uint64_t boundaries, CheckpointedRun* run) {
  opts.start_after_sessions = specs.size();
  opts.checkpoint_every_boundaries = 1;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  for (const SessionSpec& spec : specs) {
    auto admitted = client->OpenSession(spec);
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    run->ids.push_back(admitted->first);
  }
  for (uint64_t id : run->ids) {
    auto result = client->FetchResult(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    run->results.push_back(std::move(*result));
  }
  run->settled = SettledCheckpointMetrics(&*client, boundaries);
  // Make the drain's write outlast Wait()'s own shutdown (the listener
  // polls every 200 ms), so the check below sees whether Wait() waited.
  g_write_ms = 400;
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
  // Durable once Wait() returns, with the server still alive: the file is
  // the drain checkpoint, every session done — not a periodic one from
  // while they ran.
  auto drained = serve::LoadServeCheckpoint(opts.checkpoint_path);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->sessions.size(), specs.size());
  for (const serve::SessionRecord& rec : drained->sessions) {
    EXPECT_EQ(rec.state, serve::SessionState::kDone) << "session " << rec.id;
  }
}

TEST_F(ServeTest, SlowCheckpointWriterKeepsEveryCheckpointAtWorkers1And4) {
  std::vector<SessionSpec> specs;
  for (uint64_t seed : {720, 721}) {
    specs.push_back(SpecForSeed(seed));
    specs.back().duration_days = 1.0;
  }
  std::vector<Tenant> tenants(specs.size());
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < specs.size(); ++i) {
    jobs.push_back(MirrorJob(specs[i], &tenants[i]));
  }
  auto reference = core::StreamSet::Create(std::move(jobs));
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  const uint64_t boundaries = reference->boundary_latencies_ms().size();
  ASSERT_EQ(boundaries, 8u);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    const std::string label = std::to_string(workers) + " workers";
    const std::string path = "/tmp/sky_serve_test_slow_w" +
                             std::to_string(workers) + "_ckpt.bin";
    std::remove(path.c_str());
    CheckpointedRun run;
    {
      ScopedWriteHook slow(&SlowWrite);
      ServerOptions opts = BaseServerOptions();
      opts.checkpoint_path = path;
      opts.workers = workers;
      ServeCheckpointed(opts, specs, boundaries, &run);
      EXPECT_EQ(g_max_writes_in_flight.load(), 1) << label;
    }
    ASSERT_EQ(run.results.size(), specs.size()) << label;
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(ref_results[i].ok());
      EXPECT_TRUE(EngineResultsIdentical(*ref_results[i], run.results[i]))
          << label << ", session " << i;
    }
    // Backpressure, not dropping: a write per boundary, none failed.
    ASSERT_FALSE(run.settled.empty()) << label << ": checkpoints never settled";
    EXPECT_EQ(MetricU64(run.settled, "boundaries_planned"), boundaries)
        << label;
    EXPECT_EQ(MetricU64(run.settled, "checkpoints_written"), boundaries)
        << label;
    EXPECT_EQ(MetricU64(run.settled, "checkpoint_failures"), 0u) << label;

    // The drain checkpoint recovers: finished sessions keep their results.
    ServerOptions opts = BaseServerOptions();
    opts.recover_path = path;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << label << ": " << server.status().ToString();
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < specs.size(); ++i) {
      auto result = client->FetchResult(run.ids[i]);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      EXPECT_TRUE(EngineResultsIdentical(run.results[i], *result))
          << label << ", session " << i;
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());
    std::remove(path.c_str());
  }
}

TEST_F(ServeTest, FailedPeriodicCheckpointIsCountedAndTheRunStaysBitwise) {
  std::vector<SessionSpec> specs;
  for (uint64_t seed : {730, 731}) {
    specs.push_back(SpecForSeed(seed));
    specs.back().duration_days = 1.0;
  }
  std::vector<Tenant> tenants(specs.size());
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < specs.size(); ++i) {
    jobs.push_back(MirrorJob(specs[i], &tenants[i]));
  }
  auto reference = core::StreamSet::Create(std::move(jobs));
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  const uint64_t boundaries = reference->boundary_latencies_ms().size();
  ASSERT_EQ(boundaries, 8u);

  const std::string path = "/tmp/sky_serve_test_failed_ckpt.bin";
  std::remove(path.c_str());
  CheckpointedRun run;
  {
    ScopedWriteHook fail_third(&FailOneWrite);
    g_fail_call = 2;
    ServerOptions opts = BaseServerOptions();
    opts.checkpoint_path = path;
    ServeCheckpointed(opts, specs, boundaries, &run);
    g_fail_call = -1;
  }
  ASSERT_EQ(run.results.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(ref_results[i].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[i], run.results[i]))
        << "session " << i;
  }
  ASSERT_FALSE(run.settled.empty()) << "checkpoints never settled";
  EXPECT_EQ(MetricU64(run.settled, "checkpoint_failures"), 1u)
      << run.settled;
  EXPECT_EQ(MetricU64(run.settled, "checkpoints_written"), boundaries - 1)
      << run.settled;
  EXPECT_NE(run.settled.find("\"last_checkpoint_error\": \"Internal: "
                             "injected checkpoint write failure\""),
            std::string::npos)
      << run.settled;
  std::remove(path.c_str());
}

/// The copying path the one-pass writer replaced, spelled out as it was: an
/// IngestState copy per started engine, serialized into its own string;
/// every STRM payload built apart and copied into the container; the
/// container checksummed over the finished bytes.
std::string CopyingPathFleetBytes(const core::StreamSet& set) {
  std::string out("SKYCKPT1", 8);
  io::wire::PutU32(&out, io::kCheckpointFormatVersion);
  io::wire::PutU32(&out, 0x01020304u);
  {
    std::string p;
    io::wire::PutU64(&p, set.num_streams());
    io::wire::PutChunk(&out, "META", p);
  }
  for (size_t v = 0; v < set.num_streams(); ++v) {
    std::string state;
    const core::IngestionEngine* engine = set.engine(v);
    const bool has_state = engine != nullptr && engine->started();
    if (has_state) {
      auto snap = engine->Checkpoint();
      EXPECT_TRUE(snap.ok());
      EXPECT_TRUE(io::SerializeIngestState(*snap, &state).ok());
      // The state's own trailer is the FNV-1a of everything before it.
      uint64_t trailer = 0;
      std::memcpy(&trailer, state.data() + state.size() - 8, 8);
      EXPECT_EQ(trailer, io::wire::Fnv1a64(state.data(), state.size() - 8));
    }
    std::string p;
    io::wire::PutU64(&p, v);
    io::wire::PutStatus(&p, set.stream_status(v));
    io::wire::PutU8(&p, has_state ? 1 : 0);
    io::wire::PutString(&p, state);
    io::wire::PutChunk(&out, "STRM", p);
  }
  const uint64_t sum = io::wire::Fnv1a64(out.data(), out.size());
  io::wire::PutRaw(&out, "CSUM", 4);
  io::wire::PutU64(&out, sizeof(sum));
  io::wire::PutU64(&out, sum);
  return out;
}

TEST_F(ServeTest, OnePassFleetWriterMatchesTheCopyingPath) {
  // A traced three-stream fleet, one stream removed at the 3 h boundary,
  // checkpointed mid-interval (4.5 h) and at the 6 h boundary.
  std::vector<Tenant> tenants(3);
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < 3; ++i) {
    SessionSpec spec = SpecForSeed(720 + i);
    spec.duration_days = 0.5;
    jobs.push_back(MirrorJob(spec, &tenants[i]));
  }
  auto set = core::StreamSet::Create(std::move(jobs));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->RunUntilElapsed(Hours(3)).ok());
  ASSERT_TRUE(set->RemoveStream(1).ok());
  const std::string path = "/tmp/sky_serve_test_onepass_ckpt.bin";
  for (double hours : {4.5, 6.0}) {
    ASSERT_TRUE(set->RunUntilElapsed(Hours(hours)).ok());
    const std::string copied = CopyingPathFleetBytes(*set);

    std::string one_pass = "prefix bytes stay";
    io::wire::Writer w(&one_pass);
    ASSERT_TRUE(set->AppendCheckpoint(&w).ok());
    w.Finish();
    EXPECT_EQ(one_pass.substr(0, 17), "prefix bytes stay");
    EXPECT_EQ(one_pass.substr(17), copied) << hours << " h";

    ASSERT_TRUE(set->SaveCheckpoint(path).ok());
    auto saved = io::wire::ReadFile(path, "checkpoint");
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(*saved, copied) << hours << " h";

    io::FleetCheckpoint captured;
    ASSERT_TRUE(set->CaptureCheckpoint(&captured).ok());
    std::string reserialized;
    ASSERT_TRUE(io::SerializeFleetCheckpoint(captured, &reserialized).ok());
    EXPECT_EQ(reserialized, copied) << hours << " h";

    // Embedded in a serve checkpoint, the fleet container keeps its bytes.
    serve::ServeCheckpoint serve_ckpt;
    serve_ckpt.fleet_bytes = copied;
    std::string from_copy;
    ASSERT_TRUE(serve::SerializeServeCheckpoint(serve_ckpt, &from_copy).ok());
    std::string in_place;
    io::wire::Writer sw(&in_place);
    ASSERT_TRUE(serve::AppendServeCheckpoint(
                    serve_ckpt, {},
                    [&](io::wire::Writer* fw) {
                      return set->AppendCheckpoint(fw);
                    },
                    &sw)
                    .ok());
    sw.Finish();
    EXPECT_EQ(in_place, from_copy) << hours << " h";
  }
  std::remove(path.c_str());

  // A parsed file's state bytes are written back verbatim, even beside a
  // clear has-state flag.
  io::FleetCheckpoint odd;
  odd.streams.resize(1);
  odd.streams[0].state = "not a state";
  std::string odd_bytes;
  ASSERT_TRUE(io::SerializeFleetCheckpoint(odd, &odd_bytes).ok());
  auto reparsed = io::ParseFleetCheckpoint(odd_bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_FALSE(reparsed->streams[0].has_state);
  EXPECT_EQ(reparsed->streams[0].state, "not a state");
}

// ---------------------------------------------------------------------------
// Connection resources.

size_t CountDirEntries(const char* dir) {
  size_t n = 0;
  DIR* d = ::opendir(dir);
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

TEST_F(ServeTest, FinishedConnectionsReturnTheirFdAndThread) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock: an idle server
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(Client::Connect((*server)->port())->Metrics().ok());
  // The listener reaps finished threads on its next poll (<= 200 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const size_t fds = CountDirEntries("/proc/self/fd");
  const size_t threads = CountDirEntries("/proc/self/task");
  auto settle = [](size_t limit, const char* dir) {
    size_t n = CountDirEntries(dir);
    for (int i = 0; i < 50 && n > limit; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      n = CountDirEntries(dir);
    }
    return n;
  };

  for (int i = 0; i < 300; ++i) {
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok()) << "connection " << i;
    ASSERT_TRUE(client->Metrics().ok()) << "connection " << i;
  }
  EXPECT_LE(settle(fds + 2, "/proc/self/fd"), fds + 2);
  EXPECT_LE(settle(threads + 2, "/proc/self/task"), threads + 2);

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Metrics().ok());
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST_F(ServeTest, ListenerBacksOffWhenAcceptRunsOutOfFds) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock: an idle server
  opts.workers = 1;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());

  // The client's socket exists before the limit drops; the server's accept
  // then needs one more fd than the process may open.
  int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>((*server)->port()));
  int connected =
      ::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(connected, 0);
  // A listener retrying accept at once would burn the whole 300 ms.
  EXPECT_LT(cpu_s, 0.15);

  // Once fds are free again the queued connection is served.
  std::string hello;
  io::wire::PutU32(&hello, serve::kProtocolVersion);
  ASSERT_TRUE(serve::WriteFrame(sock, FrameType::kHello, hello).ok());
  Frame reply;
  ASSERT_TRUE(serve::ReadFrame(sock, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kHelloOk);
  ::close(sock);
  ASSERT_TRUE(Client::Connect((*server)->port())->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

}  // namespace
}  // namespace sky
