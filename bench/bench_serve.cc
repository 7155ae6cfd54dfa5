// `sky serve` overheads. Three headline metrics land in BENCH_serve.json:
//  - admission latency: OpenSession round-trip against an idle (held)
//    server — the full frame/queue/planner-feasibility/AddStream path;
//  - steady-state overhead: wall time of an 8-stream fleet stepped through
//    the serve stack (sessions opened, results fetched over the socket)
//    versus the identical in-process fleet on the same scheduler —
//    StreamSet::RunToCompletion on a pool of the same worker count —
//    interleaved reps, median of 5, at workers {1, 2, nproc}. GATED at
//    nproc (the server's default): the serve layer may cost at most 10% on
//    top of in-process. Served segments/s is printed per worker count.
//  - checkpoint layer: the same fleet served at nproc with and without a
//    checkpoint at every boundary (`sky serve --checkpoint-every 1`, the
//    CLI default), interleaved reps; served segments/s with and without,
//    and their ratio, tracked ungated.
//  - recovery: time to rebuild a 64-stream fleet from its boundary
//    checkpoint (StreamSet::RecoverFromCheckpoint), tracked ungated.
//
// Served results are also checked bitwise against the in-process run — an
// overhead number for a wrong answer would be meaningless.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "bench_common.h"
#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/stats.h"

namespace {

constexpr char kModelPath[] = "bench_serve_model.bin";

sky::api::Resources BenchResources() {
  sky::api::Resources r;
  r.cores = 4;
  r.cloud_budget_usd_per_interval = 1.0;
  return r;
}

sky::serve::SessionSpec SpecForSeed(uint64_t content_seed,
                                    double duration_days) {
  sky::serve::SessionSpec spec;
  spec.workload = "ev";
  spec.content_seed = content_seed;
  spec.start_days = 3.0;
  spec.duration_days = duration_days;
  spec.plan_interval_days = 0.125;  // 3 h lockstep boundaries
  spec.engine_seed = 71;
  return spec;
}

/// Owns the workload + facade a mirrored job borrows (the in-process
/// equivalent of the server's StreamTenant).
struct Tenant {
  std::unique_ptr<sky::core::Workload> workload;
  std::unique_ptr<sky::api::Skyscraper> facade;
};

/// The exact job Server::BuildJob derives from `spec`.
sky::Result<sky::core::StreamEngineJob> MirrorJob(
    const sky::serve::SessionSpec& spec, Tenant* tenant) {
  tenant->workload =
      sky::api::MakeWorkloadByName(spec.workload, spec.content_seed);
  tenant->facade =
      std::make_unique<sky::api::Skyscraper>(tenant->workload.get());
  tenant->facade->SetResources(BenchResources());
  SKY_RETURN_NOT_OK(
      tenant->facade->LoadModel(kModelPath, tenant->workload->name()));
  sky::core::EngineOptions opts;
  opts.duration = sky::Days(spec.duration_days);
  opts.plan_interval = sky::Days(spec.plan_interval_days);
  opts.seed = spec.engine_seed;
  opts.record_trace = spec.record_trace;
  opts.trace_resolution_s = spec.trace_resolution_s;
  opts.work_budget_override = spec.work_budget_override;
  return tenant->facade->MakeStreamJob(sky::Days(spec.start_days), opts);
}

/// Serves `streams` sessions of `days` on `workers` threads, checkpointing
/// to `checkpoint_path` at every boundary when it is non-empty, and fetches
/// every result into `served`. Sessions are opened while the server holds
/// the clock, and the returned wall time starts when the last open (which
/// releases the hold) returns, so it measures the stepping loop: compute +
/// boundary-window and frame overhead, not connection or model-load setup.
sky::Result<double> ServeFleet(const sky::serve::ServerOptions& base,
                               size_t streams, double days, size_t workers,
                               const std::string& checkpoint_path,
                               std::vector<sky::core::EngineResult>* served) {
  using namespace sky;
  serve::ServerOptions opts = base;
  opts.start_after_sessions = streams;
  opts.workers = workers;
  if (!checkpoint_path.empty()) {
    opts.checkpoint_path = checkpoint_path;
    opts.checkpoint_every_boundaries = 1;
  }
  SKY_ASSIGN_OR_RETURN(auto server, serve::Server::Start(opts));
  SKY_ASSIGN_OR_RETURN(auto client, serve::Client::Connect(server->port()));
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < streams; ++i) {
    // Sequential opens from one client: slot i gets seed 200 + i.
    SKY_ASSIGN_OR_RETURN(auto admitted,
                         client.OpenSession(SpecForSeed(200 + i, days)));
    ids.push_back(admitted.first);
  }
  bench::WallTimer t;  // the last open released the hold: stepping starts
  served->clear();
  for (uint64_t id : ids) {
    SKY_ASSIGN_OR_RETURN(core::EngineResult result, client.FetchResult(id));
    served->push_back(std::move(result));
  }
  const double wall = t.Seconds();
  (void)client.Drain();
  (void)server->Wait();
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sky;
  using namespace sky::bench;
  (void)argc;
  (void)argv;
  std::printf("=== sky serve overheads ===\n");

  // Train-once: the model every served session loads.
  auto base_workload = api::MakeWorkloadByName("ev");
  api::Skyscraper trainer(base_workload.get());
  trainer.SetResources(BenchResources());
  core::OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(3);
  offline.num_categories = 3;
  offline.train_forecaster = false;
  WallTimer offline_timer;
  if (Status st = trainer.Fit(offline); !st.ok()) {
    std::printf("offline failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = trainer.SaveModel(kModelPath, base_workload->name());
      !st.ok()) {
    std::printf("save model failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double offline_s = offline_timer.Seconds();

  bool gates_ok = true;
  auto gate = [&gates_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      gates_ok = false;
    }
  };

  serve::ServerOptions base_opts;
  base_opts.model_path = kModelPath;
  base_opts.workload = "ev";
  base_opts.resources = BenchResources();

  // --- Admission latency: opens against a held clock ----------------------
  // start_after far above the open count keeps the fleet at boundary 0, so
  // every round-trip measures the admission path itself, not a wait for
  // the next boundary.
  constexpr size_t kAdmissions = 16;
  std::vector<double> admission_ms;
  {
    serve::ServerOptions opts = base_opts;
    opts.start_after_sessions = 1u << 20;
    auto server = serve::Server::Start(opts);
    if (!server.ok()) {
      std::printf("server start failed: %s\n",
                  server.status().ToString().c_str());
      return 1;
    }
    auto client = serve::Client::Connect((*server)->port());
    if (!client.ok()) {
      std::printf("connect failed: %s\n", client.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < kAdmissions; ++i) {
      WallTimer t;
      auto admitted = client->OpenSession(SpecForSeed(100 + i, 0.25));
      gate(admitted.ok(), "admission succeeds on an uncapped server");
      admission_ms.push_back(t.Seconds() * 1e3);
    }
    (void)client->Drain();
    (void)(*server)->Wait();
  }
  double admission_p50 = Percentile(admission_ms, 50.0);
  double admission_p99 = Percentile(admission_ms, 99.0);
  std::printf("admission latency over %zu opens: p50 %.3f ms, p99 %.3f ms\n",
              kAdmissions, admission_p50, admission_p99);

  // --- Steady-state overhead: serve stack vs in-process, same workers -----
  // ServeFleet times the served stepping loop. The in-process mirror runs
  // the same fleet through RunToCompletion on a pool of the same worker
  // count — the scheduler the server steps on — so the ratio isolates the
  // serve layer. Serve and in-process reps alternate.
  // 12 simulated days keep each measured window long enough (about 0.2 s
  // at 4 workers on a 4-vCPU VM) that scheduler noise does not dominate the
  // ratio.
  constexpr size_t kStreams = 8;
  constexpr double kDurationDays = 12.0;
  constexpr int kReps = 5;
  const size_t nproc = dag::DefaultThreadCount();
  std::vector<size_t> worker_counts = {1};
  for (size_t w : {size_t{2}, nproc}) {
    if (w > worker_counts.back()) worker_counts.push_back(w);
  }

  struct Steady {
    size_t workers = 0;
    std::vector<double> serve_walls, inproc_walls, ratios;
    double segments = 0.0;
  };
  std::vector<Steady> steady;
  std::vector<core::EngineResult> served;  // the latest served rep's
  for (size_t workers : worker_counts) {
    Steady st;
    st.workers = workers;
    std::unique_ptr<dag::ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<dag::ThreadPool>(workers - 1);
    for (int rep = 0; rep < kReps; ++rep) {
      auto served_wall = ServeFleet(base_opts, kStreams, kDurationDays,
                                    workers, "", &served);
      if (!served_wall.ok()) {
        std::printf("serve failed: %s\n",
                    served_wall.status().ToString().c_str());
        return 1;
      }
      const double serve_wall = *served_wall;

      std::vector<Tenant> tenants(kStreams);
      std::vector<core::StreamEngineJob> jobs;
      for (size_t i = 0; i < kStreams; ++i) {
        auto job = MirrorJob(SpecForSeed(200 + i, kDurationDays), &tenants[i]);
        if (!job.ok()) {
          std::printf("mirror job failed: %s\n",
                      job.status().ToString().c_str());
          return 1;
        }
        jobs.push_back(*job);
      }
      core::StreamSetOptions set_opts;
      set_opts.planning = core::MultiStreamPlanning::kJoint;
      auto fleet = core::StreamSet::Create(std::move(jobs), set_opts);
      if (!fleet.ok()) {
        std::printf("fleet create failed: %s\n",
                    fleet.status().ToString().c_str());
        return 1;
      }
      WallTimer t;
      if (Status ran = fleet->RunToCompletion(pool.get()); !ran.ok()) {
        std::printf("run failed: %s\n", ran.ToString().c_str());
        return 1;
      }
      double inproc_wall = t.Seconds();

      auto results = fleet->Results();
      st.segments = 0.0;
      for (size_t i = 0; i < kStreams; ++i) {
        gate(results[i].ok() &&
                 core::EngineResultsIdentical(*results[i], served[i]),
             "served results bitwise match the in-process fleet");
        st.segments += static_cast<double>(served[i].segments);
      }
      st.serve_walls.push_back(serve_wall);
      st.inproc_walls.push_back(inproc_wall);
      st.ratios.push_back(serve_wall / inproc_wall);
      std::printf("workers %zu rep %d: serve %.3f s, in-process %.3f s, "
                  "ratio %.3f\n",
                  workers, rep, serve_wall, inproc_wall,
                  serve_wall / inproc_wall);
    }
    steady.push_back(std::move(st));
  }
  std::printf("served fleet, %zu streams x %.0f days:\n", kStreams,
              kDurationDays);
  for (const Steady& st : steady) {
    std::printf("  workers %zu: %.0f segments/s served (median), "
                "in-process %.3f s, serve %.3f s, ratio %.3f\n",
                st.workers,
                st.segments / Percentile(st.serve_walls, 50.0),
                Percentile(st.inproc_walls, 50.0),
                Percentile(st.serve_walls, 50.0),
                Percentile(st.ratios, 50.0));
  }
  const Steady& gated = steady.back();
  double ratio_median = Percentile(gated.ratios, 50.0);
  std::printf("steady-state overhead ratio at %zu workers (median of %d): "
              "%.3f (gate: <= 1.10)\n",
              gated.workers, kReps, ratio_median);
  gate(ratio_median <= 1.10,
       "serve steady-state overhead within 10% of in-process");

  // --- Checkpoint layer: served at nproc, with and without checkpoints ----
  // A checkpoint at every boundary costs the window its serialization (the
  // checksums and the disk run on the server's checkpoint-writer thread);
  // the ratio tracks that layer's share. Reps alternate.
  const std::string periodic_path =
      (std::filesystem::temp_directory_path() / "bench_serve_periodic.ckpt")
          .string();
  const std::vector<core::EngineResult> reference = served;
  std::vector<double> plain_walls, checkpointed_walls;
  for (int rep = 0; rep < kReps; ++rep) {
    for (bool checkpointed : {false, true}) {
      auto wall = ServeFleet(base_opts, kStreams, kDurationDays, nproc,
                             checkpointed ? periodic_path : "", &served);
      if (!wall.ok()) {
        std::printf("serve failed: %s\n", wall.status().ToString().c_str());
        return 1;
      }
      bool same = served.size() == reference.size();
      for (size_t i = 0; same && i < served.size(); ++i) {
        same = core::EngineResultsIdentical(reference[i], served[i]);
      }
      gate(same, "checkpointed served results bitwise match");
      (checkpointed ? checkpointed_walls : plain_walls).push_back(*wall);
    }
  }
  std::remove(periodic_path.c_str());
  const double segments = steady.back().segments;
  const double plain_rate = segments / Percentile(plain_walls, 50.0);
  const double checkpointed_rate =
      segments / Percentile(checkpointed_walls, 50.0);
  std::printf("checkpoint layer at %zu workers (median of %d, ungated): "
              "%.0f segments/s served without checkpoints, %.0f with one "
              "per boundary, ratio %.3f\n",
              nproc, kReps, plain_rate, checkpointed_rate,
              checkpointed_rate / plain_rate);

  // --- Recovery: 64-stream fleet from a boundary checkpoint ---------------
  constexpr size_t kRecoverStreams = 64;
  const std::string ckpt_path = "bench_serve_ckpt.bin";
  double recover_s = 0.0;
  {
    auto model = trainer.model();
    std::vector<Tenant> tenants(kRecoverStreams);
    auto make_jobs = [&]() {
      std::vector<core::StreamEngineJob> jobs;
      for (size_t i = 0; i < kRecoverStreams; ++i) {
        auto job = MirrorJob(SpecForSeed(400 + i, 0.25), &tenants[i]);
        if (!job.ok()) {
          std::printf("mirror job failed: %s\n",
                      job.status().ToString().c_str());
          std::exit(1);
        }
        jobs.push_back(*job);
      }
      return jobs;
    };
    core::StreamSetOptions set_opts;
    set_opts.planning = core::MultiStreamPlanning::kJoint;
    auto fleet = core::StreamSet::Create(make_jobs(), set_opts);
    if (!fleet.ok() || !fleet->RunUntilElapsed(Hours(3)).ok() ||
        !fleet->SaveCheckpoint(ckpt_path).ok()) {
      std::printf("could not stage the 64-stream checkpoint\n");
      return 1;
    }
    WallTimer t;
    auto recovered =
        core::StreamSet::RecoverFromCheckpoint(make_jobs(), ckpt_path,
                                               set_opts);
    recover_s = t.Seconds();
    gate(recovered.ok(), "64-stream checkpoint recovers");
    std::printf("recover %zu streams from boundary checkpoint: %.3f s\n",
                kRecoverStreams, recover_s);
    std::remove(ckpt_path.c_str());
  }
  std::remove(kModelPath);

  BenchJson json("serve");
  json.Set("offline_wall_s", offline_s);
  json.Set("admission_opens", static_cast<double>(kAdmissions));
  json.Set("admission_latency_p50_ms", admission_p50);
  json.Set("admission_latency_p99_ms", admission_p99);
  json.Set("steady_streams", static_cast<double>(kStreams));
  json.Set("steady_duration_days", kDurationDays);
  for (const Steady& st : steady) {
    const std::string w = "_w" + std::to_string(st.workers);
    json.Set("serve_wall_s_median" + w, Percentile(st.serve_walls, 50.0));
    json.Set("inproc_wall_s_median" + w, Percentile(st.inproc_walls, 50.0));
    json.Set("serve_overhead_ratio_median" + w, Percentile(st.ratios, 50.0));
    json.Set("served_segments_per_s" + w,
             st.segments / Percentile(st.serve_walls, 50.0));
  }
  json.Set("served_segments_per_s_uncheckpointed", plain_rate);
  json.Set("served_segments_per_s_checkpointed", checkpointed_rate);
  json.Set("checkpointed_throughput_ratio", checkpointed_rate / plain_rate);
  json.Set("gate_workers", static_cast<double>(gated.workers));
  json.Set("serve_overhead_ratio_median", ratio_median);
  json.Set("overhead_gate", ratio_median <= 1.10 ? "pass" : "fail");
  json.Set("recover_streams", static_cast<double>(kRecoverStreams));
  json.Set("recover_64stream_s", recover_s);
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  return gates_ok ? 0 : 1;
}
