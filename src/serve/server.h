#ifndef SKYSCRAPER_SERVE_SERVER_H_
#define SKYSCRAPER_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/skyscraper.h"
#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "io/atomic_file.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/result.h"

namespace sky::serve {

/// Configuration of one `sky serve` process: the model it serves, the
/// per-stream provisioning every admitted session runs under, the pooled
/// budget that gates admission, and the checkpoint cadence.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// Server::port()). The server is deliberately loopback-only: it is a
  /// single-machine multi-tenant ingestion daemon, not an internet service.
  int port = 0;
  /// Model file (io::SaveOfflineModel format) every session serves from —
  /// train-once / serve-many, now with N concurrent tenants.
  std::string model_path;
  /// Registry name (api::MakeWorkloadByName) the model was trained for.
  /// Sessions must name the same workload; their content_seed makes them
  /// distinct cameras of that family.
  std::string workload = "ev";
  /// Per-stream provisioning (cores, buffer, default cloud budget).
  api::Resources resources;
  /// Pooled joint-planning budget, core-seconds per video-second. > 0 also
  /// arms admission control: a session whose all-cheapest cost would push
  /// the fleet past this budget is rejected with kResourceExhausted — the
  /// joint planner's own feasibility threshold, checked at admission time
  /// instead of discovered as an infeasible boundary later. <= 0 derives
  /// the budget from the streams' own resources each boundary (admission
  /// then only enforces max_sessions).
  double shared_budget_core_s_per_video_s = 0.0;
  /// Hard cap on concurrently running sessions; 0 = uncapped.
  size_t max_sessions = 0;
  /// Hold the virtual clock until this many sessions have been admitted,
  /// so all of them join at boundary 0 of one lockstep fleet. This is what
  /// makes N concurrent clients bitwise-comparable to one in-process
  /// StreamSet created with all N streams. 0 = start stepping immediately.
  size_t start_after_sessions = 0;
  /// When non-empty, write a serve checkpoint (session table + fleet
  /// snapshot) here every `checkpoint_every_boundaries` lockstep plan
  /// boundaries, and a final one on drain.
  std::string checkpoint_path;
  size_t checkpoint_every_boundaries = 0;
  /// StreamSet supervision budget per stream (see StreamSetOptions).
  size_t max_stream_restarts = 0;
  /// When non-empty, resume from this serve checkpoint instead of starting
  /// empty: every in-flight session continues bitwise (traces included),
  /// finished sessions keep their fetchable results, and the admission
  /// counters carry over. The checkpoint's shared budget wins over the
  /// shared_budget option.
  std::string recover_path;
  /// Threads that step the fleet, the fleet thread included; 0 = the
  /// hardware concurrency. Results are bitwise the same at any count; the
  /// knob exists to cap a daemon's CPU on a shared host. At most
  /// kMaxServerWorkers.
  size_t workers = 0;
};

/// Upper bound on ServerOptions::workers (a typo must not start thousands
/// of threads).
inline constexpr size_t kMaxServerWorkers = 256;

/// The `sky serve` daemon: accepts stream sessions over a local TCP socket
/// (serve/protocol.h frames), multiplexes them onto ONE core::StreamSet
/// with joint planning under the pooled budget, and services admission,
/// live reconfiguration, metrics, and graceful drain.
///
/// Threading model:
///  - The fleet thread runs StreamSet::RunToCompletion on a pool the server
///    owns (ServerOptions::workers threads in all, itself included): the
///    same sharded barrier scheduler as an in-process fleet, so served
///    results are bitwise-identical to it at any worker count. The fleet
///    thread itself only waits while there is nothing to step.
///  - Everything else the fleet needs happens in the barrier's single-
///    threaded window, through RunToCompletion's boundary hook, on whichever
///    fleet worker leads that barrier: harvesting finished sessions,
///    the queued membership / knob / drain commands, publishing the
///    fleet-stats snapshot, and serializing the periodic checkpoint straight
///    from the live engines into the checkpoint writer's one reused buffer.
///    The window is the only place that touches the StreamSet, the
///    per-session workloads and the counters, so none of them needs a lock.
///    Every session's job runs on the one served model.
///  - One checkpoint-writer thread (io::CheckpointWriter, started by the
///    first checkpoint) checksums each serialized checkpoint and writes it
///    (fsync + rename) while the fleet steps on. At most one write is in
///    flight: the next window's checkpoint waits for it. So a kill -9
///    recovers from the last *completed* checkpoint, at most one boundary
///    older than the last window's, and it replays bitwise. Drain waits for
///    its final checkpoint before the fleet loop exits, and a hard stop
///    waits for the write in flight, so after Wait() or ~Server the file is
///    the last checkpoint submitted. Write outcomes are counted in the
///    metrics (checkpoints_written, checkpoint_failures,
///    last_checkpoint_error).
///  - One listener thread accepts connections; one thread per connection
///    parses request frames, enqueues commands and blocks on the reply
///    future (or the registry, for kFetchResult). Metrics never wait for a
///    boundary: a connection thread renders them from the session registry
///    and the fleet-stats snapshot, each behind its own mutex. A finished
///    connection closes its fd and the listener reaps its thread.
class Server {
 public:
  /// Binds, (optionally) recovers, and starts all threads. On success the
  /// server is accepting connections on 127.0.0.1:port().
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  /// Hard stop: abandons in-flight work WITHOUT a final checkpoint (the
  /// periodic write in flight, if any, still completes), closes the socket,
  /// joins every thread. Use RequestDrain() + Wait() for the graceful path.
  ~Server();

  int port() const { return port_; }

  /// Asks the fleet thread to drain: finish the current interval, write the
  /// final checkpoint (when checkpointing is configured), fail still-
  /// running waiters with a "recover to finish" error, and exit. Safe from
  /// any thread; idempotent. (The CLI calls this when SIGINT/SIGTERM is
  /// flagged; a kDrain frame triggers the same path.)
  void RequestDrain();

  /// True once the fleet thread has exited (drained or failed).
  bool finished() const { return finished_.load(); }

  /// Joins the fleet thread and shuts the network down; returns the fleet
  /// loop's terminal status. Call after RequestDrain() (or a client-sent
  /// kDrain) for a graceful exit.
  Status Wait();

 private:
  struct StreamTenant {
    std::unique_ptr<core::Workload> workload;
  };

  /// A request only the boundary window can serve.
  struct Command {
    enum class Kind : uint8_t {
      kOpen,       // admit spec -> payload u64 id, u64 slot
      kClose,      // retire session_id
      kReconfig,   // apply reconfig to session_id
      kSetBudget,  // replace the shared budget
      kDrain,      // checkpoint + exit
    };
    Kind kind = Kind::kDrain;
    SessionSpec spec;
    uint64_t session_id = 0;
    core::StreamReconfig reconfig;
    double budget = 0.0;
    /// Fulfilled by the boundary window with the encoded success-reply
    /// payload (or the rejection Status).
    std::promise<Result<std::string>> reply;
  };

  explicit Server(ServerOptions options);

  /// Loads the base model, binds the socket, optionally recovers.
  Status Init();
  Status RecoverFromServeCheckpoint();

  /// Builds one admitted session's simulation: its workload instance and
  /// the resolved StreamEngineJob, on the served model.
  Result<core::StreamEngineJob> BuildJob(const SessionSpec& spec,
                                         StreamTenant* tenant) const;

  /// min_k cost(k) of one more session of the served model — the marginal
  /// all-cheapest cost admission control charges a newcomer.
  double NewcomerCheapestCost() const;

  /// What a metrics reply reads besides the registry: published by the
  /// boundary window under stats_mu_, read by connection threads.
  struct FleetStats {
    uint64_t sessions_accepted = 0;
    uint64_t sessions_rejected = 0;
    double shared_budget_core_s_per_video_s = 0.0;
    double cheapest_fleet_cost_core_s_per_video_s = 0.0;
    uint64_t fleet_restarts = 0;
    /// Every joint boundary's latency so far, appended as they are planned.
    std::vector<double> boundary_ms;
  };

  /// A finished connection closes its fd and sets `done`; the listener
  /// joins its thread. Both fields are guarded by conn_mu_.
  struct Conn {
    int fd = -1;  ///< -1 once closed
    bool done = false;
    std::thread thread;
  };

  /// Idles until there is a command, a drain, or a fleet to step, then
  /// runs the fleet on the pool with BoundaryWindow as its hook.
  void FleetLoop();
  /// The boundary hook: harvest, commands, stats, drain and the periodic
  /// checkpoint. Returns false to stop stepping (nothing to step, or a
  /// drain); sets *exit when the fleet loop should end. A hard stop needs
  /// no window: RunToCompletion's cancel flag is stop_.
  bool BoundaryWindow(bool* exit, Status* terminal);
  bool CanStep() const;
  void HarvestFinished();
  Result<std::string> Admit(const SessionSpec& spec);
  Result<std::string> ServiceCommand(const Command& cmd);
  void PublishStats();
  std::string CollectMetricsJson() const;
  /// Serializes the serve checkpoint into checkpoint_writer_ and submits it
  /// (a serialization failure is recorded there and returned).
  Status SubmitServeCheckpoint();

  /// Enqueues a command for the fleet thread and blocks on its reply.
  /// Refuses (instead of hanging) once the fleet loop has closed the queue.
  Result<std::string> Dispatch(std::unique_ptr<Command> cmd);

  void ListenLoop();
  void Connection(Conn* conn);
  /// Joins the threads of finished connections.
  void ReapConnections();
  /// Handles one request frame; returns the reply (type, payload).
  std::pair<FrameType, std::string> HandleRequest(const Frame& request);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::chrono::steady_clock::time_point started_at_;

  /// The served model, loaded once: resolves spec defaults, prices
  /// admission, and is the model of every session's job. It is immutable
  /// while engines run (each engine copies the forecaster it updates), so
  /// the fleet's workers share it as an in-process fleet does.
  std::unique_ptr<core::Workload> base_workload_;
  std::unique_ptr<api::Skyscraper> base_facade_;

  // --- Boundary-window state (no lock; see threading model) ---
  std::unique_ptr<core::StreamSet> fleet_;
  std::vector<StreamTenant> tenants_;  ///< slot-parallel to the fleet
  uint64_t sessions_accepted_ = 0;
  uint64_t sessions_rejected_ = 0;
  uint64_t boundaries_seen_ = 0;
  double shared_budget_ = 0.0;
  Status fleet_status_;
  /// Periodic and drain checkpoints: serialized in the window, written on
  /// its own thread. Its stats() feed the metrics from connection threads.
  io::CheckpointWriter checkpoint_writer_;

  /// Fleet workers beyond the fleet thread (null when workers == 1).
  std::unique_ptr<dag::ThreadPool> pool_;

  mutable std::mutex stats_mu_;
  FleetStats stats_;

  SessionRegistry registry_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Command>> queue_;
  bool drain_requested_ = false;
  bool queue_closed_ = false;

  std::atomic<bool> stop_{false};      ///< hard stop (destructor)
  std::atomic<bool> finished_{false};  ///< fleet thread exited

  std::thread fleet_thread_;
  std::thread listen_thread_;
  std::mutex conn_mu_;
  std::list<Conn> conns_;  ///< a list: a Conn never moves while it runs
  bool joined_ = false;
};

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_SERVER_H_
