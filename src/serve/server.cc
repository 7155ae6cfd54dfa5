#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "api/workload_registry.h"
#include "io/atomic_file.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace sky::serve {

namespace {

constexpr int kAcceptPollMs = 200;
constexpr auto kQueueWaitMs = std::chrono::milliseconds(50);
/// How long the listener waits after accept runs out of fds: the pending
/// connection stays queued and poll keeps reporting it, so an immediate
/// retry would spin until some connection ends and frees one.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(50);

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  shared_budget_ = options_.shared_budget_core_s_per_video_s;
}

Server::~Server() {
  stop_.store(true);
  queue_cv_.notify_all();
  registry_.BeginDrain();
  Wait();
}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  // make_unique needs a public ctor; the factory keeps construction staged
  // (bind + recover before any thread exists) so Init failures are clean.
  std::unique_ptr<Server> server(new Server(std::move(options)));
  SKY_RETURN_NOT_OK(server->Init());
  server->PublishStats();
  server->started_at_ = std::chrono::steady_clock::now();
  server->fleet_thread_ = std::thread([s = server.get()] { s->FleetLoop(); });
  server->listen_thread_ = std::thread([s = server.get()] { s->ListenLoop(); });
  return server;
}

Status Server::Init() {
  if (options_.workers > kMaxServerWorkers) {
    return Status::InvalidArgument("at most " +
                                   std::to_string(kMaxServerWorkers) +
                                   " fleet workers");
  }
  base_workload_ = api::MakeWorkloadByName(options_.workload);
  if (base_workload_ == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options_.workload +
                                   "'");
  }
  base_facade_ = std::make_unique<api::Skyscraper>(base_workload_.get());
  base_facade_->SetResources(options_.resources);
  SKY_RETURN_NOT_OK(
      base_facade_->LoadModel(options_.model_path, base_workload_->name()));

  if (!options_.recover_path.empty()) {
    SKY_RETURN_NOT_OK(RecoverFromServeCheckpoint());
  } else {
    core::StreamSetOptions set_opts;
    set_opts.planning = core::MultiStreamPlanning::kJoint;
    set_opts.shared_budget_core_s_per_video_s = shared_budget_;
    set_opts.max_stream_restarts = options_.max_stream_restarts;
    auto fleet = core::StreamSet::Create({}, set_opts);
    if (!fleet.ok()) return fleet.status();
    fleet_ = std::make_unique<core::StreamSet>(std::move(*fleet));
  }
  size_t workers = options_.workers > 0 ? options_.workers
                                        : dag::DefaultThreadCount();
  if (workers > 1) pool_ = std::make_unique<dag::ThreadPool>(workers - 1);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

Result<core::StreamEngineJob> Server::BuildJob(const SessionSpec& spec,
                                               StreamTenant* tenant) const {
  if (spec.workload != options_.workload) {
    return Status::NotFound("this server serves workload '" +
                            options_.workload + "', not '" + spec.workload +
                            "'");
  }
  if (spec.duration_days <= 0.0) {
    return Status::InvalidArgument("session duration must be positive");
  }
  tenant->workload =
      api::MakeWorkloadByName(spec.workload, spec.content_seed);
  if (tenant->workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + spec.workload +
                                   "'");
  }
  auto model = base_facade_->model();
  if (!model.ok()) return model.status();

  // Spec defaults resolve exactly like the matching `sky ingest` flags.
  double start_days = spec.start_days >= 0.0
                          ? spec.start_days
                          : (*model)->train_horizon / 86400.0;
  double plan_days = spec.plan_interval_days;
  if (plan_days <= 0.0) {
    plan_days = (*model)->forecaster.has_value()
                    ? (*model)->forecaster->options().planned_interval /
                          86400.0
                    : 2.0;
  }

  core::EngineOptions opts;
  opts.duration = Days(spec.duration_days);
  opts.plan_interval = Days(plan_days);
  opts.seed = spec.engine_seed;
  opts.record_trace = spec.record_trace;
  opts.trace_resolution_s = spec.trace_resolution_s;
  if (spec.f32_forecast) opts.forecast_precision = ml::Precision::kF32;
  if (spec.cloud_budget_usd_per_interval.has_value()) {
    opts.cloud_budget_usd_per_interval = *spec.cloud_budget_usd_per_interval;
  }
  opts.work_budget_override = spec.work_budget_override;
  SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                       base_facade_->MakeStreamJob(Days(start_days), opts));
  job.workload = tenant->workload.get();
  return job;
}

double Server::NewcomerCheapestCost() const {
  auto model = base_facade_->model();
  if (!model.ok()) return 0.0;
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

Status Server::RecoverFromServeCheckpoint() {
  auto loaded = LoadServeCheckpoint(options_.recover_path);
  if (!loaded.ok()) return loaded.status();
  ServeCheckpoint& ckpt = *loaded;

  auto fleet_ckpt = io::ParseFleetCheckpoint(ckpt.fleet_bytes);
  if (!fleet_ckpt.ok()) return fleet_ckpt.status();

  // Rebuild jobs slot-parallel to the checkpointed fleet: running sessions
  // get their exact original simulation back (spec-recorded workload, seeds,
  // knobs); every other slot — finished, failed, removed, or rejected — gets
  // a null job, whose Create-time error status is overwritten by the
  // checkpoint's recorded per-slot status.
  std::vector<core::StreamEngineJob> jobs(fleet_ckpt->streams.size());
  tenants_.clear();
  tenants_.resize(fleet_ckpt->streams.size());
  for (SessionRecord& rec : ckpt.sessions) {
    if (rec.state == SessionState::kRunning) {
      if (rec.stream_index >= jobs.size()) {
        return Status::InvalidArgument(
            "serve checkpoint: session stream index out of fleet range");
      }
      StreamTenant tenant;
      auto job = BuildJob(rec.spec, &tenant);
      if (!job.ok()) return job.status();
      jobs[rec.stream_index] = *job;
      tenants_[rec.stream_index] = std::move(tenant);
    }
    registry_.Restore(rec);
  }

  sessions_accepted_ = ckpt.sessions_accepted;
  sessions_rejected_ = ckpt.sessions_rejected;
  shared_budget_ = ckpt.shared_budget_core_s_per_video_s;

  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  set_opts.shared_budget_core_s_per_video_s = shared_budget_;
  set_opts.max_stream_restarts = options_.max_stream_restarts;
  auto fleet = core::StreamSet::RecoverFromCheckpoint(std::move(jobs),
                                                      *fleet_ckpt, set_opts);
  if (!fleet.ok()) return fleet.status();
  fleet_ = std::make_unique<core::StreamSet>(std::move(*fleet));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Fleet thread and boundary window.

bool Server::CanStep() const {
  return sessions_accepted_ >= options_.start_after_sessions &&
         !fleet_->Done();
}

void Server::FleetLoop() {
  Status terminal;
  bool exit = false;
  while (!exit && !stop_.load()) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (queue_.empty() && !drain_requested_ && !CanStep()) {
        queue_cv_.wait_for(lock, kQueueWaitMs);
        continue;
      }
    }
    // Commands, drain and stepping all go through the scheduler: its entry
    // barrier is a boundary window too, so a command that arrives while the
    // fleet idles is served there, and a fleet it makes steppable starts
    // right away.
    Status ran = fleet_->RunToCompletion(
        pool_.get(), [&] { return BoundaryWindow(&exit, &terminal); },
        &stop_);
    if (!ran.ok()) {
      terminal = ran;
      break;
    }
  }

  HarvestFinished();
  // A periodic write may still be in flight (a hard stop, a failed run):
  // settle the file before anyone can observe the fleet loop as finished.
  (void)checkpoint_writer_.Flush();
  registry_.BeginDrain();
  {
    // Close the queue and fail any commands still in it — their connections
    // would hang forever otherwise.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
    for (auto& cmd : queue_) {
      cmd->reply.set_value(
          Status::FailedPrecondition("server is shutting down"));
    }
    queue_.clear();
  }
  fleet_status_ = terminal;
  finished_.store(true);
}

bool Server::BoundaryWindow(bool* exit, Status* terminal) {
  HarvestFinished();

  std::vector<std::unique_ptr<Command>> cmds;
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    while (!queue_.empty()) {
      cmds.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    drain = drain_requested_;
  }
  std::vector<Result<std::string>> replies;
  replies.reserve(cmds.size());
  for (const auto& cmd : cmds) replies.push_back(ServiceCommand(*cmd));
  // Publish before replying, so a client that reads metrics after its
  // reply sees the counters its command changed.
  PublishStats();
  for (size_t i = 0; i < cmds.size(); ++i) {
    cmds[i]->reply.set_value(std::move(replies[i]));
  }

  if (drain) {
    // The drain checkpoint is durable before the fleet loop exits: a
    // failed final write is the server's terminal status.
    if (!options_.checkpoint_path.empty()) {
      *terminal = SubmitServeCheckpoint();
      if (terminal->ok()) *terminal = checkpoint_writer_.Flush();
    }
    *exit = true;
    return false;
  }
  if (!CanStep()) return false;

  // The serve checkpoint is taken in the window, BEFORE the boundary's plan
  // is installed, so a recovered server replays the boundary
  // deterministically. Only the serialization runs here; the writer thread
  // checksums and writes it while the fleet steps on. Periodic checkpoint
  // failures never fail the run (same contract as StreamSet
  // auto-checkpoints) and show in the metrics; the final drain checkpoint
  // does fail it.
  if (options_.checkpoint_every_boundaries > 0 &&
      !options_.checkpoint_path.empty() &&
      ++boundaries_seen_ % options_.checkpoint_every_boundaries == 0) {
    (void)SubmitServeCheckpoint();
  }
  return true;
}

Result<std::string> Server::Dispatch(std::unique_ptr<Command> cmd) {
  auto reply = cmd->reply.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // queue_closed_ flips under this mutex in the fleet loop's epilogue, so
    // a command either lands before the final queue sweep or is refused
    // here — it can never be enqueued past it and hang its connection.
    if (queue_closed_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    // Setting the drain flag under the same lock as the push guarantees the
    // boundary window observes the command and the flag together, so the
    // kDrain ack is always delivered before the fleet loop exits.
    if (cmd->kind == Command::Kind::kDrain) drain_requested_ = true;
    queue_.push_back(std::move(cmd));
  }
  queue_cv_.notify_all();
  return reply.get();
}

void Server::HarvestFinished() {
  std::vector<std::pair<uint64_t, size_t>> running;  // (session id, slot)
  registry_.Visit([&](const std::vector<SessionRecord>& records) {
    for (const SessionRecord& rec : records) {
      if (rec.state == SessionState::kRunning) {
        running.emplace_back(rec.id, static_cast<size_t>(rec.stream_index));
      }
    }
  });
  for (auto [id, v] : running) {
    if (v >= fleet_->num_streams()) continue;
    const core::IngestionEngine* engine = fleet_->engine(v);
    const Status& status = fleet_->stream_status(v);
    if (engine != nullptr && status.ok() && engine->Done()) {
      core::EngineResult result = engine->partial_result();
      // Done/failed slots are removable at any clock position by contract.
      Status removed = fleet_->RemoveStream(v);
      (void)removed;
      tenants_[v] = StreamTenant{};
      registry_.MarkDone(id, std::move(result));
    } else if (!status.ok()) {
      Status error = status;
      Status removed = fleet_->RemoveStream(v);
      (void)removed;
      tenants_[v] = StreamTenant{};
      registry_.MarkFailed(id, error);
    }
  }
}

Result<std::string> Server::Admit(const SessionSpec& spec) {
  if (options_.max_sessions > 0 &&
      registry_.active_count() >= options_.max_sessions) {
    ++sessions_rejected_;
    return Status::ResourceExhausted("session cap reached");
  }
  // The joint planner's feasibility threshold, checked before the stream
  // ever joins: all-cheapest fleet cost plus the newcomer's cheapest config
  // must fit the pooled budget, or the next boundary would be infeasible.
  if (shared_budget_ > 0.0) {
    double projected =
        fleet_->CheapestFleetCostCoreSPerVideoS() + NewcomerCheapestCost();
    if (projected > shared_budget_) {
      ++sessions_rejected_;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "admission rejected: all-cheapest fleet cost %.6f "
                    "core-s/video-s would exceed the shared budget %.6f",
                    projected, shared_budget_);
      return Status::ResourceExhausted(buf);
    }
  }

  StreamTenant tenant;
  auto job = BuildJob(spec, &tenant);
  if (!job.ok()) {
    ++sessions_rejected_;
    return job.status();
  }
  auto slot = fleet_->AddStream(*job);
  if (!slot.ok()) {
    ++sessions_rejected_;
    return slot.status();
  }
  tenants_.resize(std::max(tenants_.size(), *slot + 1));
  tenants_[*slot] = std::move(tenant);
  uint64_t id = registry_.Add(spec, *slot);
  ++sessions_accepted_;

  std::string payload;
  io::wire::PutU64(&payload, id);
  io::wire::PutU64(&payload, *slot);
  return payload;
}

Result<std::string> Server::ServiceCommand(const Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kOpen:
      return Admit(cmd.spec);
    case Command::Kind::kClose: {
      SKY_ASSIGN_OR_RETURN(uint64_t slot,
                           registry_.StreamIndexOf(cmd.session_id));
      SKY_RETURN_NOT_OK(fleet_->RemoveStream(slot));
      tenants_[slot] = StreamTenant{};
      registry_.MarkFailed(
          cmd.session_id,
          Status::FailedPrecondition("session closed by client request"));
      return std::string();
    }
    case Command::Kind::kReconfig: {
      SKY_ASSIGN_OR_RETURN(uint64_t slot,
                           registry_.StreamIndexOf(cmd.session_id));
      SKY_RETURN_NOT_OK(fleet_->ReconfigureStream(slot, cmd.reconfig));
      return std::string();
    }
    case Command::Kind::kSetBudget:
      shared_budget_ = cmd.budget;
      fleet_->set_shared_budget(cmd.budget);
      return std::string();
    case Command::Kind::kDrain:
      // The flag was already set when the command was enqueued; the reply
      // acknowledges that the drain boundary has been reached. The final
      // checkpoint is written right after the window's replies, before the
      // fleet loop exits — a client that wants a durable handoff should
      // still wait for the process to exit (the CLI does).
      return std::string();
  }
  return Status::Internal("unknown command");
}

void Server::PublishStats() {
  const std::vector<double>& ms = fleet_->boundary_latencies_ms();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.sessions_accepted = sessions_accepted_;
  stats_.sessions_rejected = sessions_rejected_;
  stats_.shared_budget_core_s_per_video_s = shared_budget_;
  stats_.cheapest_fleet_cost_core_s_per_video_s =
      fleet_->CheapestFleetCostCoreSPerVideoS();
  stats_.fleet_restarts = fleet_->total_restarts();
  // The latency history only grows: append what is new since the last
  // window instead of copying it all.
  stats_.boundary_ms.insert(stats_.boundary_ms.end(),
                            ms.begin() + stats_.boundary_ms.size(), ms.end());
}

std::string Server::CollectMetricsJson() const {
  ServerMetrics m;
  m.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started_at_)
                   .count();
  std::vector<double> boundary_ms;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    m.sessions_accepted = stats_.sessions_accepted;
    m.sessions_rejected = stats_.sessions_rejected;
    m.shared_budget_core_s_per_video_s =
        stats_.shared_budget_core_s_per_video_s;
    m.cheapest_fleet_cost_core_s_per_video_s =
        stats_.cheapest_fleet_cost_core_s_per_video_s;
    m.fleet_restarts = stats_.fleet_restarts;
    boundary_ms = stats_.boundary_ms;
  }
  const io::CheckpointWriter::Stats ckpt = checkpoint_writer_.stats();
  m.checkpoints_written = ckpt.written;
  m.checkpoint_failures = ckpt.failed;
  if (!ckpt.last_error.ok()) m.last_checkpoint_error = ckpt.last_error.ToString();
  m.boundaries_planned = boundary_ms.size();
  m.boundary_p50_ms = Percentile(boundary_ms, 50.0);
  m.boundary_p99_ms = Percentile(boundary_ms, 99.0);
  std::string json;
  registry_.Visit([&](const std::vector<SessionRecord>& records) {
    m.sessions = &records;
    json = RenderMetricsJson(m);
  });
  return json;
}

Status Server::SubmitServeCheckpoint() {
  io::wire::Writer* w = checkpoint_writer_.Begin();
  Status written;
  registry_.Visit([&](const std::vector<SessionRecord>& records) {
    ServeCheckpointMeta meta;
    for (const SessionRecord& rec : records) {
      meta.next_session_id = std::max(meta.next_session_id, rec.id + 1);
    }
    meta.sessions_accepted = sessions_accepted_;
    meta.sessions_rejected = sessions_rejected_;
    meta.shared_budget_core_s_per_video_s = shared_budget_;
    written = AppendServeCheckpoint(
        meta, records,
        [this](io::wire::Writer* fleet) {
          return fleet_->AppendCheckpoint(fleet);
        },
        w);
  });
  if (!written.ok()) {
    checkpoint_writer_.Fail(written);
    return written;
  }
  checkpoint_writer_.Submit(options_.checkpoint_path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Network threads.

void Server::ListenLoop() {
  while (!stop_.load() && !finished_.load()) {
    ReapConnections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(kAcceptBackoff);
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    Conn& conn = conns_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, c = &conn] { Connection(c); });
  }
}

void Server::ReapConnections() {
  std::list<Conn> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      auto next = std::next(it);
      if (it->done) finished.splice(finished.end(), conns_, it);
      it = next;
    }
  }
  for (Conn& c : finished) c.thread.join();
}

void Server::Connection(Conn* conn) {
  const int fd = conn->fd;
  for (;;) {
    Frame request;
    Status read = ReadFrame(fd, &request);
    if (!read.ok()) break;  // hangup or corruption: drop the connection
    auto [type, payload] = HandleRequest(request);
    if (!WriteFrame(fd, type, payload).ok()) break;
  }
  // Closed under conn_mu_, so Wait() never shuts down a reused fd number.
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn->fd = -1;
  conn->done = true;
}

std::pair<FrameType, std::string> Server::HandleRequest(
    const Frame& request) {
  auto error = [](const Status& s) {
    std::string payload;
    AppendError(s, &payload);
    return std::make_pair(FrameType::kError, std::move(payload));
  };

  switch (request.type) {
    case FrameType::kHello: {
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      uint32_t version = 0;
      Status s = c.ReadU32(&version);
      if (!s.ok()) return error(s);
      if (version != kProtocolVersion) {
        return error(Status::InvalidArgument(
            "protocol version mismatch: server speaks version " +
            std::to_string(kProtocolVersion)));
      }
      std::string payload;
      io::wire::PutU32(&payload, kProtocolVersion);
      return {FrameType::kHelloOk, std::move(payload)};
    }

    case FrameType::kOpenSession: {
      auto cmd = std::make_unique<Command>();
      cmd->kind = Command::Kind::kOpen;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = ParseSessionSpec(&c, &cmd->spec);
      if (!s.ok()) return error(s);
      Result<std::string> admitted = Dispatch(std::move(cmd));
      if (!admitted.ok()) return error(admitted.status());
      return {FrameType::kSessionOpened, std::move(*admitted)};
    }

    case FrameType::kFetchResult: {
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      uint64_t id = 0;
      Status s = c.ReadU64(&id);
      if (!s.ok()) return error(s);
      Result<core::EngineResult> result = registry_.AwaitResult(id);
      if (!result.ok()) return error(result.status());
      std::string payload;
      io::wire::PutU64(&payload, id);
      io::AppendEngineResult(*result, &payload);
      return {FrameType::kResult, std::move(payload)};
    }

    case FrameType::kReconfigure: {
      auto cmd = std::make_unique<Command>();
      cmd->kind = Command::Kind::kReconfig;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = ParseReconfigure(&c, &cmd->session_id, &cmd->reconfig);
      if (!s.ok()) return error(s);
      Result<std::string> applied = Dispatch(std::move(cmd));
      if (!applied.ok()) return error(applied.status());
      return {FrameType::kOk, std::string()};
    }

    case FrameType::kSetBudget: {
      auto cmd = std::make_unique<Command>();
      cmd->kind = Command::Kind::kSetBudget;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = c.ReadF64(&cmd->budget);
      if (!s.ok()) return error(s);
      Result<std::string> applied = Dispatch(std::move(cmd));
      if (!applied.ok()) return error(applied.status());
      return {FrameType::kOk, std::string()};
    }

    case FrameType::kMetrics: {
      std::string payload;
      io::wire::PutString(&payload, CollectMetricsJson());
      return {FrameType::kMetricsReport, std::move(payload)};
    }

    case FrameType::kCloseSession: {
      auto cmd = std::make_unique<Command>();
      cmd->kind = Command::Kind::kClose;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = c.ReadU64(&cmd->session_id);
      if (!s.ok()) return error(s);
      Result<std::string> closed = Dispatch(std::move(cmd));
      if (!closed.ok()) return error(closed.status());
      return {FrameType::kOk, std::string()};
    }

    case FrameType::kDrain: {
      auto cmd = std::make_unique<Command>();
      cmd->kind = Command::Kind::kDrain;
      Result<std::string> drained = Dispatch(std::move(cmd));
      if (!drained.ok()) return error(drained.status());
      return {FrameType::kOk, std::string()};
    }

    default:
      return error(Status::InvalidArgument("unexpected frame type"));
  }
}

void Server::RequestDrain() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    drain_requested_ = true;
  }
  queue_cv_.notify_all();
}

Status Server::Wait() {
  if (fleet_thread_.joinable()) fleet_thread_.join();
  // The fleet is down; tear the network down so connection threads unblock
  // out of ReadFrame and exit.
  stop_.store(true);
  if (listen_thread_.joinable()) listen_thread_.join();
  std::list<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
    // Splicing keeps every Conn at its address for its still-running
    // thread.
    conns.splice(conns.end(), conns_);
  }
  for (Conn& c : conns) c.thread.join();
  if (!joined_ && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  joined_ = true;
  return fleet_status_;
}

}  // namespace sky::serve
